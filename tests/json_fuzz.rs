//! Property fuzz of [`hyperpraw::json`]: whatever bytes arrive on a serve
//! connection, the parser must either produce a value or return a
//! [`hyperpraw::json::JsonError`] whose byte offset points inside the
//! input — it must never panic, and the offset in the structured error
//! response must always be meaningful to the client. And whatever value
//! the workspace writes, the parser must read back the same value.

use hyperpraw::json::{self, JsonValue, MAX_DEPTH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Characters weighted towards JSON structure so random strings reach
/// deep into the parser (nesting, escapes, numbers, literals) instead of
/// failing on the first byte.
const JSON_ALPHABET: &[u8] = br#"{}[]",:\/-+.0123456789eEtruefalsnu "#;

fn check(input: &str) -> Result<(), String> {
    match json::parse(input) {
        Ok(_) => Ok(()),
        Err(e) => {
            prop_assert!(
                e.offset <= input.len(),
                "offset {} outside input of {} bytes: {input:?}",
                e.offset,
                input.len()
            );
            Ok(())
        }
    }
}

/// An arbitrary tree of at most `depth` container levels. Numbers are
/// integers of magnitude up to 2^53 or any finite `f64` bit pattern
/// (subnormals and extremes included).
fn arbitrary_value(rng: &mut StdRng, depth: usize) -> JsonValue {
    match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.gen_bool(0.5)),
        2 if rng.gen_bool(0.5) => JsonValue::Number(rng.gen_range(-(1i64 << 53)..=1 << 53) as f64),
        2 => JsonValue::Number(
            Some(f64::from_bits(rng.next_u64()))
                .filter(|n| n.is_finite())
                .unwrap_or(0.0),
        ),
        3 => JsonValue::String(arbitrary_string(rng)),
        4 => JsonValue::Array(
            (0..rng.gen_range(0..5))
                .map(|_| arbitrary_value(rng, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..rng.gen_range(0..5))
                .map(|_| (arbitrary_string(rng), arbitrary_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Quotes, backslashes, every control character, non-ASCII and astral
/// characters, mixed with plain ASCII.
fn arbitrary_string(rng: &mut StdRng) -> String {
    const SPECIAL: [char; 8] = ['"', '\\', '/', '\u{7f}', 'é', '€', '\u{2028}', '\u{FFFF}'];
    (0..rng.gen_range(0..12))
        .map(|_| match rng.gen_range(0..4) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1 => char::from(rng.gen_range(0u8..0x20)),
            2 => char::from_u32(rng.gen_range(0x10000u32..0x110000)).expect("astral scalar"),
            _ => char::from(rng.gen_range(0x20u8..0x7f)),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the writer emits, the parser reads back as the same value,
    /// on one line, even when the tree is wrapped to just below
    /// `MAX_DEPTH`.
    #[test]
    fn written_values_parse_back_unchanged(seed in 0u64..u64::MAX, wraps in 0usize..MAX_DEPTH / 2 - 2) {
        let mut value = arbitrary_value(&mut StdRng::seed_from_u64(seed), 4);
        for _ in 0..wraps {
            value = JsonValue::object([("k", JsonValue::Array(vec![value]))]);
        }
        let text = value.to_string();
        prop_assert!(!text.contains('\n'), "one line: {text}");
        let parsed = json::parse(&text).map_err(|e| format!("{e}: {text}"))?;
        prop_assert_eq!(parsed, value);
    }

    /// Arbitrary bytes (lossily decoded — the serve loop rejects invalid
    /// UTF-8 before the parser ever sees it) never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        let input = String::from_utf8_lossy(&bytes).into_owned();
        check(&input)?;
    }

    /// Strings over a JSON-flavoured alphabet — dense in structural
    /// tokens, escapes and digits — never panic and keep offsets in range.
    #[test]
    fn json_shaped_strings_never_panic(picks in prop::collection::vec(0usize..JSON_ALPHABET.len(), 0..96)) {
        let input: String = picks.iter().map(|&i| JSON_ALPHABET[i] as char).collect();
        check(&input)?;
    }

    /// Single-byte corruptions of valid protocol documents parse or fail
    /// cleanly; the pristine document must still parse.
    #[test]
    fn corrupted_valid_documents_fail_cleanly(
        doc in 0usize..4,
        index in 0usize..1024,
        replacement in 0u8..=255,
    ) {
        const DOCS: [&str; 4] = [
            r#"{"op": "partition", "parts": 4, "edges": [[0,1,2],[2,3]], "seed": 7}"#,
            r#"{"op": "update", "updates": [{"op": "add_edge", "pins": [4,0], "weight": 1.5e-2}]}"#,
            r#"{"nested": [[[{"deep": [null, true, false, -0.125]}]]], "s": "a\nA😀"}"#,
            r#"[{"k": ""}, 1e308, "trailing \\ backslash"]"#,
        ];
        let pristine = DOCS[doc];
        prop_assert!(json::parse(pristine).is_ok(), "pristine doc {doc} must parse");
        let mut bytes = pristine.as_bytes().to_vec();
        let at = index % bytes.len();
        bytes[at] = replacement;
        let input = String::from_utf8_lossy(&bytes).into_owned();
        check(&input)?;
    }

    /// Offsets returned for truncations of a valid document always land
    /// inside the truncated input, not the original.
    #[test]
    fn truncation_offsets_stay_inside_the_input(cut in 0usize..69) {
        let full = r#"{"op": "partition", "parts": 4, "edges": [[0,1,2],[2,3]], "seed": 7}"#;
        let cut = cut.min(full.len());
        if full.is_char_boundary(cut) {
            check(&full[..cut])?;
        }
    }
}

/// JSON has no NaN or infinity: non-finite numbers are written as `null`,
/// wherever they sit.
#[test]
fn non_finite_numbers_write_as_null() {
    for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(JsonValue::from(n).to_string(), "null");
        let doc = JsonValue::object([("n", JsonValue::from(Some(n))), ("a", vec![n].into())]);
        assert_eq!(doc.to_string(), "{\"n\": null, \"a\": [null]}");
    }
}

/// The parser result for protocol-shaped input is actually consumed by the
/// daemon; pin that a fuzz survivor that parses is traversable without
/// panics either.
#[test]
fn parsed_values_traverse_safely() {
    let v = json::parse(r#"{"op": "update", "updates": [{"op": "add_vertex"}]}"#).unwrap();
    assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("update"));
    let updates = v.get("updates").and_then(JsonValue::as_array).unwrap();
    assert_eq!(updates.len(), 1);
    assert!(v.get("missing").is_none());
}
