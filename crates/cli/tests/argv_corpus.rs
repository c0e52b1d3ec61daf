//! Replays `fixtures/argv_corpus.txt` against the argument parser.
//!
//! Each fixture line is a command line (whitespace-separated tokens; an
//! empty one is no arguments at all), a tab, and the outcome recorded when
//! the corpus was made: `ok` with the parsed command's `Debug` text (every
//! field and its value; a float's `Debug` text round-trips), or `err` with
//! the `ParseError`'s `Debug` text and its message. Lines starting with
//! `#` are comments. The parser must reproduce every recorded outcome,
//! except that seeds of 2^53 or more, which the recording parser accepted,
//! are refused now: a JSON report cannot carry them exactly.

use hyperpraw_cli::Cli;

const CORPUS: &str = include_str!("fixtures/argv_corpus.txt");

fn outcome(line: &str) -> String {
    match Cli::parse(line.split_whitespace().map(String::from)) {
        Ok(cli) => {
            let shown = format!("{:?}", cli.command);
            // The recording parser held serve's fields in the variant
            // itself; they now sit in a `ServeOptions`.
            match shown.strip_prefix("Serve(ServeOptions ") {
                Some(fields) => format!("ok Serve {}", fields.strip_suffix(')').unwrap()),
                None => format!("ok {shown}"),
            }
        }
        Err(e) => format!("err {e:?}: {e}"),
    }
}

/// The `--seed` value of a line the recording parser accepted but the
/// current one must refuse.
fn refused_seed(line: &str) -> Option<&str> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    tokens
        .windows(2)
        .filter(|pair| pair[0] == "--seed")
        .map(|pair| pair[1])
        .find(|seed| seed.parse::<u64>().is_ok_and(|n| n >= 1 << 53))
}

#[test]
fn every_recorded_command_line_parses_to_its_recorded_outcome() {
    let (mut replayed, mut refused) = (0, 0);
    for (number, entry) in CORPUS.lines().enumerate() {
        if entry.starts_with('#') {
            continue;
        }
        let (line, recorded) = entry
            .split_once('\t')
            .unwrap_or_else(|| panic!("fixture line {} has no tab", number + 1));
        let expected = match refused_seed(line) {
            Some(seed) => {
                assert!(recorded.starts_with("ok "), "{line:?} was refused already");
                refused += 1;
                let expected = "a number below 2^53";
                format!(
                    "err InvalidValue {{ option: \"--seed\", value: \"{seed}\", \
                     expected: \"{expected}\" }}: invalid value '{seed}' for --seed \
                     (expected {expected})"
                )
            }
            None => recorded.to_string(),
        };
        assert_eq!(
            outcome(line),
            expected,
            "fixture line {}: {line:?}",
            number + 1
        );
        replayed += 1;
    }
    assert!(replayed >= 60, "only {replayed} command lines replayed");
    assert_eq!(refused, 5, "the corpus's accepted seeds of 2^53 or more");
}
