//! Replays `fixtures/argv_corpus.txt` against the argument parser.
//!
//! Each fixture line is a command line (whitespace-separated tokens; an
//! empty one is no arguments at all), a tab, and the outcome recorded when
//! the corpus was made: `ok` with the parsed command's `Debug` text (every
//! field and its value; a float's `Debug` text round-trips), or `err` with
//! the `ParseError`'s `Debug` text and its message. Lines starting with
//! `#` are comments. The parser must reproduce every recorded outcome,
//! except that seeds of 2^53 or more, which the recording parser accepted,
//! are refused now: a JSON report cannot carry them exactly; and that the
//! schedule flag is gone with the bulk-synchronous schedule, so a line
//! naming it is refused and a parsed command no longer holds the field
//! ([`RETIRED_FLAG`]); and that lowmem streams on one thread, so a lowmem
//! line naming its thread flags is refused and a parsed lowmem command
//! no longer holds their field ([`RETIRED_LOWMEM_FLAGS`]). The lines in
//! [`RERECORDED`] were recorded again when the parser changed on purpose.

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

/// Fixture lines recorded again after deliberate parser changes: `stats`
/// refuses stray arguments (16); the `parallel*` spellings name the
/// restreaming variants, whose thread count picks the schedule (25–27); a
/// flag's value may not be one of the subcommand's flag spellings (61).
const RERECORDED: [(usize, &str); 5] = [
    (16, "stats graph.hgr extra --bogus 1"),
    (25, "partition app.hgr --parts 4 -a parallel"),
    (26, "partition app.hgr --parts 4 -a parallel-aware"),
    (
        27,
        "partition app.hgr --parts 4 -a parallel-basic --threads 4 --parallel-mode bsp",
    ),
    (61, "partition app.hgr --parts 2 --output --json"),
];

/// The schedule flag the recording parser accepted, and the field it set
/// in `partition` and `lowmem`. The thread count alone picks the schedule
/// now: a line naming the flag is refused, and recorded `ok` outcomes
/// lose the field.
const RETIRED_FLAG: (&str, &str) = ("--parallel-mode", "parallel_mode: ");

/// lowmem's thread-count spellings the recording parser accepted, and the
/// field they set. lowmem streams on one thread now: a lowmem line naming
/// one is refused, and recorded lowmem `ok` outcomes lose the field.
const RETIRED_LOWMEM_FLAGS: ([&str; 2], &str) = (["--threads", "-t"], "threads: ");

/// `recorded` without `field` and its value.
fn without_field(recorded: &str, field: &str) -> String {
    match recorded.split_once(field) {
        Some((head, tail)) => {
            let (_, rest) = tail.split_once(", ").expect("a field follows");
            format!("{head}{rest}")
        }
        None => recorded.to_string(),
    }
}

/// `recorded` without the fields of the retired flags.
fn without_retired_fields(recorded: &str) -> String {
    let recorded = without_field(recorded, RETIRED_FLAG.1);
    if recorded.starts_with("ok LowMem ") {
        without_field(&recorded, RETIRED_LOWMEM_FLAGS.1)
    } else {
        recorded
    }
}

/// The first retired flag `line` names, in argv order: the parser refuses
/// the line there.
fn first_retired_flag(line: &str) -> Option<&str> {
    let lowmem = line.starts_with("lowmem ");
    line.split_whitespace()
        .find(|&t| t == RETIRED_FLAG.0 || (lowmem && RETIRED_LOWMEM_FLAGS.0.contains(&t)))
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
    let (mut replayed, mut refused, mut rerecorded) = (0, 0, 0);
    let (mut retired, mut lowmem_threads) = (0, 0);
    for (number, entry) in CORPUS.lines().enumerate() {
        if entry.starts_with('#') {
            continue;
        }
        let (line, recorded) = entry
            .split_once('\t')
            .unwrap_or_else(|| panic!("fixture line {} has no tab", number + 1));
        if let Some((_, command)) = RERECORDED.iter().find(|r| r.0 == number + 1) {
            assert_eq!(line, *command, "re-recorded line {} moved", number + 1);
            rerecorded += 1;
        }
        let expected = match (first_retired_flag(line), refused_seed(line)) {
            (Some(flag), _) => {
                if flag == RETIRED_FLAG.0 {
                    retired += 1;
                } else {
                    lowmem_threads += 1;
                }
                format!("err UnknownOption(\"{flag}\"): unknown option '{flag}'")
            }
            (None, Some(seed)) => {
                assert!(recorded.starts_with("ok "), "{line:?} was refused already");
                refused += 1;
                let expected = "a number below 2^53";
                format!(
                    "err InvalidValue {{ option: \"--seed\", value: \"{seed}\", \
                     expected: \"{expected}\" }}: invalid value '{seed}' for --seed \
                     (expected {expected})"
                )
            }
            (None, None) => without_retired_fields(recorded),
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
    assert_eq!(retired, 6, "lines refused at the schedule flag");
    assert_eq!(lowmem_threads, 2, "lowmem lines refused at a thread flag");
    assert_eq!(rerecorded, RERECORDED.len());
}
