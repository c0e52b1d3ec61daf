//! Table-driven command-line parsing for the `hyperpraw` tool.
//!
//! The [`Command`] enum is declared once, through the `subcommands!`
//! macro, in the clap-derive idiom: each flag is one field whose doc
//! comment is its help line, whose type decides how it parses (`bool` is a
//! switch, `Option<T>` may be left out, any other type is required unless
//! the row gives a default), and whose row names its long flag and short
//! alias. The macro turns those rows into the enum, one flag table per
//! subcommand and the code that builds each variant. One loop parses any
//! subcommand from its table, and [`usage`] is generated from the same
//! tables, so the two cannot drift apart. Choice values parse straight
//! into the facade's [`Algorithm`] and the CLI's
//! [`MachinePreset`] and [`StreamFormat`], through one path that prints
//! each type's own name list when it refuses a value. `serve` parses
//! straight into [`ServeOptions`], whose `Default` holds the daemon's
//! defaults.

use std::fmt;
use std::path::PathBuf;

use hyperpraw::api::Algorithm;
use hyperpraw::json::MAX_EXACT_INTEGER;

use crate::serve::ServeOptions;

/// Machine model preset selectable from the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachinePreset {
    /// ARCHER-like Cray hierarchy (the paper's testbed).
    Archer,
    /// Dual-socket commodity cluster.
    Cluster,
    /// Cloud-like oversubscribed tiers.
    Cloud,
    /// Homogeneous (flat) network.
    Flat,
}

impl MachinePreset {
    const NAMES: [(&'static str, Self); 4] = [
        ("archer", Self::Archer),
        ("cluster", Self::Cluster),
        ("cloud", Self::Cloud),
        ("flat", Self::Flat),
    ];
}

/// How the `lowmem` subcommand reads its input stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamFormat {
    /// Sniff the file: compressed when it carries the `.hpz` magic,
    /// the on-disk transpose reader otherwise.
    Auto,
    /// Force the uncompressed transpose reader (`.hgr` / edge list).
    Transpose,
    /// Force the block-compressed CSR reader; `.hgr` / edge-list inputs
    /// are converted to a temporary compressed file first.
    Compressed,
}

impl StreamFormat {
    const NAMES: [(&'static str, Self); 3] = [
        ("auto", Self::Auto),
        ("transpose", Self::Transpose),
        ("compressed", Self::Compressed),
    ];
}

/// A type a flag's value parses into.
pub(crate) trait FlagValue: Sized {
    /// The value's placeholder in the usage text; empty for a switch,
    /// which takes no value.
    const METAVAR: &'static str = "N";
    /// `true` for a name from a fixed list. A refused name is reported
    /// under the flag's long name, a refused number under the spelling
    /// the command line used.
    const CHOICE: bool = false;
    /// Parses a given value, or (`None`) stands in for an absent flag that
    /// has no default; `None` back refuses the value, or makes the absent
    /// flag a missing one.
    fn parse_value(text: Option<&str>) -> Option<Self>;
    /// What the refused `value` should have been, for `InvalidValue`.
    fn expected(_value: &str) -> String {
        "a number".into()
    }
}

macro_rules! parsed_values {
    ($($t:ty: $metavar:literal),*) => {$(
        impl FlagValue for $t {
            const METAVAR: &'static str = $metavar;
            fn parse_value(text: Option<&str>) -> Option<Self> {
                text?.parse().ok()
            }
        }
    )*};
}

parsed_values!(u32: "N", u64: "N", usize: "N", f64: "N", PathBuf: "PATH", String: "ADDR");

impl FlagValue for bool {
    const METAVAR: &'static str = "";
    fn parse_value(text: Option<&str>) -> Option<Self> {
        Some(text.is_some())
    }
}

impl<T: FlagValue> FlagValue for Option<T> {
    const METAVAR: &'static str = T::METAVAR;
    const CHOICE: bool = T::CHOICE;
    fn parse_value(text: Option<&str>) -> Option<Self> {
        match text {
            None => Some(None),
            text => T::parse_value(text).map(Some),
        }
    }
    fn expected(value: &str) -> String {
        T::expected(value)
    }
}

/// A `--seed`: reports carry it as a JSON number, so it must be an integer
/// an `f64` holds exactly.
struct Seed(u64);

impl FlagValue for Seed {
    fn parse_value(text: Option<&str>) -> Option<Self> {
        text?
            .parse()
            .ok()
            .filter(|&n| n <= MAX_EXACT_INTEGER)
            .map(Seed)
    }
    fn expected(value: &str) -> String {
        let bound = if value.parse::<u64>().is_ok() {
            " below 2^53"
        } else {
            ""
        };
        format!("a number{bound}")
    }
}

impl From<Seed> for u64 {
    fn from(seed: Seed) -> u64 {
        seed.0
    }
}

/// The one parse path of the choice types: a name parser, and the list of
/// accepted names that a refusal prints.
macro_rules! choice_values {
    ($($t:ty: $parse:expr, $names:expr;)*) => {$(
        impl FlagValue for $t {
            const METAVAR: &'static str = "NAME";
            const CHOICE: bool = true;
            fn parse_value(text: Option<&str>) -> Option<Self> {
                ($parse)(text?)
            }
            fn expected(_value: &str) -> String {
                $names
            }
        }
    )*};
}

choice_values! {
    MachinePreset: |s| lookup(&MachinePreset::NAMES, s), names(&MachinePreset::NAMES);
    StreamFormat: |s| lookup(&StreamFormat::NAMES, s), names(&StreamFormat::NAMES);
    Algorithm: |s| Algorithm::parse(s).ok(), Algorithm::expected_names().into();
}

fn lookup<T: Copy>(names: &[(&str, T)], name: &str) -> Option<T> {
    names
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, value)| value)
}

fn names<T>(names: &[(&str, T)]) -> String {
    names
        .iter()
        .map(|(name, _)| *name)
        .collect::<Vec<_>>()
        .join(" | ")
}

/// One flag of a subcommand, as its row declares it.
struct Flag {
    long: &'static str,
    /// The short alias, when there is one.
    short: &'static [&'static str],
    /// The text parsed when the flag is absent, when there is one.
    default: &'static [&'static str],
    help: &'static str,
    /// The value type's [`FlagValue`] items.
    metavar: &'static str,
    choice: bool,
    expected: fn(&str) -> String,
    parses: fn(Option<&str>) -> bool,
}

impl Flag {
    /// The flag's line in the usage text.
    fn usage_line(&self) -> String {
        let short = self
            .short
            .first()
            .map_or("    ".into(), |s| format!("{s}, "));
        let mut help = self.help.trim().trim_end_matches('.').to_string();
        if self.choice {
            help += &format!(": {}", (self.expected)(""));
        }
        match self.default.first() {
            Some(default) => help += &format!(" (default {default})"),
            None if !(self.parses)(None) => help += " (required)",
            None => {}
        }
        let synopsis = format!("{short}{} {}", self.long, self.metavar);
        format!("      {synopsis:<30} {help}\n")
    }
}

/// A subcommand: its positional arguments, its flag table, and how the
/// parsed values become a [`Command`].
struct Subcommand {
    name: &'static str,
    positionals: &'static [&'static str],
    flags: &'static [Flag],
    build: fn(&Matches<'_>) -> Result<Command, ParseError>,
}

/// Declares [`Command`] and `SUBCOMMANDS`: per subcommand its doc, name,
/// positional paths and flag rows (see the module doc), the subcommands
/// separated by commas, then `serve`, whose rows override fields of
/// [`ServeOptions::default`] when given.
macro_rules! subcommands {
    // A row's value type: its `as` override, else its field's type.
    (@value_type $t:ty $(, $field:ty)?) => { $t };
    (@flag $t:ty, $long:literal, $short:expr, $default:expr, $help:expr) => {
        Flag {
            long: $long,
            short: $short,
            default: $default,
            help: $help,
            metavar: <$t>::METAVAR,
            choice: <$t>::CHOICE,
            expected: <$t>::expected,
            parses: |text| <$t>::parse_value(text).is_some(),
        }
    };
    (
        $(
            $(#[doc = $doc:literal])+
            $variant:ident $name:literal ($($(#[doc = $pdoc:literal])+ $pos:ident)*) {$(
                $(#[doc = $fdoc:literal])+
                $field:ident: $ty:ty $(as $vty:ty)?
                    = $long:literal $($short:literal)? $(, default $default:literal)?;
            )*}
        ),+
        $(#[doc = $sdoc:literal])+
        Serve($options:ty) $sname:literal {$(
            $(#[doc = $shelp:literal])+
            $sfield:ident: $sty:ty = $slong:literal;
        )*}
    ) => {
        /// Subcommands of the tool.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Command {
            $(
                $(#[doc = $doc])+
                $variant {
                    $($(#[doc = $pdoc])+ $pos: PathBuf,)*
                    $($(#[doc = $fdoc])+ $field: $ty,)*
                },
            )*
            $(#[doc = $sdoc])+
            Serve($options),
        }

        static SUBCOMMANDS: &[Subcommand] = &[
            $(Subcommand {
                name: $name,
                positionals: &[$(stringify!($pos)),*],
                flags: &[$(subcommands!(@flag subcommands!(@value_type $($vty,)? $ty),
                    $long, &[$($short)?], &[$($default)?], concat!($($fdoc),+))),*],
                build: |m| Ok(Command::$variant {
                    $($pos: m.positional(stringify!($pos)),)*
                    $($field: m.take::<subcommands!(@value_type $($vty,)? $ty)>($long)?.into(),)*
                }),
            },)*
            Subcommand {
                name: $sname,
                positionals: &[],
                flags: &[$(subcommands!(@flag Option<$sty>, $slong, &[], &[], concat!($($shelp),+))),*],
                build: |m| {
                    let mut options = <$options>::default();
                    $(if let Some(value) = m.take::<Option<$sty>>($slong)? {
                        options.$sfield = value.into();
                    })*
                    Ok(Command::Serve(options))
                },
            },
        ];
    };
}

subcommands! {
    /// Print the statistics of a hypergraph file (Table 1 style).
    Stats "stats" (
        /// Input file (`.hgr`, `.mtx` or edge list).
        input
    ) {},

    /// Partition a hypergraph file.
    Partition "partition" (
        /// Input file (`.hgr`, `.mtx` or edge list).
        input
    ) {
        /// Number of partitions, one per compute unit.
        parts: u32 = "--parts" "-p";
        /// Partitioning algorithm (any facade algorithm).
        algorithm: Algorithm = "--algorithm" "-a", default "aware";
        /// Machine preset of the cost matrix (aware) and the benchmark link model.
        machine: MachinePreset = "--machine" "-m", default "archer";
        /// Imbalance tolerance.
        imbalance: f64 = "--imbalance", default "1.1";
        /// Worker threads of a restreaming algorithm (1 = sequential, the
        /// default; more = work stealing; 0 = auto).
        threads: Option<usize> = "--threads" "-t";
        /// RNG seed.
        seed: u64 as Seed = "--seed", default "2019";
        /// Where to write the assignment, one partition id per line.
        output: Option<PathBuf> = "--output" "-o";
        /// Print the partition report as JSON instead of the text summary.
        json: bool = "--json";
        /// Also write the JSON report to this path.
        json_out: Option<PathBuf> = "--json-out";
        /// Write the run's telemetry registry (engine metrics) as JSON here.
        metrics_out: Option<PathBuf> = "--metrics-out";
    },

    /// Partition a hypergraph file in streaming passes under a memory
    /// budget (`hyperpraw-lowmem`), without loading it into RAM.
    LowMem "lowmem" (
        /// Input file (`.hgr`, edge list or `.hpz`; `.mtx` is not streamable).
        input
    ) {
        /// Number of partitions, one per compute unit.
        parts: u32 = "--parts" "-p";
        /// Sketch and buffer memory budget in MiB.
        budget_mib: usize = "--budget-mib" "-b", default "64";
        /// Use the exact (unbounded-memory) connectivity index instead of
        /// the Bloom/MinHash sketches.
        exact: bool = "--exact";
        /// Lowest-confidence assignments to revisit (derived from the
        /// budget when absent).
        restream: Option<usize> = "--restream";
        /// Streaming passes over the input (out-of-core restreaming above 1).
        passes: usize = "--passes", default "1";
        /// Rebuild the sketches between passes to shed staleness.
        rebuild_sketches: bool = "--rebuild-sketches";
        /// Machine preset of the cost matrix.
        machine: MachinePreset = "--machine" "-m", default "archer";
        /// RNG seed.
        seed: u64 as Seed = "--seed", default "2019";
        /// Where to write the assignment, one partition id per line.
        output: Option<PathBuf> = "--output" "-o";
        /// Print the partition report as JSON instead of the text summary.
        json: bool = "--json";
        /// Also write the JSON report to this path.
        json_out: Option<PathBuf> = "--json-out";
        /// How to read the input stream.
        format: StreamFormat = "--format" "-f", default "auto";
        /// Decode compressed blocks without the background prefetch thread.
        no_prefetch: bool = "--no-prefetch";
        /// Write the run's telemetry registry (engine and storage metrics)
        /// as JSON here.
        metrics_out: Option<PathBuf> = "--metrics-out";
    },

    /// Convert a hypergraph file to the block-compressed CSR format.
    Convert "convert" (
        /// Input file (`.hgr` or edge list).
        input
        /// Output `.hpz` path.
        output
    ) {
        /// Target encoded bytes per block.
        block_bytes: u32 = "--block-bytes", default "65536";
    },

    /// Generate a synthetic mesh hypergraph and write it as `.hgr`.
    Generate "generate" (
        /// Output `.hgr` path.
        output
    ) {
        /// Number of vertices.
        vertices: usize = "--vertices" "-n", default "10000";
        /// Target hyperedge cardinality.
        cardinality: usize = "--cardinality" "-c", default "16";
        /// RNG seed.
        seed: u64 as Seed = "--seed", default "2019";
    },

    /// Profile a machine preset and write its bandwidth matrix as CSV.
    Profile "profile" () {
        /// Machine preset.
        machine: MachinePreset = "--machine" "-m", default "archer";
        /// Number of compute units.
        procs: usize = "--procs" "-n";
        /// Output CSV path (stdout when absent).
        output: Option<PathBuf> = "--output" "-o";
    },

    /// Run the synthetic benchmark for an existing assignment.
    Benchmark "benchmark" (
        /// Input hypergraph file.
        input
        /// Assignment file (one partition id per line).
        assignment
    ) {
        /// Machine preset of the link model.
        machine: MachinePreset = "--machine" "-m", default "archer";
        /// Message payload in bytes.
        message_bytes: u64 = "--bytes", default "1024";
        /// Number of supersteps.
        supersteps: usize = "--supersteps", default "1";
    }

    /// Run a long-lived partitioning daemon speaking newline-delimited
    /// JSON: `partition`, `update`, `lookup`, `report` and `shutdown`
    /// requests against a resident dynamic session.
    Serve(ServeOptions) "serve" {
        /// TCP address to listen on.
        bind: String = "--bind";
        /// Serve a single session over stdin/stdout instead of TCP.
        stdio: bool = "--stdio";
        /// Snapshot and write-ahead-journal directory of a crash-safe session.
        state_dir: PathBuf = "--state-dir";
        /// The only directory partition requests may load a "path" from.
        data_dir: PathBuf = "--data-dir";
        /// Largest accepted request line in bytes.
        max_line_bytes: usize = "--max-line-bytes";
        /// Per-connection read timeout in seconds.
        read_timeout_secs: u64 = "--read-timeout-secs";
        /// Fold the journal into a fresh snapshot every N batches.
        snapshot_every: u64 = "--snapshot-every";
        /// Serve Prometheus-style plain-text metrics on this address.
        metrics_addr: String = "--metrics-addr";
    }
}

/// The values one command line gives a subcommand's flags.
struct Matches<'a> {
    sub: &'static Subcommand,
    positionals: &'a [String],
    /// Per table row, the last value given (`""` for a present switch).
    values: Vec<Option<&'a str>>,
}

impl<'a> Matches<'a> {
    /// The one parse loop: positionals first, then flags in any order,
    /// each value checked against its row as it is met; the last of a
    /// repeated flag wins. A value may start with `-` (`--imbalance -1`)
    /// but may not be one of the subcommand's own flag spellings: there
    /// the value was forgotten.
    fn parse(sub: &'static Subcommand, rest: &'a [String]) -> Result<Self, ParseError> {
        for (i, name) in sub.positionals.iter().enumerate() {
            if rest.get(i).is_none_or(|arg| arg.starts_with('-')) {
                return Err(ParseError::MissingArgument((*name).into()));
            }
        }
        let (positionals, args) = rest.split_at(sub.positionals.len());
        let row_of = |arg: &str| {
            sub.flags
                .iter()
                .position(|f| f.long == arg || f.short.contains(&arg))
        };
        let mut values = vec![None; sub.flags.len()];
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            let row = row_of(arg).ok_or_else(|| ParseError::UnknownOption(arg.into()))?;
            let flag = &sub.flags[row];
            let value = match flag.metavar {
                "" => "",
                _ => args
                    .next()
                    .filter(|value| row_of(value).is_none())
                    .ok_or_else(|| ParseError::MissingValue(arg.into()))?,
            };
            if !(flag.parses)(Some(value)) {
                return Err(ParseError::InvalidValue {
                    option: if flag.choice { flag.long } else { arg }.into(),
                    value: value.into(),
                    expected: (flag.expected)(value),
                });
            }
            values[row] = Some(value);
        }
        Ok(Self {
            sub,
            positionals,
            values,
        })
    }

    fn positional(&self, name: &str) -> PathBuf {
        let index = self.sub.positionals.iter().position(|p| *p == name);
        PathBuf::from(&self.positionals[index.expect("a declared positional")])
    }

    /// The flag's value: the one given, else the row's default, else the
    /// value type's stand-in for an absent flag; a flag that has none of
    /// these is missing. `T` is the row's value type.
    fn take<T: FlagValue>(&self, long: &str) -> Result<T, ParseError> {
        let row = self.sub.flags.iter().position(|f| f.long == long);
        let row = row.expect("a flag of the subcommand's table");
        let text = self.values[row].or(self.sub.flags[row].default.first().copied());
        let value = T::parse_value(text);
        match (value, text) {
            (Some(value), _) => Ok(value),
            (None, None) => Err(ParseError::MissingValue(long.into())),
            (None, Some(text)) => panic!("default {text:?} of {long} does not parse"),
        }
    }
}

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

/// Errors produced while parsing the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// `--help` / `-h` was requested.
    HelpRequested,
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not recognised.
    UnknownCommand(String),
    /// A required positional argument is missing.
    MissingArgument(String),
    /// An option was given without a value.
    MissingValue(String),
    /// An option value could not be parsed.
    InvalidValue {
        /// The option name.
        option: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: String,
    },
    /// An unknown option was encountered.
    UnknownOption(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::HelpRequested => write!(f, "help requested"),
            Self::MissingCommand => write!(f, "missing subcommand"),
            Self::UnknownCommand(c) => write!(f, "unknown subcommand '{c}'"),
            Self::MissingArgument(a) => write!(f, "missing required argument <{a}>"),
            Self::MissingValue(o) => write!(f, "option {o} requires a value"),
            Self::InvalidValue {
                option,
                value,
                expected,
            } => write!(
                f,
                "invalid value '{value}' for {option} (expected {expected})"
            ),
            Self::UnknownOption(o) => write!(f, "unknown option '{o}'"),
        }
    }
}

impl std::error::Error for ParseError {}

/// The usage text printed by `--help` and on parse errors, generated from
/// the subcommand tables.
pub fn usage() -> String {
    let mut text = String::from(
        "hyperpraw — architecture-aware hypergraph partitioning (ICPP 2019 reproduction)\n\n\
         USAGE:\n",
    );
    for sub in SUBCOMMANDS {
        text += &format!("  hyperpraw {}", sub.name);
        for name in sub.positionals {
            text += &format!(" <{name}>");
        }
        text += if sub.flags.is_empty() {
            "\n"
        } else {
            " [options]\n"
        };
        for flag in sub.flags {
            text += &flag.usage_line();
        }
    }
    text + NOTES
}

const NOTES: &str = "\n\
     All algorithms dispatch through the facade's unified PartitionJob API; --json emits the\n\
     common PartitionReport as machine-readable JSON.\n\
     serve keeps a dynamic session resident and answers one JSON request per line:\n\
       {\"op\":\"partition\",...} {\"op\":\"update\",...} {\"op\":\"lookup\",...} {\"op\":\"report\"} {\"op\":\"shutdown\"}\n\
     With --state-dir every accepted update batch is journaled (fsynced) before it is\n\
     acknowledged and snapshots fold the journal in; on restart the daemon recovers the\n\
     session bit-identically, truncating any torn journal tail. A partition request may\n\
     name a file with \"path\" only under --data-dir DIR, and only a file inside DIR.\n\
     Input formats: hMetis .hgr, MatrixMarket .mtx (row-net model), anything else is read\n\
     as a whitespace edge list (one hyperedge per line, 0-based vertex ids).\n\
     convert writes the block-compressed vertex-major CSR (.hpz); lowmem streams it directly\n\
     (--format auto sniffs the magic) with a background prefetch thread decoding the next\n\
     block while the engine consumes the current one.";

impl Cli {
    /// Parses an argument vector (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ParseError> {
        let args: Vec<String> = argv.into_iter().collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            return Err(ParseError::HelpRequested);
        }
        let (name, rest) = args.split_first().ok_or(ParseError::MissingCommand)?;
        let sub = SUBCOMMANDS
            .iter()
            .find(|sub| sub.name == name)
            .ok_or_else(|| ParseError::UnknownCommand(name.clone()))?;
        let matches = Matches::parse(sub, rest)?;
        Ok(Self {
            command: (sub.build)(&matches)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(|x| x.to_string())
    }

    #[test]
    fn parses_stats() {
        let cli = Cli::parse(argv("stats graph.hgr")).unwrap();
        assert_eq!(
            cli.command,
            Command::Stats {
                input: PathBuf::from("graph.hgr")
            }
        );
    }

    #[test]
    fn parses_partition_with_defaults_and_overrides() {
        let cli = Cli::parse(argv(
            "partition app.hgr --parts 96 -a multilevel -m cloud --imbalance 1.05 \
             --threads 3 --seed 7 -o out.txt --json --json-out r.json \
             --metrics-out m.json",
        ))
        .unwrap();
        match cli.command {
            Command::Partition {
                input,
                parts,
                algorithm,
                machine,
                imbalance,
                threads,
                seed,
                output,
                json,
                json_out,
                metrics_out,
            } => {
                assert_eq!(input, PathBuf::from("app.hgr"));
                assert_eq!(parts, 96);
                assert_eq!(algorithm, Algorithm::MultilevelBaseline);
                assert_eq!(machine, MachinePreset::Cloud);
                assert!((imbalance - 1.05).abs() < 1e-12);
                assert_eq!(threads, Some(3));
                assert_eq!(seed, 7);
                assert_eq!(output, Some(PathBuf::from("out.txt")));
                assert!(json);
                assert_eq!(json_out, Some(PathBuf::from("r.json")));
                assert_eq!(metrics_out, Some(PathBuf::from("m.json")));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn every_facade_algorithm_is_reachable_from_the_command_line() {
        for algorithm in Algorithm::all() {
            let line = format!("partition app.hgr --parts 8 -a {}", algorithm.name());
            match Cli::parse(argv(&line)).unwrap().command {
                Command::Partition { algorithm: got, .. } => assert_eq!(got, algorithm),
                other => panic!("wrong command {other:?}"),
            }
        }
    }

    #[test]
    fn partition_defaults_to_the_aware_algorithm() {
        let cli = Cli::parse(argv("partition app.hgr --parts 8")).unwrap();
        match cli.command {
            Command::Partition {
                algorithm, json, ..
            } => {
                assert_eq!(algorithm, Algorithm::HyperPrawAware);
                assert!(!json);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            Cli::parse(argv("partition app.hgr --parts 8 -c auto")).unwrap_err(),
            ParseError::UnknownOption(_)
        ));
    }

    #[test]
    fn partition_requires_parts() {
        let err = Cli::parse(argv("partition app.hgr")).unwrap_err();
        assert!(matches!(err, ParseError::MissingValue(_)));
    }

    #[test]
    fn parses_lowmem_with_defaults_and_overrides() {
        let cli = Cli::parse(argv("lowmem big.hgr --parts 32")).unwrap();
        match cli.command {
            Command::LowMem {
                parts,
                budget_mib,
                exact,
                restream,
                passes,
                rebuild_sketches,
                json,
                ..
            } => {
                assert_eq!(parts, 32);
                assert_eq!(budget_mib, 64);
                assert!(!exact);
                assert_eq!(restream, None);
                assert_eq!(passes, 1);
                assert!(!rebuild_sketches);
                assert!(!json);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = Cli::parse(argv(
            "lowmem big.hgr -p 8 -b 16 --exact --restream 500 --passes 3 --rebuild-sketches \
             -m flat --seed 3 -o out.txt --json",
        ))
        .unwrap();
        match cli.command {
            Command::LowMem {
                budget_mib,
                exact,
                restream,
                passes,
                rebuild_sketches,
                machine,
                seed,
                output,
                json,
                ..
            } => {
                assert_eq!(budget_mib, 16);
                assert!(exact);
                assert_eq!(restream, Some(500));
                assert_eq!(passes, 3);
                assert!(rebuild_sketches);
                assert_eq!(machine, MachinePreset::Flat);
                assert_eq!(seed, 3);
                assert_eq!(output, Some(PathBuf::from("out.txt")));
                assert!(json);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            Cli::parse(argv("lowmem big.hgr")).unwrap_err(),
            ParseError::MissingValue(_)
        ));
    }

    #[test]
    fn parses_lowmem_format_and_prefetch_flags() {
        match Cli::parse(argv("lowmem big.hpz --parts 8"))
            .unwrap()
            .command
        {
            Command::LowMem {
                format,
                no_prefetch,
                ..
            } => {
                assert_eq!(format, StreamFormat::Auto);
                assert!(!no_prefetch);
            }
            other => panic!("wrong command {other:?}"),
        }
        match Cli::parse(argv(
            "lowmem big.hgr -p 8 --format compressed --no-prefetch",
        ))
        .unwrap()
        .command
        {
            Command::LowMem {
                format,
                no_prefetch,
                ..
            } => {
                assert_eq!(format, StreamFormat::Compressed);
                assert!(no_prefetch);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            Cli::parse(argv("lowmem big.hgr -p 8 --format zip")).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }

    #[test]
    fn parses_convert_and_generate() {
        assert_eq!(
            Cli::parse(argv("convert in.hgr out.hpz")).unwrap().command,
            Command::Convert {
                input: PathBuf::from("in.hgr"),
                output: PathBuf::from("out.hpz"),
                block_bytes: 64 * 1024,
            }
        );
        assert_eq!(
            Cli::parse(argv("convert in.hgr out.hpz --block-bytes 4096"))
                .unwrap()
                .command,
            Command::Convert {
                input: PathBuf::from("in.hgr"),
                output: PathBuf::from("out.hpz"),
                block_bytes: 4096,
            }
        );
        assert!(matches!(
            Cli::parse(argv("convert in.hgr")).unwrap_err(),
            ParseError::MissingArgument(_)
        ));
        assert_eq!(
            Cli::parse(argv(
                "generate mesh.hgr --vertices 500 --cardinality 8 --seed 3"
            ))
            .unwrap()
            .command,
            Command::Generate {
                output: PathBuf::from("mesh.hgr"),
                vertices: 500,
                cardinality: 8,
                seed: 3,
            }
        );
    }

    #[test]
    fn parses_profile_and_benchmark() {
        let cli = Cli::parse(argv("profile --machine flat --procs 32")).unwrap();
        assert!(matches!(
            cli.command,
            Command::Profile {
                machine: MachinePreset::Flat,
                procs: 32,
                output: None
            }
        ));
        let cli = Cli::parse(argv("benchmark a.hgr parts.txt --bytes 64 --supersteps 5")).unwrap();
        match cli.command {
            Command::Benchmark {
                message_bytes,
                supersteps,
                ..
            } => {
                assert_eq!(message_bytes, 64);
                assert_eq!(supersteps, 5);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_serve() {
        let cli = Cli::parse(argv("serve")).unwrap();
        assert_eq!(
            cli.command,
            Command::Serve(ServeOptions {
                bind: "127.0.0.1:7700".into(),
                stdio: false,
                state_dir: None,
                data_dir: None,
                max_line_bytes: 16 * 1024 * 1024,
                read_timeout_secs: 30,
                snapshot_every: 64,
                metrics_addr: None,
            })
        );
        let cli = Cli::parse(argv(
            "serve --bind 0.0.0.0:9000 --stdio --state-dir /tmp/hp-state \
             --data-dir /srv/graphs --max-line-bytes 1024 --read-timeout-secs 5 --snapshot-every 8 \
             --metrics-addr 127.0.0.1:9100",
        ))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Serve(ServeOptions {
                bind: "0.0.0.0:9000".into(),
                stdio: true,
                state_dir: Some(PathBuf::from("/tmp/hp-state")),
                data_dir: Some(PathBuf::from("/srv/graphs")),
                max_line_bytes: 1024,
                read_timeout_secs: 5,
                snapshot_every: 8,
                metrics_addr: Some("127.0.0.1:9100".into()),
            })
        );
        assert!(matches!(
            Cli::parse(argv("serve --port 1")).unwrap_err(),
            ParseError::UnknownOption(_)
        ));
        assert!(matches!(
            Cli::parse(argv("serve --max-line-bytes lots")).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }

    #[test]
    fn rejects_unknown_commands_options_and_values() {
        assert!(matches!(
            Cli::parse(argv("frobnicate x")).unwrap_err(),
            ParseError::UnknownCommand(_)
        ));
        assert!(matches!(
            Cli::parse(argv("partition a.hgr --parts 4 --bogus 1")).unwrap_err(),
            ParseError::UnknownOption(_)
        ));
        assert!(matches!(
            Cli::parse(argv("partition a.hgr --parts four")).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
        assert!(matches!(
            Cli::parse(argv("partition a.hgr --parts 4 -a quantum")).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
        assert_eq!(
            Cli::parse(std::iter::empty()).unwrap_err(),
            ParseError::MissingCommand
        );
    }

    #[test]
    fn help_flag_short_circuits() {
        assert_eq!(
            Cli::parse(argv("partition --help")).unwrap_err(),
            ParseError::HelpRequested
        );
        assert!(usage().contains("USAGE"));
        assert!(usage().contains("--json"));
    }
}
