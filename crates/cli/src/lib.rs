//! Library backing the `hyperpraw` command-line tool.
//!
//! The CLI wraps the workspace crates so a hypergraph file can be
//! partitioned, inspected and benchmarked without writing Rust:
//!
//! ```text
//! hyperpraw stats      matrix.mtx
//! hyperpraw partition  app.hgr --parts 96 --algorithm aware --machine archer -o assignment.txt
//! hyperpraw profile    --machine archer --procs 144 -o bandwidth.csv
//! hyperpraw benchmark  app.hgr assignment.txt --machine archer
//! hyperpraw serve      --stdio
//! ```
//!
//! Argument parsing lives in [`args`] and uses no external dependencies:
//! each subcommand's flags are declared once, and one generic loop and
//! the `--help` text both read those tables. The subcommand
//! implementations live in [`commands`] and print through one writer
//! that ends output quietly when the reader closes the pipe. Every
//! partitioning invocation dispatches through the facade's unified
//! [`hyperpraw::api::PartitionJob`] — the CLI carries no per-driver
//! wiring of its own.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io::Write;

pub mod args;
pub mod commands;
pub mod serve;

pub use args::{Cli, Command, MachinePreset, ParseError};
pub use hyperpraw::api::Algorithm;

/// Entry point shared by the binary and the integration tests: parses the
/// arguments and runs the selected subcommand, returning a process exit
/// code (0 for success or help, 1 for a failed run, 2 for a parse error).
pub fn run<I: IntoIterator<Item = String>>(argv: I) -> i32 {
    let mut out = commands::Stdout;
    let result = match args::Cli::parse(argv) {
        Ok(cli) => commands::execute(&cli, &mut out),
        Err(ParseError::HelpRequested) => writeln!(out, "{}", args::usage()).map_err(Into::into),
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::usage());
            return 2;
        }
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
