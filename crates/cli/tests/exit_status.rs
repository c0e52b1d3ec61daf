//! Exit statuses of the real binary: a reader that closes stdout early
//! ends the run quietly, and a configuration the job refuses is a run
//! error (status 1), not a panic or a 100-pass run.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A 64-vertex mesh, written by the binary itself.
fn mesh_hgr(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "hyperpraw_exit_status_{}_{name}.hgr",
        std::process::id()
    ));
    let args = ["generate", path.to_str().unwrap(), "-n", "64", "-c", "4"];
    assert!(hyperpraw(&args, Stdio::null()).status.success());
    path
}

fn hyperpraw(args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("run hyperpraw")
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let input = mesh_hgr("pipe");
    let input = input.to_str().unwrap();
    for args in [
        vec!["--help"],
        vec!["stats", input],
        vec!["partition", input, "--parts", "4", "--json"],
        vec!["partition", input, "--parts", "4"],
        vec!["profile", "--procs", "4"],
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let output = hyperpraw(&args, writer.into());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(output.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(output.status.success(), "{args:?}: {stderr}");
    }
    std::fs::remove_file(input).ok();
}

#[test]
fn a_nan_imbalance_tolerance_is_a_run_error() {
    let input = mesh_hgr("nan");
    let path = input.to_str().unwrap();
    let output = hyperpraw(
        &["partition", path, "--parts", "4", "--imbalance", "nan"],
        Stdio::null(),
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("imbalance tolerance"), "{stderr}");
    std::fs::remove_file(input).ok();
}

#[test]
fn threads_for_lowmem_are_a_run_error() {
    let input = mesh_hgr("lowmem_threads");
    let path = input.to_str().unwrap();
    let output = hyperpraw(
        &[
            "partition",
            path,
            "--parts",
            "4",
            "-a",
            "lowmem",
            "--threads",
            "2",
        ],
        Stdio::null(),
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--threads does not apply"), "{stderr}");
    std::fs::remove_file(input).ok();
}
