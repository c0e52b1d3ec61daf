//! End-to-end smoke test for `hyperpraw serve --stdio`: spawns the real
//! binary and drives one partition / update / lookup / report / shutdown
//! round-trip over its pipes — the same exchange CI replays.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn serve_stdio_round_trip() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hyperpraw serve --stdio");

    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let requests = concat!(
        "{\"op\": \"partition\", \"parts\": 2, \"seed\": 7, ",
        "\"edges\": [[0,1,2],[2,3],[3,4,5],[5,0],[1,4]], \"vertices\": 6}\n",
        "{\"op\": \"update\", \"updates\": [{\"op\": \"add_vertex\"}, ",
        "{\"op\": \"add_edge\", \"pins\": [6, 2, 3]}]}\n",
        "{\"op\": \"lookup\", \"vertex\": 6}\n",
        "{\"op\": \"report\"}\n",
        "{\"op\": \"shutdown\"}\n",
    );
    stdin.write_all(requests.as_bytes()).unwrap();
    stdin.flush().unwrap();
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 5, "one response per request: {lines:#?}");
    assert!(
        lines[0].contains("\"ok\": true")
            && lines[0].contains("\"algorithm\": \"hyperpraw-basic\""),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"update\"") && lines[1].contains("\"vertices_moved\""),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"vertex\": 6") && lines[2].contains("\"part\": "),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].contains("\"quality\": \"evaluated\""),
        "{}",
        lines[3]
    );
    assert_eq!(lines[4], "{\"ok\": true, \"bye\": true}");

    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status}");
}

/// Malformed request lines — broken JSON and raw non-UTF-8 bytes — must
/// answer a structured `{"error": {"message", "offset"}}` object and leave
/// the session serving; only `shutdown`/EOF may end it.
#[test]
fn serve_stdio_survives_malformed_lines_with_structured_errors() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hyperpraw serve --stdio");

    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let mut requests: Vec<u8> = Vec::new();
    requests.extend_from_slice(b"{\"op\": \"partition\" \"parts\": 2}\n"); // missing comma
    requests.extend_from_slice(b"\xc3\x28 not utf-8\n"); // overlong sequence at byte 0
    requests
        .extend_from_slice(b"{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1],[1,2]]}\n");
    requests.extend_from_slice(b"{\"op\": \"lookup\", \"vertex\": 1}\n");
    requests.extend_from_slice(b"{\"op\": \"shutdown\"}\n");
    stdin.write_all(&requests).unwrap();
    stdin.flush().unwrap();
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 5, "one response per request: {lines:#?}");
    assert!(
        lines[0].contains("\"ok\": false")
            && lines[0].contains("\"message\"")
            && lines[0].contains("\"offset\""),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("UTF-8") && lines[1].contains("\"offset\": 0"),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains("\"ok\": true"), "{}", lines[2]);
    assert!(lines[3].contains("\"part\":"), "{}", lines[3]);
    assert_eq!(lines[4], "{\"ok\": true, \"bye\": true}");

    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status}");
}

/// A lookup above the session's id range is a structured refusal, not a
/// hedged `"part": null` — and neither it nor an oversized request line
/// (over `--max-line-bytes`) may end the session.
#[test]
fn serve_stdio_bounds_lookups_and_request_lines() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .args(["serve", "--stdio", "--max-line-bytes", "1024"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hyperpraw serve --stdio");

    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let mut requests: Vec<u8> = Vec::new();
    requests
        .extend_from_slice(b"{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1,2],[2,3]]}\n");
    requests.extend_from_slice(b"{\"op\": \"lookup\", \"vertex\": 4}\n"); // 4 vertices: 0..4
    requests.extend_from_slice(&vec![b'{'; 2048]); // 2 KiB line under a 1 KiB cap
    requests.push(b'\n');
    requests.extend_from_slice(b"{\"op\": \"lookup\", \"vertex\": 3}\n");
    requests.extend_from_slice(b"{\"op\": \"shutdown\"}\n");
    stdin.write_all(&requests).unwrap();
    stdin.flush().unwrap();
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 5, "one response per request: {lines:#?}");
    assert!(
        lines[1].contains("\"ok\": false") && lines[1].contains("outside the session"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"ok\": false") && lines[2].contains("exceeds 1024 bytes"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].contains("\"part\":"),
        "session survived: {}",
        lines[3]
    );
    assert_eq!(lines[4], "{\"ok\": true, \"bye\": true}");

    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status}");
}

/// A `partition` request naming a file whose header declares more
/// vertices than `u32` ids can address is a structured refusal — the
/// parser rejects the count instead of the allocator aborting the daemon
/// — and the same session goes on to serve an inline `partition`.
#[test]
fn serve_stdio_refuses_a_hostile_vertex_count_and_keeps_serving() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "hyperpraw_serve_hostile_{}.hgr",
        std::process::id()
    ));
    std::fs::write(&path, "1 99999999999999\n1 2\n").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .arg("serve")
        .arg("--stdio")
        .arg("--data-dir")
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hyperpraw serve --stdio");

    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let path_json = path
        .display()
        .to_string()
        .replace('\\', "\\\\")
        .replace('"', "\\\"");
    let requests = format!(
        "{{\"op\": \"partition\", \"parts\": 2, \"path\": \"{path_json}\"}}\n\
         {{\"op\": \"partition\", \"parts\": 2, \"edges\": [[0,1,2],[2,3]]}}\n\
         {{\"op\": \"shutdown\"}}\n"
    );
    stdin.write_all(requests.as_bytes()).unwrap();
    stdin.flush().unwrap();
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.unwrap()).collect();
    std::fs::remove_file(&path).ok();
    assert_eq!(lines.len(), 3, "one response per request: {lines:#?}");
    assert!(
        lines[0].contains("\"ok\": false") && lines[0].contains("exceeds the u32 id space"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"ok\": true"), "{}", lines[1]);
    assert_eq!(lines[2], "{\"ok\": true, \"bye\": true}");

    let status = child.wait().unwrap();
    assert!(status.success(), "serve exited with {status}");
}

/// Serves `requests` over `serve --stdio` plus `args`; returns the reply
/// lines.
fn serve_stdio(args: &[&std::ffi::OsStr], requests: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .args(["serve", "--stdio"])
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hyperpraw serve --stdio");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(requests.as_bytes()).unwrap();
    drop(stdin);
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let lines = stdout.lines().map(|l| l.unwrap()).collect();
    assert!(child.wait().unwrap().success());
    lines
}

fn partition_path(path: &std::path::Path) -> String {
    let path = path
        .display()
        .to_string()
        .replace('\\', "\\\\")
        .replace('"', "\\\"");
    format!("{{\"op\": \"partition\", \"parts\": 2, \"path\": \"{path}\"}}\n")
}

/// `"path"` loads only from the `--data-dir` directory: without the flag
/// it is refused; with it, a file inside loads (absolute or relative),
/// while paths resolving outside — absolute, through `..`, or through a
/// symlink — are refused without saying whether the target exists.
#[test]
fn serve_confines_paths_to_the_data_dir() {
    let root = std::env::temp_dir().join(format!("hyperpraw_serve_confine_{}", std::process::id()));
    let data = root.join("data");
    std::fs::create_dir_all(&data).unwrap();
    let inside = data.join("ring.hgr");
    let outside = root.join("secret.hgr");
    for file in [&inside, &outside] {
        std::fs::write(file, "3 4\n1 2\n2 3\n3 4\n").unwrap();
    }
    let link = data.join("escape.hgr");
    #[cfg(unix)]
    std::os::unix::fs::symlink(&outside, &link).unwrap();

    let shutdown = "{\"op\": \"shutdown\"}\n";
    let lines = serve_stdio(&[], &format!("{}{shutdown}", partition_path(&inside)));
    assert!(
        lines[0].contains("\"ok\": false") && lines[0].contains("--data-dir"),
        "{}",
        lines[0]
    );

    let requests = [
        partition_path(&inside),
        partition_path(std::path::Path::new("ring.hgr")),
        partition_path(&outside),
        partition_path(&data.join("..").join("secret.hgr")),
        partition_path(&link),
        partition_path(&data.join("missing.hgr")),
    ]
    .concat();
    let lines = serve_stdio(
        &["--data-dir".as_ref(), data.as_os_str()],
        &format!("{requests}{shutdown}"),
    );
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(lines.len(), 7, "one response per request: {lines:#?}");
    for ok in &lines[..2] {
        assert!(ok.contains("\"ok\": true"), "{ok}");
    }
    for refused in &lines[2..6] {
        assert!(
            refused.contains("\"ok\": false") && refused.contains("inside the data directory"),
            "{refused}"
        );
    }
    assert_eq!(lines[6], "{\"ok\": true, \"bye\": true}");
}
