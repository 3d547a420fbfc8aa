//! `rescli` as a pipeline stage: when the reader of its standard output
//! goes away early (`rescli solve ... | head -1`), a one-shot command stops
//! quietly instead of panicking.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_solve_quietly() {
    // Every tuple of `A` is a witness of `A(x)`, so the contingency line of
    // 20000 tuples alone is far larger than a pipe buffer: rescli is still
    // writing when the reader leaves.
    let dir = std::env::temp_dir().join(format!("rescli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("big.db");
    let text: String = (0..20_000).map(|i| format!("A({i})\n")).collect();
    std::fs::write(&db, text).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_rescli"))
        .args(["solve", "A(x)", db.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("query"), "first line: {first}");
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert!(!stderr.contains("panicked"), "rescli panicked: {stderr}");
    assert!(status.success(), "exit status {status}, stderr: {stderr}");
}
