//! `simrank-serve` end to end as a process: the stdin REPL answers one JSON
//! line per request, repeats a cached answer byte for byte, and ends with
//! its final `stats` reply on stderr; contradictory flags exit 1 with a
//! message before the server touches a graph or a socket.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Runs the server with `args`, feeding `stdin` and closing it.
fn serve(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_simrank-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn simrank-serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    child.wait_with_output().expect("simrank-serve runs")
}

#[test]
fn stdin_repl_answers_repeats_from_cache_and_ends_with_the_stats_reply() {
    let output = serve(&["--ba", "200", "3"], "query 5\nquery 5\nstats\nquit\n");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(output.status.success(), "{stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains("\"scores\":["), "{stdout}");
    assert_eq!(lines[1], lines[0], "the repeat is a cache hit");
    assert!(
        lines[2].contains("\"queries\":2,\"cache_hits\":1"),
        "{stdout}"
    );

    // The final block is the same JSON line `stats` returns, not a second
    // rendering of it.
    let (header, last) = stderr
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or_else(|| panic!("no final stats: {stderr}"));
    assert!(header.ends_with("--- final stats ---"), "{stderr}");
    assert!(
        last.starts_with("{\"epoch\":0,") && last.ends_with('}'),
        "{stderr}"
    );
    assert!(last.contains("\"queries\":2,"), "{stderr}");
}

#[test]
fn contradictory_flags_exit_1_with_a_message() {
    for (args, message) in [
        (
            &["--shard-of", "127.0.0.1:1", "--paged"][..],
            "--shard-of fronts remote servers; graph, --data-dir, and --paged flags belong to them",
        ),
        (
            &["--addr-file", "f"][..],
            "--addr-file only makes sense with --listen",
        ),
    ] {
        let output = serve(args, "");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("simrank-serve: {message}"));
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
