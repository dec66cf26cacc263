//! End-to-end tests for the always-on observability pipeline surface of
//! the `dtdinfer` binary: OpenMetrics exposition, timeseries snapshots,
//! the `profile` subcommand, and the `omlint` exposition validator.
//! Every test spawns a fresh process, so the process-global registry is
//! never shared between tests.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dtdinfer"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dtdinfer");
    child
        .stdin
        .as_mut()
        .expect("piped")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dtdinfer-obs-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The book catalogs shipped in testdata/, as CLI arguments.
fn corpus_files() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/books");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("testdata/books exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "xml"))
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "testdata corpus must not be empty");
    files
}

#[test]
fn stats_emits_valid_openmetrics_that_omlint_accepts() {
    let mut args = vec![
        "stats".to_owned(),
        "--jobs".to_owned(),
        "4".to_owned(),
        "--metrics".to_owned(),
        "-".to_owned(),
        "--metrics-format".to_owned(),
        "openmetrics".to_owned(),
    ];
    args.extend(corpus_files());
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, ok) = run_with_stdin(&argv, "");
    assert!(ok, "stats failed: {stderr}");

    // The exposition is the final block: everything from the first
    // `# TYPE` line through the mandatory `# EOF` terminator.
    let start = stdout
        .find("# TYPE ")
        .unwrap_or_else(|| panic!("no exposition in output: {stdout}"));
    let exposition = &stdout[start..];
    assert!(
        exposition.trim_end().ends_with("# EOF"),
        "exposition must end with # EOF: {exposition}"
    );
    assert!(
        exposition.contains("engine_documents"),
        "counters must be sanitized to OpenMetrics names: {exposition}"
    );
    // Histogram summaries surface as gauges with quantile-ish suffixes.
    assert!(
        exposition.contains("# TYPE"),
        "families need TYPE metadata: {exposition}"
    );

    // The binary's own linter is the acceptance check CI uses.
    let (lint_out, lint_err, lint_ok) = run_with_stdin(&["omlint", "-"], exposition);
    assert!(lint_ok, "omlint rejected our own exposition: {lint_err}");
    assert!(
        lint_out.starts_with("OK:"),
        "unexpected omlint output: {lint_out}"
    );
}

#[test]
fn metrics_format_requires_metrics_flag() {
    let mut args = vec![
        "stats".to_owned(),
        "--metrics-format".to_owned(),
        "openmetrics".to_owned(),
    ];
    args.extend(corpus_files().into_iter().take(1));
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (_, stderr, ok) = run_with_stdin(&argv, "");
    assert!(!ok);
    assert!(
        stderr.contains("--metrics-format requires --metrics"),
        "unexpected error: {stderr}"
    );
}

#[test]
fn timeseries_interval_requires_timeseries_flag() {
    let mut args = vec![
        "stats".to_owned(),
        "--timeseries-interval".to_owned(),
        "5".to_owned(),
    ];
    args.extend(corpus_files().into_iter().take(1));
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (_, stderr, ok) = run_with_stdin(&argv, "");
    assert!(!ok);
    assert!(
        stderr.contains("--timeseries-interval requires --timeseries"),
        "unexpected error: {stderr}"
    );
}

#[test]
fn timeseries_file_captures_the_run_as_parseable_json() {
    let dir = tempdir();
    let ts_path = dir.join("run.timeseries.json");
    let mut args = vec![
        "stats".to_owned(),
        "--jobs".to_owned(),
        "2".to_owned(),
        "--timeseries".to_owned(),
        ts_path.to_string_lossy().into_owned(),
        "--timeseries-interval".to_owned(),
        "1".to_owned(),
    ];
    args.extend(corpus_files());
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (_, stderr, ok) = run_with_stdin(&argv, "");
    assert!(ok, "stats failed: {stderr}");

    let text = std::fs::read_to_string(&ts_path).expect("timeseries file written");
    let parsed = dtdinfer_obs::json::Value::parse(text.trim()).expect("timeseries JSON parses");
    let obj = parsed.as_obj().expect("object");
    assert_eq!(
        obj.get("interval_ms")
            .and_then(dtdinfer_obs::json::Value::as_u64),
        Some(1)
    );
    let points = obj["points"].as_arr().expect("points array");
    assert!(!points.is_empty(), "stop() must flush a final snapshot");
    // The final point carries the full document count for the corpus.
    let last = points.last().unwrap().as_obj().unwrap();
    let counters = last["counters"].as_obj().unwrap();
    assert_eq!(
        counters
            .get("engine.documents")
            .and_then(dtdinfer_obs::json::Value::as_u64),
        Some(corpus_files().len() as u64)
    );
    std::fs::remove_file(&ts_path).ok();
}

#[test]
fn profile_prints_critical_path_and_writes_folded_stacks() {
    let dir = tempdir();
    let folded = dir.join("books.folded");
    let mut args = vec![
        "profile".to_owned(),
        "--jobs".to_owned(),
        "2".to_owned(),
        "--top".to_owned(),
        "3".to_owned(),
        "--folded".to_owned(),
        folded.to_string_lossy().into_owned(),
    ];
    args.extend(corpus_files());
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, ok) = run_with_stdin(&argv, "");
    assert!(ok, "profile failed: {stderr}");

    assert!(stdout.contains("critical path"), "missing table: {stdout}");
    assert!(
        stdout.contains("phases by self time"),
        "missing table: {stdout}"
    );
    assert!(stdout.contains("top 3 elements"), "missing table: {stdout}");
    // The derivation wrapper span must be on the critical path of a
    // profile run — it dominates the post-ingest wall clock.
    assert!(stdout.contains("derive"), "derive span absent: {stdout}");

    let stacks = std::fs::read_to_string(&folded).expect("folded stacks written");
    assert!(!stacks.trim().is_empty(), "folded stacks must be non-empty");
    for line in stacks.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("`frames value` shape");
        assert!(stack.starts_with("tid"), "stack must be tid-rooted: {line}");
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad value in {line}"));
    }
    std::fs::remove_file(&folded).ok();
}

#[test]
fn profile_reports_the_allocator_exactly_when_the_binary_counts() {
    let dir = tempdir();
    let folded = dir.join("alloc.folded");
    let mut args = vec![
        "profile".to_owned(),
        "--folded".to_owned(),
        folded.to_string_lossy().into_owned(),
    ];
    args.extend(corpus_files());
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, ok) = run_with_stdin(&argv, "");
    assert!(ok, "profile failed: {stderr}");
    let line = stdout.lines().find(|l| l.starts_with("allocator:"));
    if cfg!(feature = "alloc-count") {
        let line = line.unwrap_or_else(|| panic!("no allocator line: {stdout}"));
        assert!(!line.contains("total 0 byte(s)"), "all-zero: {line}");
    } else {
        // Without its own counting allocator the binary has nothing to
        // report; an all-zero line would be a false measurement.
        assert_eq!(line, None, "{stdout}");
    }
    std::fs::remove_file(&folded).ok();
}

#[test]
fn metrics_carry_allocator_gauges_exactly_when_the_binary_counts() {
    let mut args = vec!["infer".to_owned(), "--metrics".to_owned(), "-".to_owned()];
    args.extend(corpus_files());
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (stdout, stderr, ok) = run_with_stdin(&argv, "");
    assert!(ok, "infer failed: {stderr}");
    let metrics = stdout.lines().last().expect("metrics line");
    assert_eq!(
        metrics.contains("\"alloc."),
        cfg!(feature = "alloc-count"),
        "{metrics}"
    );
}

#[test]
fn profile_without_inputs_fails() {
    let (_, stderr, ok) = run_with_stdin(&["profile"], "");
    assert!(!ok);
    assert!(stderr.contains("no input files"), "unexpected: {stderr}");
}

#[test]
fn omlint_rejects_garbage_and_non_monotone_allocator_counters() {
    let (_, stderr, ok) = run_with_stdin(&["omlint", "-"], "this is not an exposition\n");
    assert!(!ok);
    assert!(
        stderr.contains("invalid exposition"),
        "unexpected: {stderr}"
    );

    // Structurally valid exposition whose allocator counters are
    // impossible (live above peak) must be rejected too.
    let bogus = "\
# TYPE alloc_live_bytes gauge\n\
alloc_live_bytes 100\n\
# TYPE alloc_peak_bytes gauge\n\
alloc_peak_bytes 50\n\
# EOF\n";
    let (_, stderr, ok) = run_with_stdin(&["omlint", "-"], bogus);
    assert!(!ok);
    assert!(
        stderr.contains("not monotone"),
        "expected monotonicity failure: {stderr}"
    );
}

#[test]
fn help_documents_the_observability_surface() {
    let (stdout, _, ok) = run_with_stdin(&["--help"], "");
    assert!(ok);
    for needle in [
        "profile",
        "omlint",
        "--metrics-format",
        "--timeseries",
        "--timeseries-interval",
    ] {
        assert!(stdout.contains(needle), "help is missing {needle}");
    }
}
