//! End-to-end tests of the sharded engine through the CLI: `--jobs`
//! byte-identity on the shipped testdata and the snapshot
//! save → update → load workflow.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dtdinfer"))
}

/// The shipped book catalogs, sorted for a stable argument order.
fn testdata() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../testdata/books");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("testdata/books")
        .map(|e| e.unwrap().path().to_str().unwrap().to_owned())
        .filter(|p| p.ends_with(".xml"))
        .collect();
    files.sort();
    assert!(files.len() >= 4, "expected several catalogs, got {files:?}");
    files
}

fn run(args: &[&str]) -> Output {
    let out = bin().args(args).output().expect("spawn dtdinfer");
    assert!(
        out.status.success(),
        "dtdinfer {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn run_err(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("spawn dtdinfer");
    assert!(
        !out.status.success(),
        "dtdinfer {args:?} unexpectedly passed"
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch directory unique to this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtdinfer-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn jobs_output_is_byte_identical_for_every_worker_count() {
    let files = testdata();
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let baseline = run(&[&["infer"][..], &refs].concat()).stdout;
    assert!(!baseline.is_empty());
    for jobs in ["1", "2", "4", "8"] {
        let sharded = run(&[&["infer", "--jobs", jobs][..], &refs].concat()).stdout;
        assert_eq!(sharded, baseline, "--jobs {jobs}");
    }
    // The XSD path (datatypes from the facts corpus) must agree too.
    let xsd = run(&[&["infer", "--xsd"][..], &refs].concat()).stdout;
    let xsd4 = run(&[&["infer", "--xsd", "--jobs", "4"][..], &refs].concat()).stdout;
    assert_eq!(xsd4, xsd);
}

#[test]
fn jobs_byte_identity_holds_for_every_engine() {
    let files = testdata();
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    for engine in ["crx", "idtd", "idtd-noise:2"] {
        let baseline = run(&[&["infer", "--engine", engine][..], &refs].concat()).stdout;
        let sharded =
            run(&[&["infer", "--engine", engine, "--jobs", "4"][..], &refs].concat()).stdout;
        assert_eq!(sharded, baseline, "--engine {engine}");
    }
}

#[test]
fn snapshot_save_update_load_equals_one_shot() {
    let files = testdata();
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let dir = scratch("snapshot");
    let snap = dir.join("state.snap");
    let snap = snap.to_str().unwrap();

    let (first, rest) = refs.split_at(refs.len() / 2);
    run(&[
        &["snapshot", "save", "--out", snap, "--jobs", "2"][..],
        first,
    ]
    .concat());
    run(&[&["snapshot", "update", "--jobs", "3", snap][..], rest].concat());

    let one_shot = run(&[&["infer"][..], &refs].concat()).stdout;
    let from_snap = run(&["snapshot", "load", snap]).stdout;
    assert_eq!(from_snap, one_shot);

    let one_shot_xsd = run(&[&["infer", "--xsd"][..], &refs].concat()).stdout;
    let from_snap_xsd = run(&["snapshot", "load", "--xsd", snap]).stdout;
    assert_eq!(from_snap_xsd, one_shot_xsd);

    // Snapshots are canonical: re-saving the same corpus in one shot gives
    // the same bytes as the two-step save + update.
    let snap2 = dir.join("oneshot.snap");
    let snap2 = snap2.to_str().unwrap();
    run(&[&["snapshot", "save", "--out", snap2][..], &refs].concat());
    assert_eq!(std::fs::read(snap).unwrap(), std::fs::read(snap2).unwrap());
}

#[test]
fn snapshot_save_decodes_character_references_of_any_length() {
    let dir = scratch("charref");
    let doc = dir.join("doc.xml");
    std::fs::write(
        &doc,
        r#"<r a="&#0000000000065;" b="&#65;" c="x&#0;y">t</r>"#,
    )
    .unwrap();
    let snap = dir.join("refs.snap");
    let snap = snap.to_str().unwrap();
    run(&["snapshot", "save", "--out", snap, doc.to_str().unwrap()]);
    let text = std::fs::read_to_string(snap).unwrap();
    let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("av ")).collect();
    // A reference to NUL is not an XML character: it stays literal, so no
    // NUL byte reaches the snapshot.
    assert_eq!(rows, ["av a A 1", "av b A 1", "av c x&#0;y 1"]);
}

#[test]
fn corrupted_and_future_snapshots_are_rejected() {
    let dir = scratch("reject");
    let bad = dir.join("bad.snap");
    std::fs::write(&bad, "this is not a snapshot\n").unwrap();
    let err = run_err(&["snapshot", "load", bad.to_str().unwrap()]);
    assert!(err.contains("not a dtdinfer engine snapshot"), "{err}");

    let future = dir.join("future.snap");
    std::fs::write(&future, "#dtdinfer-engine v99\ndocuments 1\n").unwrap();
    let err = run_err(&["snapshot", "load", future.to_str().unwrap()]);
    assert!(err.contains("unsupported snapshot version"), "{err}");
    assert!(err.contains("this build reads v3, v4, and v5"), "{err}");

    // v2 files have no child-word rows, the only records models come from.
    let v2 = dir.join("v2.snap");
    std::fs::write(&v2, "#dtdinfer-engine v2\ndocuments 1\n").unwrap();
    let err = run_err(&["snapshot", "load", v2.to_str().unwrap()]);
    assert!(err.contains("rebuild it from its documents"), "{err}");
}

#[test]
fn snapshots_naming_an_element_without_a_section_are_rejected() {
    // Loading this file would print `<!ELEMENT r (a, b)>` and never
    // declare `a` or `b`.
    let dir = scratch("orphan");
    let orphan = dir.join("orphan.snap");
    std::fs::write(
        &orphan,
        "#dtdinfer-engine v5\ndocuments 1\nroot r 1\nelement r\noccurrences 1\nw 1 a b\n",
    )
    .unwrap();
    let out = bin()
        .args(["snapshot", "load", orphan.to_str().unwrap()])
        .output()
        .expect("spawn dtdinfer");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no DTD for a rejected snapshot");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("element \"a\""), "{err}");
}

#[test]
fn jobs_rejects_incompatible_flags() {
    let files = testdata();
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let err = run_err(&[&["infer", "--jobs", "2", "--contextual"][..], &refs].concat());
    assert!(err.contains("--contextual"), "{err}");
    let err = run_err(&[&["infer", "--jobs", "0"][..], &refs].concat());
    assert!(err.contains("--jobs"), "{err}");
}

#[test]
fn numeric_xsd_is_identical_with_and_without_jobs() {
    // The engine retains counted child-sequence multisets, so numeric
    // tightening works on the sharded path and must be byte-identical to
    // the sequential corpus path.
    let files = testdata();
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let sequential = run(&[&["infer", "--xsd", "--numeric", "2"][..], &refs].concat()).stdout;
    for jobs in ["1", "2", "4"] {
        let sharded = run(&[
            &["infer", "--jobs", jobs, "--xsd", "--numeric", "2"][..],
            &refs,
        ]
        .concat())
        .stdout;
        assert_eq!(sharded, sequential, "jobs {jobs}");
    }
}

#[test]
fn stats_jobs_reports_shards_and_merge_time() {
    let files = testdata();
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let out = run(&[&["stats", "--jobs", "2"][..], &refs].concat());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("shard 0:"), "{text}");
    assert!(text.contains("word(s)"), "{text}");
    assert!(text.contains("shard merge"), "{text}");
}

#[test]
fn stats_jobs_prints_a_per_worker_utilization_table() {
    let files = testdata();
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let out = run(&[&["stats", "--jobs", "3"][..], &refs].concat());
    let text = String::from_utf8_lossy(&out.stdout);
    let header = text
        .lines()
        .find(|l| l.starts_with("worker"))
        .unwrap_or_else(|| panic!("no worker table header: {text}"));
    for col in ["documents", "busy", "wall", "idle polls", "util"] {
        assert!(header.contains(col), "missing column {col}: {header}");
    }
    // One row per worker, each ending in a percentage.
    let rows: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("worker"))
        .skip(1)
        .take_while(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .collect();
    assert_eq!(rows.len(), 3, "one row per worker: {text}");
    for row in rows {
        assert!(row.trim_end().ends_with('%'), "utilization column: {row}");
    }
}

/// Drops a trailing `<number> <unit>` time column from a report line, so
/// tables can be compared across runs whose wall-clock times differ.
fn strip_time_column(line: &str) -> String {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    match tokens.as_slice() {
        [head @ .., value, unit]
            if matches!(*unit, "ns" | "µs" | "ms" | "s")
                && value.chars().all(|c| c.is_ascii_digit() || c == '.') =>
        {
            head.join(" ")
        }
        _ => tokens.join(" "),
    }
}

#[test]
fn stats_derivation_table_is_identical_for_every_worker_count() {
    let files = testdata();
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    // The derivation table (everything up to the document summary line),
    // times stripped, must not depend on the worker count: sharding may
    // change the timings but never what was derived.
    let table = |jobs: &str| -> Vec<String> {
        let out = run(&[&["stats", "--jobs", jobs][..], &refs].concat());
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let mut lines = Vec::new();
        for line in text.lines() {
            let done = line.contains("document(s)");
            lines.push(strip_time_column(line));
            if done {
                return lines;
            }
        }
        panic!("no summary line in stats output: {text}");
    };
    let baseline = table("1");
    assert!(baseline.len() > 2, "table has rows: {baseline:?}");
    for jobs in ["2", "4", "8"] {
        assert_eq!(table(jobs), baseline, "--jobs {jobs}");
    }
}

#[test]
fn parse_errors_name_the_failing_file_deterministically() {
    let dir = scratch("badxml");
    let good = dir.join("good.xml");
    let bad = dir.join("z-bad.xml");
    let worse = dir.join("a-worse.xml");
    std::fs::write(&good, "<r><a/></r>").unwrap();
    std::fs::write(&bad, "<r><a></r>").unwrap();
    std::fs::write(&worse, "<r><b></r>").unwrap();
    // The first broken file on the command line is reported, wherever
    // the two land among the workers.
    let mut files = vec![good.to_str().unwrap(); 40];
    files[13] = bad.to_str().unwrap();
    files[29] = worse.to_str().unwrap();
    for jobs in ["1", "2", "3", "8"] {
        let mut args = vec!["infer", "--jobs", jobs];
        args.extend(&files);
        let err = run_err(&args);
        assert!(err.contains("z-bad.xml"), "--jobs {jobs}: {err}");
        assert!(!err.contains("a-worse.xml"), "--jobs {jobs}: {err}");
    }
}
