//! Golden-output regression tests: the DTD and XSD inferred from the
//! shipped book catalogs are pinned byte-for-byte against
//! `testdata/golden/`, for the sequential path and every `--jobs` count.
//!
//! These files were produced by the pre-streaming extractor (unbounded
//! sample collection, owned parser events); the streaming pipeline must
//! reproduce them exactly.

use std::path::PathBuf;
use std::process::Command;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// The XML files of a shipped corpus, sorted for a stable argument order.
fn corpus(dir: &str) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(repo_path(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().path().to_str().unwrap().to_owned())
        .filter(|p| p.ends_with(".xml"))
        .collect();
    files.sort();
    files
}

/// The shipped book catalogs, sorted for a stable argument order.
fn testdata() -> Vec<String> {
    corpus("testdata/books")
}

fn infer_files(files: &[String], extra: &[&str]) -> Vec<u8> {
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_dtdinfer"))
        .args([&["infer"][..], extra, &refs].concat())
        .output()
        .expect("spawn dtdinfer");
    assert!(
        out.status.success(),
        "infer {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn infer(extra: &[&str]) -> Vec<u8> {
    infer_files(&testdata(), extra)
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(repo_path("testdata/golden").join(name))
        .unwrap_or_else(|e| panic!("testdata/golden/{name}: {e}"))
}

#[test]
fn idtd_dtd_matches_golden_for_every_job_count() {
    let expected = golden("books.idtd.dtd");
    assert_eq!(infer(&[]), expected, "sequential");
    for jobs in ["1", "2", "4", "8"] {
        assert_eq!(infer(&["--jobs", jobs]), expected, "--jobs {jobs}");
    }
}

#[test]
fn crx_dtd_matches_golden_for_every_job_count() {
    let expected = golden("books.crx.dtd");
    assert_eq!(infer(&["--engine", "crx"]), expected, "sequential");
    for jobs in ["1", "4"] {
        assert_eq!(
            infer(&["--engine", "crx", "--jobs", jobs]),
            expected,
            "--jobs {jobs}"
        );
    }
}

#[test]
fn idtd_xsd_matches_golden_for_every_job_count() {
    let expected = golden("books.idtd.xsd");
    assert_eq!(infer(&["--xsd"]), expected, "sequential");
    for jobs in ["1", "2", "4", "8"] {
        assert_eq!(infer(&["--xsd", "--jobs", jobs]), expected, "--jobs {jobs}");
    }
}

#[test]
fn kore_dtd_matches_golden_for_every_job_count() {
    let expected = golden("books.kore.dtd");
    assert_eq!(infer(&["--engine", "kore"]), expected, "sequential");
    for jobs in ["1", "2", "4", "8"] {
        assert_eq!(
            infer(&["--engine", "kore", "--jobs", jobs]),
            expected,
            "--jobs {jobs}"
        );
    }
}

#[test]
fn auto_dtd_matches_golden_for_every_job_count() {
    let expected = golden("books.auto.dtd");
    assert_eq!(infer(&["--engine", "auto"]), expected, "sequential");
    for jobs in ["1", "2", "4", "8"] {
        assert_eq!(
            infer(&["--engine", "auto", "--jobs", jobs]),
            expected,
            "--jobs {jobs}"
        );
    }
}

/// The repeating-children corpus in `testdata/kore/` is where the k-ORE
/// engine earns its keep: iDTD can only answer `(chorus | verse)+`, while
/// kore (and auto, via the MDL chooser) recover `(chorus, verse, chorus?)`.
/// Each engine's output is pinned byte-for-byte across every job count
/// *and* across document permutations — ingestion order must not matter.
#[test]
fn kore_corpus_matches_golden_across_jobs_and_permutations() {
    let files = corpus("testdata/kore");
    let mut reversed = files.clone();
    reversed.reverse();
    for engine in ["idtd", "kore", "auto"] {
        let expected = golden(&format!("songs.{engine}.dtd"));
        assert_eq!(
            infer_files(&files, &["--engine", engine]),
            expected,
            "{engine} sequential"
        );
        for jobs in ["1", "2", "4", "8"] {
            assert_eq!(
                infer_files(&files, &["--engine", engine, "--jobs", jobs]),
                expected,
                "{engine} --jobs {jobs}"
            );
        }
        assert_eq!(
            infer_files(&reversed, &["--engine", engine, "--jobs", "4"]),
            expected,
            "{engine} reversed file order"
        );
    }
}

/// `--contextual` learns one model per `(parent, element)` context over a
/// name-sorted alphabet, so its schema and its XSD are pinned across
/// document permutations, like every other inference path.
#[test]
fn contextual_output_is_document_order_invariant() {
    let files = testdata();
    let mut reversed = files.clone();
    reversed.reverse();
    let interleaved: Vec<String> = files
        .iter()
        .skip(1)
        .step_by(2)
        .chain(files.iter().step_by(2))
        .cloned()
        .collect();
    for (extra, name) in [
        (&["--contextual"][..], "books.contextual.txt"),
        (&["--contextual", "--xsd"][..], "books.contextual.xsd"),
    ] {
        let expected = golden(name);
        for (order, files) in [
            ("forward", &files),
            ("reversed", &reversed),
            ("interleaved", &interleaved),
        ] {
            assert_eq!(infer_files(files, extra), expected, "{name}, {order}");
        }
    }
}

/// `stats --engine E` without its time column (the last two fields of
/// every line, as `awk '{NF-=2; print}'` drops them in CI).
fn stats_without_times(files: &[String], engine: &str) -> String {
    let refs: Vec<&str> = files.iter().map(String::as_str).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_dtdinfer"))
        .args([&["stats", "--engine", engine][..], &refs].concat())
        .output()
        .expect("spawn dtdinfer");
    assert!(
        out.status.success(),
        "stats --engine {engine} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("UTF-8 report")
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            format!("{}\n", fields[..fields.len().saturating_sub(2)].join(" "))
        })
        .collect()
}

/// The derivation behind each content model — engine verdict, rewrite
/// steps, repairs — is pinned too, not just the DTD it ends in.
#[test]
fn derivation_traces_match_stats_goldens() {
    for (corpus_name, dir) in [("books", "testdata/books"), ("songs", "testdata/kore")] {
        let files = corpus(dir);
        for engine in ["idtd", "kore", "auto"] {
            let name = format!("{corpus_name}.{engine}.stats");
            assert_eq!(
                stats_without_times(&files, engine),
                String::from_utf8(golden(&name)).unwrap(),
                "{name}"
            );
        }
    }
}
