//! The fuzz driver: generate → sample → infer → check → reduce → persist.
//!
//! Fully deterministic for a given `(seed, cases)` pair: per-case seeds
//! are derived with a splitmix64 step, shapes rotate in a fixed order, and
//! the report contains no timing, so two runs with the same seed are
//! byte-identical (the `--time-budget` escape hatch trades that away).

use crate::corpus::CaseFile;
use crate::oracle::{check_case, CaseResult, OracleOptions, PlantedBug, Violation, ORACLES};
use crate::reduce::reduce;
use crate::schema::{random_dtd, Shape, SHAPES};
use dtdinfer_regex::sample::SampleConfig;
use dtdinfer_xml::dtd::Dtd;
use dtdinfer_xml::generate::{sample_documents, GenerateConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Most violations to keep verbatim in the report (counters are exact).
const MAX_DETAILS: usize = 50;

/// Most reduced regression files to persist per run.
const MAX_PERSISTED: usize = 16;

/// Corpus sizes exercised per coverage level: tiny samples stress the
/// repair path, large ones the Theorem 5 recovery path.
const COVERAGE_LEVELS: [usize; 4] = [2, 6, 25, 90];

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: usize,
    /// Optional wall-clock budget; the run stops early (and is no longer
    /// run-to-run byte-identical) when exceeded.
    pub time_budget: Option<Duration>,
    /// Where reduced failing cases are persisted.
    pub corpus_dir: PathBuf,
    /// Hidden: inject a known-wrong oracle (reducer testing).
    pub planted: Option<PlantedBug>,
    /// Optional engine focus. `kore`/`auto` restrict the shape rotation to
    /// repeating-symbol grammars (the inputs where those engines differ
    /// from iDTD); `crx`/`idtd` keep the full rotation. The oracle battery
    /// always runs in full — the focus only steers *generation*.
    pub engine: Option<String>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            cases: 100,
            time_budget: None,
            corpus_dir: PathBuf::from("fuzz/corpus"),
            planted: None,
            engine: None,
        }
    }
}

/// The outcome of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Master seed (echoed for the report header).
    pub seed: u64,
    /// Cases requested.
    pub cases_requested: usize,
    /// Cases actually run (less than requested only under a time budget).
    pub cases_run: usize,
    /// Whether the time budget stopped the run early.
    pub stopped_early: bool,
    /// Per-oracle: in how many cases the oracle ran.
    pub checked: BTreeMap<&'static str, u64>,
    /// Per-oracle violation counts.
    pub violations: BTreeMap<&'static str, u64>,
    /// The first violations (up to `MAX_DETAILS`, 50), verbatim.
    pub details: Vec<(usize, Violation)>,
    /// Regression files written under the corpus directory.
    pub persisted: Vec<String>,
}

impl FuzzReport {
    /// Total violations across all oracles.
    pub fn total_violations(&self) -> u64 {
        self.violations.values().sum()
    }

    /// Renders the deterministic report table (no timing, stable order).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "fuzz: seed {}, {} case(s) requested, {} run\n",
            self.seed, self.cases_requested, self.cases_run
        );
        if self.stopped_early {
            out.push_str("fuzz: time budget exhausted before all cases ran\n");
        }
        out.push_str(&format!(
            "{:<28} {:>8} {:>11}\n",
            "oracle", "checked", "violations"
        ));
        for name in ORACLES {
            out.push_str(&format!(
                "{:<28} {:>8} {:>11}\n",
                name,
                self.checked.get(name).copied().unwrap_or(0),
                self.violations.get(name).copied().unwrap_or(0)
            ));
        }
        for (case, v) in &self.details {
            out.push_str(&format!("case {case}: [{}] {}\n", v.oracle, v.detail));
        }
        for f in &self.persisted {
            out.push_str(&format!("reduced regression written: {f}\n"));
        }
        out.push_str(&format!(
            "fuzz: {} case(s), {} violation(s)\n",
            self.cases_run,
            self.total_violations()
        ));
        out
    }
}

/// One splitmix64 step — the per-case seed derivation.
fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the fuzz driver.
pub fn run(cfg: &FuzzConfig) -> Result<FuzzReport, String> {
    let started = Instant::now();
    let mut report = FuzzReport {
        seed: cfg.seed,
        cases_requested: cfg.cases,
        ..FuzzReport::default()
    };
    let opts = OracleOptions {
        planted: cfg.planted,
        only: None,
    };
    // The engine focus narrows *generation* only: kore/auto cases are
    // interesting exactly on grammars that repeat symbols, so a focused
    // run spends its whole budget there instead of one case in seven.
    let shapes: &[Shape] = match cfg.engine.as_deref() {
        None | Some("crx") | Some("idtd") => &SHAPES[..],
        Some("kore") | Some("auto") => &[Shape::RepeatedSymbols],
        Some(other) => return Err(format!("unknown fuzz engine focus {other:?}")),
    };
    for case_index in 0..cfg.cases {
        if let Some(budget) = cfg.time_budget {
            if started.elapsed() > budget {
                report.stopped_early = true;
                break;
            }
        }
        let _span = dtdinfer_obs::span("fuzz.case");
        report.cases_run += 1;
        // Progress heartbeat: the timeseries stall detector watches this
        // counter, so a wedged oracle shows up as a stall warning.
        dtdinfer_obs::count("fuzz.cases", 1);
        let case_seed = splitmix(cfg.seed, case_index as u64);
        let mut rng = StdRng::seed_from_u64(case_seed);
        let shape = shapes[case_index % shapes.len()];
        let target = random_dtd(rng.gen_range(0..u64::MAX), shape);
        let n_docs = COVERAGE_LEVELS[rng.gen_range(0..COVERAGE_LEVELS.len())];
        let gen_cfg = GenerateConfig {
            words: SampleConfig {
                opt_prob: rng.gen_range(0.2..0.8),
                repeat_prob: rng.gen_range(0.2..0.6),
                max_repeat: 3,
            },
            text_variety: 40,
        };
        let docs = match sample_documents(&target, &gen_cfg, rng.gen_range(0..u64::MAX), n_docs) {
            Ok(docs) => docs,
            Err(e) => {
                // The generator itself must accept every target we build.
                bump(&mut report.checked, "corpus.generate", 1);
                bump(&mut report.violations, "corpus.generate", 1);
                record_details(
                    &mut report,
                    case_index,
                    &[Violation {
                        oracle: "corpus.generate",
                        detail: e.to_string(),
                    }],
                );
                continue;
            }
        };
        bump(&mut report.checked, "corpus.generate", 1);
        dtdinfer_obs::observe("fuzz.case.docs", docs.len() as u64);
        let result = check_case(Some(&target), &docs, &opts);
        absorb_case(&mut report, case_index, &result);
        if !result.violations.is_empty() {
            persist_reductions(cfg, &mut report, case_index, &target, &docs, &result)?;
        }
    }
    for name in ORACLES {
        dtdinfer_obs::count_labeled(
            "fuzz.checked",
            name,
            report.checked.get(name).copied().unwrap_or(0),
        );
        let violations = report.violations.get(name).copied().unwrap_or(0);
        if violations > 0 {
            dtdinfer_obs::count_labeled("fuzz.violations", name, violations);
        }
    }
    Ok(report)
}

fn bump(map: &mut BTreeMap<&'static str, u64>, key: &'static str, by: u64) {
    *map.entry(key).or_insert(0) += by;
}

fn absorb_case(report: &mut FuzzReport, case_index: usize, result: &CaseResult) {
    for name in &result.checked {
        bump(&mut report.checked, name, 1);
    }
    for v in &result.violations {
        bump(&mut report.violations, v.oracle, 1);
    }
    record_details(report, case_index, &result.violations);
}

fn record_details(report: &mut FuzzReport, case_index: usize, violations: &[Violation]) {
    for v in violations {
        if report.details.len() < MAX_DETAILS {
            report.details.push((case_index, v.clone()));
        }
    }
}

/// Reduces each distinct failing oracle of a case and persists the result
/// as a replayable regression file.
fn persist_reductions(
    cfg: &FuzzConfig,
    report: &mut FuzzReport,
    case_index: usize,
    target: &Dtd,
    docs: &[String],
    result: &CaseResult,
) -> Result<(), String> {
    let mut seen: Vec<&'static str> = Vec::new();
    for v in &result.violations {
        if seen.contains(&v.oracle) || report.persisted.len() >= MAX_PERSISTED {
            continue;
        }
        seen.push(v.oracle);
        let oracle = v.oracle;
        let predicate_opts = OracleOptions {
            planted: cfg.planted,
            only: Some(oracle),
        };
        let reduced = reduce(docs, |candidate| {
            check_case(Some(target), candidate, &predicate_opts).failed(oracle)
        });
        let case_file = CaseFile {
            seed: cfg.seed,
            case: case_index,
            oracle: oracle.to_owned(),
            target: target.serialize(),
            docs: reduced,
        };
        std::fs::create_dir_all(&cfg.corpus_dir)
            .map_err(|e| format!("{}: {e}", cfg.corpus_dir.display()))?;
        let path = cfg.corpus_dir.join(case_file.file_name());
        std::fs::write(&path, case_file.render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.persisted.push(path.display().to_string());
    }
    Ok(())
}

/// Replays a persisted case file: re-runs the full oracle battery (no
/// planted bugs) on its target and documents.
pub fn replay_file(text: &str) -> Result<(CaseFile, CaseResult), String> {
    let case = CaseFile::parse(text)?;
    let target = if case.target.is_empty() {
        None
    } else {
        Some(Dtd::parse(&case.target).map_err(|e| format!("case target: {e}"))?)
    };
    let result = check_case(target.as_ref(), &case.docs, &OracleOptions::default());
    Ok((case, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dtdinfer-fuzz-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_run_finds_no_violations_and_is_deterministic() {
        let cfg = FuzzConfig {
            seed: 7,
            cases: 18,
            corpus_dir: tempdir("clean"),
            ..FuzzConfig::default()
        };
        let a = run(&cfg).unwrap();
        assert_eq!(a.total_violations(), 0, "{}", a.render_text());
        assert_eq!(a.cases_run, 18);
        assert!(a.persisted.is_empty());
        let b = run(&cfg).unwrap();
        assert_eq!(a.render_text(), b.render_text());
        let _ = std::fs::remove_dir_all(&cfg.corpus_dir);
    }

    #[test]
    fn kore_focus_runs_repeated_symbol_grammars_cleanly() {
        let cfg = FuzzConfig {
            seed: 11,
            cases: 12,
            corpus_dir: tempdir("kore-focus"),
            engine: Some("kore".to_owned()),
            ..FuzzConfig::default()
        };
        let report = run(&cfg).unwrap();
        assert_eq!(report.total_violations(), 0, "{}", report.render_text());
        assert_eq!(report.cases_run, 12);
        // The kore-specific oracles must actually have run.
        for oracle in ["membership.kore", "ordering.kore-within-idtd"] {
            assert!(
                report.checked.get(oracle).copied().unwrap_or(0) > 0,
                "{oracle} never ran:\n{}",
                report.render_text()
            );
        }
        let _ = std::fs::remove_dir_all(&cfg.corpus_dir);
    }

    #[test]
    fn unknown_engine_focus_is_rejected() {
        let cfg = FuzzConfig {
            engine: Some("bogus".to_owned()),
            corpus_dir: tempdir("bogus-engine"),
            ..FuzzConfig::default()
        };
        assert!(run(&cfg).is_err());
        let _ = std::fs::remove_dir_all(&cfg.corpus_dir);
    }

    #[test]
    fn splitmix_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            assert!(seen.insert(splitmix(42, i)));
        }
    }

    #[test]
    fn planted_bug_is_reduced_persisted_and_replayable() {
        let dir = tempdir("planted");
        let cfg = FuzzConfig {
            seed: 42,
            cases: 6,
            corpus_dir: dir.clone(),
            planted: Some(PlantedBug::RepeatedSibling),
            ..FuzzConfig::default()
        };
        let report = run(&cfg).unwrap();
        assert!(
            report
                .violations
                .get("membership.idtd")
                .copied()
                .unwrap_or(0)
                > 0,
            "planted bug must fire within the batch:\n{}",
            report.render_text()
        );
        assert!(!report.persisted.is_empty());
        for path in &report.persisted {
            let text = std::fs::read_to_string(path).unwrap();
            let (case, result) = replay_file(&text).unwrap();
            // The reducer must shrink to a tiny corpus…
            assert!(
                case.docs.len() <= 3,
                "reduced corpus too large: {} docs in {path}",
                case.docs.len()
            );
            // …and with the planted bug off, the replay is clean (the
            // "bug" lives in the checker, not the pipeline).
            assert!(
                result.violations.is_empty(),
                "replay of {path}: {:?}",
                result.violations
            );
        }
        // Determinism: a second run persists byte-identical files.
        let dir2 = tempdir("planted2");
        let cfg2 = FuzzConfig {
            corpus_dir: dir2.clone(),
            ..cfg.clone()
        };
        let report2 = run(&cfg2).unwrap();
        assert_eq!(report.persisted.len(), report2.persisted.len());
        for (a, b) in report.persisted.iter().zip(&report2.persisted) {
            assert_eq!(
                std::fs::read_to_string(a).unwrap(),
                std::fs::read_to_string(b).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn time_budget_stops_early() {
        let cfg = FuzzConfig {
            seed: 1,
            cases: 10_000,
            time_budget: Some(Duration::from_millis(50)),
            corpus_dir: tempdir("budget"),
            ..FuzzConfig::default()
        };
        let report = run(&cfg).unwrap();
        assert!(report.stopped_early);
        assert!(report.cases_run < 10_000);
        let _ = std::fs::remove_dir_all(&cfg.corpus_dir);
    }
}
