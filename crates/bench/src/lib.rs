//! Experiment harness for the paper's tables and figures.
//!
//! Each binary in `src/bin/` regenerates one artifact of the evaluation
//! section (see `DESIGN.md` for the full index):
//!
//! * `fig1_blowup` — §1.3: state-elimination expression (†) vs SORE (‡);
//! * `table1` — Table 1 (Protein Sequence Database / Mondial elements);
//! * `table2` — Table 2 (sophisticated real-world expressions);
//! * `figure4` — Figure 4 (success fraction vs subsample size, CSV);
//! * `critical_size` — §8.2 (O(n) vs n² sample-size claims);
//! * `ablation` — rule order, the simplify post-pass, iDTD repair
//!   configuration;
//! * `perf_table` — §8.3 (wall-clock comparison, xtract crash point).
//!
//! End-to-end and per-layer performance is measured by the repository
//! benchmark, `perfbench/` (see its README).

use std::io::Write;
use std::time::{Duration, Instant};

/// Times one closure invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Writes a metrics snapshot as JSON to `target` — a file path, or `-` for
/// stdout — in the same form as the CLI's `--metrics`.
pub fn emit_metrics(snap: &dtdinfer_obs::MetricsSnapshot, target: &str) -> std::io::Result<()> {
    let json = snap.json();
    if target == "-" {
        let mut out = std::io::stdout().lock();
        out.write_all(json.as_bytes())?;
        out.write_all(b"\n")
    } else {
        std::fs::write(target, format!("{json}\n"))
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.0} µs", d.as_secs_f64() * 1e6)
    }
}

/// Truncates long expression renderings for table cells.
pub fn clip(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        return s.to_owned();
    }
    let prefix: String = s.chars().take(max.saturating_sub(1)).collect();
    format!("{prefix}…")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_behaviour() {
        assert_eq!(clip("short", 10), "short");
        assert_eq!(clip("0123456789abc", 6), "01234…");
    }

    #[test]
    fn fmt_duration_units() {
        assert!(fmt_duration(Duration::from_secs(2)).ends_with(" s"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with(" ms"));
        assert!(fmt_duration(Duration::from_micros(7)).ends_with(" µs"));
    }
}
