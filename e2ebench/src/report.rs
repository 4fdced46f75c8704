//! Result bookkeeping shared by every workload: operation tallies, latency
//! percentiles, the quality arithmetic of the paper's precision contract, and
//! the one-line JSON result the benchmark prints last.

use std::fmt::Write as _;

/// Operations attempted and failed in one run.  A failed operation is one
/// whose output did not pass its correctness check (or that returned an
/// error); it still counts as attempted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Record one operation and whether its output passed every check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations over attempted ones (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `1 − error_rate`: the reported form, which is never 0 on a healthy
    /// run, so a regression shows as a relative drop.
    pub fn success_rate(&self) -> f64 {
        1.0 - self.error_rate()
    }
}

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank method.
/// `samples` need not be sorted.
///
/// # Panics
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Nearest rank of the `p`-th percentile among `n` samples, `⌈p·n/100⌉`,
/// with a tolerance so that e.g. 99.9 % of 10 000 is rank 9 990, not 9 991.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Median (the 50th percentile by nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Percentiles a tail metric may be named after, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it (`None` when even the median does not).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Number of the `n` samples that lie strictly beyond the nearest-rank
/// `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// A tail latency reported under a fixed percentile: the value, the sample
/// count, and whether that percentile was supported by the samples (at least
/// ten beyond it).  An unsupported tail is a failed check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub samples: usize,
    pub supported: bool,
}

/// The `p`-th percentile of `samples` as a [`Tail`].
pub fn tail(samples: &[f64], p: f64) -> Tail {
    Tail {
        value: percentile(samples, p),
        samples: samples.len(),
        supported: tail_percentile(samples.len()).is_some_and(|best| best >= p),
    }
}

/// A tail over `(time, value)` samples: the median of the `p`-th
/// percentiles of `windows` consecutive runs of samples in time order, each
/// of equal count (the last takes the remainder).  `samples` is the smallest
/// window's count; the tail is supported only when every window leaves ten
/// samples beyond `p`.
pub fn windowed_tail(samples: &[(f64, f64)], windows: usize, p: f64) -> Tail {
    let mut ordered = samples.to_vec();
    ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let windows = windows.max(1);
    let size = ordered.len() / windows;
    if size == 0 {
        return Tail {
            value: 0.0,
            samples: 0,
            supported: false,
        };
    }
    let per_window: Vec<Tail> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                ordered.len()
            } else {
                (w + 1) * size
            };
            let values: Vec<f64> = ordered[w * size..end].iter().map(|&(_, v)| v).collect();
            tail(&values, p)
        })
        .collect();
    let values: Vec<f64> = per_window.iter().map(|t| t.value).collect();
    Tail {
        value: median(&values),
        samples: size,
        supported: per_window.iter().all(|t| t.supported),
    }
}

/// `min(1, actual / τ)`: 1 while the join meets the precision target, the
/// attained share of τ when it falls short.  Recall gains that keep
/// precision at or above τ leave it at 1.
pub fn precision_attainment(tau: f64, actual: f64) -> f64 {
    if tau <= 0.0 {
        return 1.0;
    }
    (actual / tau).min(1.0)
}

/// `max(0, τ − actual)`: how far actual precision falls below the target.
pub fn precision_shortfall(tau: f64, actual: f64) -> f64 {
    (tau - actual).max(0.0)
}

/// `|estimated − actual|`: the error of the unsupervised precision estimate.
pub fn precision_est_error(estimated: f64, actual: f64) -> f64 {
    (estimated - actual).abs()
}

/// `1 − |estimated − actual|`: the reported form of the estimate error,
/// never 0 for precisions in `[0, 1]` that are not at opposite ends.
pub fn precision_calibration(estimated: f64, actual: f64) -> f64 {
    1.0 - precision_est_error(estimated, actual)
}

/// Whether `name` is a valid metric name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics and tallies of one run, in report order.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// Descriptions of the checks that failed, for the run's output.
    pub failed_checks: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a check that is not one of the workload's operations (replay
    /// equality, enough samples for a tail) as one more operation, keeping
    /// the description of a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok {
            self.failed_checks.push(what());
        }
    }

    /// How the reported metrics differ from `expected` `(name, unit)` pairs:
    /// each expected metric missing or in another unit, and each unexpected
    /// one.  Empty when they match.
    pub fn mismatches(&self, expected: &[(&str, &str)]) -> Vec<String> {
        let mut out: Vec<String> = expected
            .iter()
            .filter(|&&(name, unit)| {
                !self
                    .metrics
                    .iter()
                    .any(|m| m.name == name && m.unit == unit)
            })
            .map(|(name, unit)| format!("missing {name} ({unit})"))
            .collect();
        out.extend(
            self.metrics
                .iter()
                .filter(|m| !expected.iter().any(|&(name, _)| name == m.name))
                .map(|m| format!("unexpected {}", m.name)),
        );
        out
    }

    /// Whether at least one operation ran and every one passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics` (`{"name": {"value": v, "unit": u}}`).
    ///
    /// # Panics
    /// Panics on an invalid or repeated metric name or a non-finite value —
    /// both are bugs in the benchmark, not in the measured program.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
        )
        .expect("write to String");
        let mut seen = std::collections::HashSet::new();
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(
                valid_metric_name(m.name),
                "invalid metric name {:?}",
                m.name
            );
            assert!(seen.insert(m.name), "metric {:?} reported twice", m.name);
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20usize, 40, 57, 100, 200, 1000, 5000, 10_000] {
            let p = tail_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_reports_samples_and_support() {
        let xs: Vec<f64> = (0..150).map(f64::from).collect();
        let t = tail(&xs, 90.0);
        assert_eq!(t.samples, 150);
        assert!(t.supported);
        assert_eq!(t.value, 134.0);
        let t = tail(&xs[..99], 90.0);
        assert_eq!(t.samples, 99);
        assert!(
            !t.supported,
            "90th percentile of 99 samples has 9 beyond it"
        );
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // Three 1-second windows of 100 samples; the middle one has a burst.
        let mut xs = Vec::new();
        for w in 0..3 {
            for i in 0..100 {
                let v = if w == 1 { 1000.0 } else { f64::from(i) };
                xs.push((f64::from(w) + f64::from(i) / 100.0, v));
            }
        }
        xs.reverse();
        let t = windowed_tail(&xs, 3, 90.0);
        assert_eq!(t.samples, 100);
        assert!(t.supported);
        assert_eq!(t.value, 89.0, "the burst window is outvoted");
        let t = windowed_tail(&xs, 4, 90.0);
        assert_eq!(t.samples, 75);
        assert!(!t.supported, "75 samples leave fewer than ten beyond p90");
        assert!(!windowed_tail(&[], 2, 50.0).supported);
    }

    #[test]
    fn precision_contract_arithmetic() {
        assert_eq!(precision_shortfall(0.9, 0.95), 0.0);
        assert!((precision_shortfall(0.9, 0.85) - 0.05).abs() < 1e-12);
        assert_eq!(precision_attainment(0.9, 0.95), 1.0);
        assert!((precision_attainment(0.9, 0.81) - 0.9).abs() < 1e-12);
        assert!((precision_est_error(0.908, 0.975) - 0.067).abs() < 1e-12);
        assert!((precision_est_error(0.975, 0.908) - 0.067).abs() < 1e-12);
        assert!((precision_calibration(0.912, 0.936) - 0.976).abs() < 1e-12);
        assert_eq!(precision_attainment(0.0, 0.0), 1.0);
    }

    #[test]
    fn tally_counts_errors() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.error_rate(), 0.25);
        assert_eq!(t.success_rate(), 0.75);
        let mut u = Tally::default();
        u.record(false);
        t.merge(u);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(t.error_rate(), 0.4);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["learn_s", "block.total_s", "pool.cpu_s", "a-b", "0x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn report_json_has_the_result_keys() {
        let mut r = Report::default();
        r.tally.record(true);
        r.metric("learn_s", 1.25, "s");
        r.metric("recall", 0.8, "ratio");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"learn_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"recall\": {\"value\": 0.8, \"unit\": \"ratio\"}}}"
        );
        r.check(false, || "replay differs".to_string());
        assert!(!r.correct());
        assert!(r.to_json().contains("\"failed\": 1"));
    }

    #[test]
    fn mismatches_name_missing_and_unexpected_metrics() {
        let mut r = Report::default();
        r.metric("learn_s", 1.0, "s");
        r.metric("recall", 0.8, "count");
        r.metric("extra", 1.0, "s");
        assert_eq!(
            r.mismatches(&[("learn_s", "s"), ("recall", "ratio"), ("setup_s", "s")]),
            [
                "missing recall (ratio)",
                "missing setup_s (s)",
                "unexpected extra"
            ]
        );
        assert!(r
            .mismatches(&[("learn_s", "s"), ("recall", "count"), ("extra", "s")])
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn report_rejects_duplicate_names() {
        let mut r = Report::default();
        r.metric("x", 1.0, "s");
        r.metric("x", 2.0, "s");
        let _ = r.to_json();
    }
}
