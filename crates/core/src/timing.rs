//! Lightweight phase-timing harness for the join pipeline.
//!
//! The single-column driver and the greedy search wrap their stages in
//! [`scoped`] guards; each guard adds its elapsed wall-clock time to a fixed
//! process-global slot for its [`Phase`].  [`snapshot`] then reports the
//! accumulated per-phase seconds (and entry counts), which `bench_smoke`
//! surfaces as the `phases` section of the `BENCH_*.json` trajectory — so
//! the perf record says *where* the time goes, not just the total.
//!
//! Design constraints:
//!
//! * **Near-zero overhead.**  One `Instant::now()` pair and one relaxed
//!   atomic add per phase entry; phases are entered a handful of times per
//!   join (the greedy sub-phases once per round), so the harness costs
//!   microseconds against a multi-second pipeline.
//! * **No effect on results.**  Timing is observational only; nothing in the
//!   pipeline reads it, so enabling or resetting it can never perturb the
//!   byte-determinism contract.
//! * **Process-global.**  Accumulators are atomics, so phases entered from
//!   pool workers (none today — phases wrap the *orchestration* points, which
//!   run on the driving thread) would still aggregate safely.
//!
//! Callers that want a per-run breakdown (`bench_smoke`) call [`reset`]
//! before the run and [`snapshot`] after.

use autofj_block::BlockingStats;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The named stages of the single-column pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Record preparation: pre-processing, interning, embeddings
    /// (`PreparedColumn::build` via the oracle).
    Prepare,
    /// Blocking over the interned q-gram index (L–L and L–R).
    Block,
    /// Negative-rule learning and candidate filtering (Algorithm 2).
    NegativeRules,
    /// Distance + precision pre-computation (Algorithm 1, lines 3–4).
    Precompute,
    /// Pre-compute share spent in the bit-parallel / banded edit kernels.
    PrecomputeEdit,
    /// Pre-compute share spent in the Jaro-Winkler kernels.
    PrecomputeJaro,
    /// Pre-compute share spent in the merge-walk set kernels.
    PrecomputeSet,
    /// Pre-compute share spent in the containment-hybrid kernels.
    PrecomputeHybrid,
    /// Pre-compute share spent in the embedding-distance kernels.
    PrecomputeEmbed,
    /// Greedy rounds: (re-)scoring candidate deltas against the current
    /// assignment.
    GreedyScore,
    /// Greedy rounds: profit argmax over the scored frontier.
    GreedyArgmax,
    /// Greedy rounds: applying the selected configuration, resolving
    /// conflicting assignments (§3.1).
    ConflictResolve,
    /// Assembling the user-facing `JoinResult`.
    Assemble,
}

/// All phases, in execution order (also the slot order of the accumulators).
/// The `precompute/<family>` phases are nested inside `precompute`: they
/// break the same wall-clock span down by kernel family (the breakdown only
/// accumulates on the sequential large-table path, where it is well-defined).
pub const ALL_PHASES: [Phase; 13] = [
    Phase::Prepare,
    Phase::Block,
    Phase::NegativeRules,
    Phase::Precompute,
    Phase::PrecomputeEdit,
    Phase::PrecomputeJaro,
    Phase::PrecomputeSet,
    Phase::PrecomputeHybrid,
    Phase::PrecomputeEmbed,
    Phase::GreedyScore,
    Phase::GreedyArgmax,
    Phase::ConflictResolve,
    Phase::Assemble,
];

impl Phase {
    /// Stable snake-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Prepare => "prepare",
            Phase::Block => "block",
            Phase::NegativeRules => "negative_rules",
            Phase::Precompute => "precompute",
            Phase::PrecomputeEdit => "precompute/edit",
            Phase::PrecomputeJaro => "precompute/jaro",
            Phase::PrecomputeSet => "precompute/set",
            Phase::PrecomputeHybrid => "precompute/hybrid",
            Phase::PrecomputeEmbed => "precompute/embed",
            Phase::GreedyScore => "greedy_round/score",
            Phase::GreedyArgmax => "greedy_round/argmax",
            Phase::ConflictResolve => "conflict_resolve",
            Phase::Assemble => "assemble",
        }
    }

    fn slot(&self) -> usize {
        match self {
            Phase::Prepare => 0,
            Phase::Block => 1,
            Phase::NegativeRules => 2,
            Phase::Precompute => 3,
            Phase::PrecomputeEdit => 4,
            Phase::PrecomputeJaro => 5,
            Phase::PrecomputeSet => 6,
            Phase::PrecomputeHybrid => 7,
            Phase::PrecomputeEmbed => 8,
            Phase::GreedyScore => 9,
            Phase::GreedyArgmax => 10,
            Phase::ConflictResolve => 11,
            Phase::Assemble => 12,
        }
    }
}

const NUM_PHASES: usize = ALL_PHASES.len();

static NANOS: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];
static ENTRIES: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];

/// RAII guard returned by [`scoped`]: accumulates the elapsed time of its
/// phase on drop.
pub struct PhaseGuard {
    slot: usize,
    start: Instant,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        NANOS[self.slot].fetch_add(nanos, Ordering::Relaxed);
        ENTRIES[self.slot].fetch_add(1, Ordering::Relaxed);
    }
}

/// Time the enclosing scope as `phase` (until the returned guard drops).
#[must_use = "the phase is timed until the guard is dropped"]
pub fn scoped(phase: Phase) -> PhaseGuard {
    PhaseGuard {
        slot: phase.slot(),
        start: Instant::now(),
    }
}

/// Zero every accumulator (start of a measured run), including the blocking
/// candidate-set statistics.
pub fn reset() {
    for slot in 0..NUM_PHASES {
        NANOS[slot].store(0, Ordering::Relaxed);
        ENTRIES[slot].store(0, Ordering::Relaxed);
    }
    for slot in &BLOCKING_STATS {
        slot.store(0, Ordering::Relaxed);
    }
    BLOCKING_RECORDED.store(false, Ordering::Relaxed);
}

/// Candidate-set statistics of the blocking phase, as carried on the
/// `BENCH_*.json` trajectory.  Every counter is an exact integer total over
/// probes, identical at any thread count, so the fields gate like the
/// quality metrics do (the derived `reduction_ratio` gates with a float
/// epsilon).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CandidateStats {
    /// L–R candidate pairs kept by blocking.
    pub lr_pairs: u64,
    /// L–L candidate pairs kept by blocking (self excluded).
    pub ll_pairs: u64,
    /// Largest candidate list kept for any single probe record.
    pub per_probe_max: u64,
    /// Records admitted for exact scoring across all probes — the superset
    /// the prefix/length filters could not prune.
    pub scored_records: u64,
    /// Posting entries actually walked by the probes.
    pub postings_scanned: u64,
    /// Posting entries an unfiltered scan would have walked.
    pub postings_total: u64,
    /// `1 − postings_scanned / postings_total`: the fraction of index
    /// traversal the filters pruned away (0 when filters are off or nothing
    /// was probed).
    pub reduction_ratio: f64,
}

// Slot order: lr_pairs, ll_pairs, per_probe_max, scored_records,
// postings_scanned, postings_total.
static BLOCKING_STATS: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];
static BLOCKING_RECORDED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Record the candidate-set statistics of a blocking run.  Counters
/// *accumulate* over calls (a pipeline blocks once, but multi-column joins
/// may block per column); `per_probe_max` accumulates as a max.
pub fn record_blocking_stats(stats: &BlockingStats) {
    BLOCKING_STATS[0].fetch_add(stats.lr_pairs, Ordering::Relaxed);
    BLOCKING_STATS[1].fetch_add(stats.ll_pairs, Ordering::Relaxed);
    BLOCKING_STATS[2].fetch_max(stats.per_probe_max, Ordering::Relaxed);
    BLOCKING_STATS[3].fetch_add(stats.scored_records, Ordering::Relaxed);
    BLOCKING_STATS[4].fetch_add(stats.postings_scanned, Ordering::Relaxed);
    BLOCKING_STATS[5].fetch_add(stats.postings_total, Ordering::Relaxed);
    BLOCKING_RECORDED.store(true, Ordering::Relaxed);
}

/// The blocking candidate-set statistics accumulated since the last
/// [`reset`], or `None` if no blocking run recorded any.
pub fn blocking_stats() -> Option<CandidateStats> {
    if !BLOCKING_RECORDED.load(Ordering::Relaxed) {
        return None;
    }
    let load = |slot: usize| BLOCKING_STATS[slot].load(Ordering::Relaxed);
    let (scanned, total) = (load(4), load(5));
    let reduction_ratio = if total == 0 || scanned >= total {
        0.0
    } else {
        1.0 - scanned as f64 / total as f64
    };
    Some(CandidateStats {
        lr_pairs: load(0),
        ll_pairs: load(1),
        per_probe_max: load(2),
        scored_records: load(3),
        postings_scanned: scanned,
        postings_total: total,
        reduction_ratio,
    })
}

/// Accumulated time of one phase, as reported by [`snapshot`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PhaseTiming {
    /// Stable phase name (see [`Phase::name`]).
    pub phase: String,
    /// Total wall-clock seconds accumulated by the phase.
    pub seconds: f64,
    /// Number of times the phase was entered (e.g. greedy rounds).
    pub entries: u64,
}

/// Read the accumulated per-phase timings, in pipeline order.  Phases that
/// were never entered are included with zero time so report consumers see a
/// stable schema.
pub fn snapshot() -> Vec<PhaseTiming> {
    ALL_PHASES
        .iter()
        .map(|p| PhaseTiming {
            phase: p.name().to_string(),
            seconds: NANOS[p.slot()].load(Ordering::Relaxed) as f64 / 1e9,
            entries: ENTRIES[p.slot()].load(Ordering::Relaxed),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The accumulators are process-global and libtest runs tests in
    // parallel, so these tests only assert *relative* effects of their own
    // guards (other tests of this crate do enter phases concurrently).

    #[test]
    fn scoped_guard_accumulates_time_and_entries() {
        let before: Vec<_> = snapshot();
        {
            let _g = scoped(Phase::Precompute);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let after = snapshot();
        let slot = Phase::Precompute.slot();
        assert!(after[slot].seconds >= before[slot].seconds + 0.001);
        assert!(after[slot].entries > before[slot].entries);
    }

    #[test]
    fn snapshot_has_stable_schema_in_pipeline_order() {
        let snap = snapshot();
        assert_eq!(snap.len(), ALL_PHASES.len());
        let names: Vec<&str> = snap.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "prepare",
                "block",
                "negative_rules",
                "precompute",
                "precompute/edit",
                "precompute/jaro",
                "precompute/set",
                "precompute/hybrid",
                "precompute/embed",
                "greedy_round/score",
                "greedy_round/argmax",
                "conflict_resolve",
                "assemble"
            ]
        );
    }

    #[test]
    fn blocking_stats_accumulate_and_derive_reduction() {
        // No reset here (global state, parallel tests): assert relative
        // effects only.
        let before = blocking_stats().unwrap_or_default();
        record_blocking_stats(&BlockingStats {
            lr_pairs: 10,
            ll_pairs: 5,
            per_probe_max: 7,
            scored_records: 40,
            postings_scanned: 100,
            postings_total: 400,
        });
        let after = blocking_stats().expect("stats were recorded");
        assert!(after.lr_pairs >= before.lr_pairs + 10);
        assert!(after.ll_pairs >= before.ll_pairs + 5);
        assert!(after.per_probe_max >= 7);
        assert!(after.scored_records >= before.scored_records + 40);
        assert!(after.postings_scanned >= before.postings_scanned + 100);
        assert!(after.postings_total >= before.postings_total + 400);
        assert!((0.0..=1.0).contains(&after.reduction_ratio));
        if after.postings_total > 0 && after.postings_scanned < after.postings_total {
            let expect = 1.0 - after.postings_scanned as f64 / after.postings_total as f64;
            assert!((after.reduction_ratio - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn phase_slots_are_distinct_and_dense() {
        let mut seen = std::collections::HashSet::new();
        for p in ALL_PHASES {
            assert!(seen.insert(p.slot()));
        }
        assert_eq!(seen.len(), ALL_PHASES.len());
    }
}
