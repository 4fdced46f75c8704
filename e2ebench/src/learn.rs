//! The single-column learn part of each workload: `medium` (dense blocking
//! probe) and `large_ref` (filtered blocking probe).
//!
//! The untraced run times `AutoFuzzyJoin::join` end to end.  The traced run
//! replays the same join one layer at a time through each crate's public
//! entry points — prepare, block, negative rules, pre-compute, greedy — times
//! every stage from outside, checks that the replay reproduces the join, and
//! then re-measures the blocking probes and the distance kernels in
//! isolation.

use crate::report::{self, Report};
use crate::{nproc, timed, Args};
use autofj_block::{Blocker, BlockingOutput, GramIndex, ProbeScratch};
use autofj_core::estimate::Precompute;
use autofj_core::greedy::{run_greedy, GreedyOutcome};
use autofj_core::oracle::SingleColumnOracle;
use autofj_core::timing;
use autofj_core::{AutoFjOptions, AutoFuzzyJoin, InternedRuleSet, JoinResult, Table};
use autofj_datagen::{medium_smoke_spec, DomainSpec, Family, PerturbationMix, SingleColumnTask};
use autofj_eval::{evaluate_assignment, profile_tables};
use autofj_text::kernel::{
    plan_kernel_groups, with_scratch, DistanceKernel, GroupKernel, KernelFamily,
};
use autofj_text::prepared::scheme_index;
use autofj_text::{JoinFunctionSpace, PreparedColumn, Preprocessing, Tokenization};
use rayon::prelude::*;
use std::hint::black_box;

/// One single-column workload: its generated task and the options it runs
/// under.
pub struct Workload {
    task: SingleColumnTask,
    options: AutoFjOptions,
    /// Whether the blocker must take the filtered probe path on this input.
    expect_filtered: bool,
}

/// The medium smoke task (10 304 × 10 500 TeamSeason) under default options;
/// seed 0 is the committed baseline's task.
fn medium(seed: u64) -> Workload {
    let mut spec = medium_smoke_spec();
    spec.seed ^= seed;
    Workload {
        task: spec.generate(),
        options: AutoFjOptions::default(),
        expect_filtered: false,
    }
}

/// A TeamSeason reference table just above the filtered-probe crossover
/// (⌈36 000 · 0.92⌉ = 33 120 rows) with a small query table, under the large
/// tier's β = 0.25: the large tier's blocking path and quality regime at a
/// fraction of its cost.
fn large_ref(seed: u64) -> Workload {
    let spec = DomainSpec {
        name: "TeamSeasonLargeRef".to_string(),
        family: Family::TeamSeason,
        num_entities: 36_000,
        left_coverage: 0.92,
        num_right: 3_000,
        mix: PerturbationMix::balanced(),
        seed: 0xA07F_A00E ^ seed,
    };
    Workload {
        task: spec.generate(),
        options: AutoFjOptions {
            blocking_factor: 0.25,
            ..AutoFjOptions::default()
        },
        expect_filtered: true,
    }
}

/// Build the named workload's single-column task from the seed and print
/// its description.
pub fn workload(args: &Args) -> Workload {
    let w = match args.workload.as_str() {
        "medium" => medium(args.seed),
        "large_ref" => large_ref(args.seed),
        other => unreachable!("not a workload: {other}"),
    };
    describe_inputs(args, &w);
    w
}

/// The search space every learn workload uses (the bench trajectory's).
pub fn space() -> JoinFunctionSpace {
    JoinFunctionSpace::reduced24()
}

/// Print the input description line and enforce the probe-path invariant:
/// a workload that lands on the wrong side of the blocker's crossover no
/// longer measures what it claims to, so the run stops without a result.
fn describe_inputs(args: &Args, w: &Workload) {
    let t = &w.task;
    let blocker = w.options.blocker();
    let engaged = blocker.filters_engaged(t.left.len());
    let profile = profile_tables(&[&t.left], &[&t.right], &t.ground_truth);
    println!(
        "e2ebench: inputs {{\"workload\": \"{}\", \"part\": \"single\", \"seed\": {}, \"left\": {}, \"right\": {}, \
         \"candidates_per_record\": {}, \"filters_engaged\": {}, \"profile\": {}}}",
        args.workload,
        args.seed,
        t.left.len(),
        t.right.len(),
        blocker.candidates_per_record(t.left.len()),
        engaged,
        serde_json::to_string(&profile).expect("profile serializes"),
    );
    if engaged != w.expect_filtered {
        eprintln!(
            "e2ebench: {} has {} reference rows, which puts it {} Blocker::FILTER_MIN_LEFT ({}); \
             the workload no longer exercises the probe path it is defined for",
            args.workload,
            t.left.len(),
            if engaged { "at or above" } else { "below" },
            Blocker::FILTER_MIN_LEFT
        );
        std::process::exit(3);
    }
}

/// Whether a join result is well-formed for `num_left × num_right` inputs:
/// one assignment slot per right record, every left index in range, and the
/// joined pairs exactly the assigned slots.
pub fn well_formed(res: &JoinResult, num_left: usize, num_right: usize) -> bool {
    res.assignment.len() == num_right
        && res.assignment.iter().flatten().all(|&l| l < num_left)
        && res.pairs.len() == res.assignment.iter().flatten().count()
        && res
            .pairs
            .iter()
            .all(|p| p.right < num_right && res.assignment[p.right] == Some(p.left))
}

/// Actual precision, relative recall and estimated precision of a result.
pub struct Quality {
    pub precision: f64,
    pub recall: f64,
    pub estimated: f64,
}

impl Quality {
    pub fn of(res: &JoinResult, ground_truth: &[Option<usize>]) -> Self {
        let q = evaluate_assignment(&res.assignment, ground_truth);
        Quality {
            precision: q.precision,
            recall: q.recall_relative,
            estimated: res.estimated_precision,
        }
    }

    /// Print the quality line, with the shortfall and estimate error.
    pub fn print(&self, tau: f64) {
        println!(
            "e2ebench: quality recall={} precision={} estimated_precision={} \
             precision_shortfall={} precision_est_error={}",
            self.recall,
            self.precision,
            self.estimated,
            report::precision_shortfall(tau, self.precision),
            report::precision_est_error(self.estimated, self.precision),
        );
    }

    /// Print the quality line and add the recall, precision attainment and
    /// precision calibration metrics under `names`, in that order.
    pub fn report(&self, tau: f64, names: [&'static str; 3], r: &mut Report) {
        self.print(tau);
        r.metric(names[0], self.recall, "ratio");
        r.metric(
            names[1],
            report::precision_attainment(tau, self.precision),
            "ratio",
        );
        r.metric(
            names[2],
            report::precision_calibration(self.estimated, self.precision),
            "ratio",
        );
    }
}

/// Set-up of a learn run: input tables and joiner.  There is no pool to
/// warm: the pool is sized once in `main`, and its workers are spawned per
/// parallel region, so a warm-up region would leave nothing behind and only
/// add thread-spawn jitter to the measurement.
pub fn setup(w: &Workload) -> (Table, Table, AutoFuzzyJoin) {
    let left = Table::from_strings("reference", w.task.left.iter().cloned());
    let right = Table::from_strings("queries", w.task.right.iter().cloned());
    let joiner = AutoFuzzyJoin::builder()
        .space(space())
        .options(w.options.clone())
        .build();
    (left, right, joiner)
}

/// Learn the task once; report `learn_s` and the result's quality.  One
/// learn of either task is tens of seconds on two cores, so the run's
/// `--seconds` go to the serving part.
pub fn measure(
    w: &Workload,
    (left, right, joiner): &(Table, Table, AutoFuzzyJoin),
    r: &mut Report,
) {
    let (res, learn_s) = timed(|| joiner.join(left, right));
    r.tally.record(well_formed(&res, left.len(), right.len()));
    r.metric("learn_s", learn_s, "s");
    Quality::of(&res, &w.task.ground_truth).report(
        w.options.precision_target,
        ["recall", "precision_attainment", "precision_calibration"],
        r,
    );
}

/// Whether a staged greedy outcome reproduces `reference`: the same
/// assignment, the same configurations in the same order, and the same
/// estimated precision, bit for bit.
pub fn replay_matches(
    space: &JoinFunctionSpace,
    outcome: &GreedyOutcome,
    reference: &JoinResult,
) -> bool {
    let assignment: Vec<Option<usize>> = outcome
        .assignment
        .iter()
        .map(|a| a.map(|a| a.left as usize))
        .collect();
    let configs_match = outcome.selected.len() == reference.program.configs.len()
        && outcome
            .selected
            .iter()
            .zip(&reference.program.configs)
            .all(|(c, rc)| {
                space.functions()[c.function] == rc.function
                    && (c.threshold as f64).to_bits() == rc.threshold.to_bits()
            });
    assignment == reference.assignment
        && configs_match
        && outcome.estimated_precision().to_bits() == reference.estimated_precision.to_bits()
}

/// Pool counters over one call: process CPU seconds, parallel work and span
/// seconds, and parallel regions.
pub struct PoolUse {
    pub cpu_s: f64,
    pub work_s: f64,
    pub span_s: f64,
    pub regions: u64,
}

/// Run `f` with the pool's counters reset, returning its result and usage.
pub fn with_pool_counters<R>(f: impl FnOnce() -> R) -> (R, PoolUse) {
    rayon::reset_engine_stats();
    let cpu0 = rayon::process_cpu_nanos();
    let out = f();
    let cpu = rayon::process_cpu_nanos().saturating_sub(cpu0) as f64 / 1e9;
    let e = rayon::engine_stats();
    (
        out,
        PoolUse {
            cpu_s: cpu,
            work_s: e.parallel_work_seconds,
            span_s: e.parallel_span_seconds,
            regions: e.parallel_regions,
        },
    )
}

impl PoolUse {
    pub fn report(&self, r: &mut Report) {
        r.metric("pool.cpu_s", self.cpu_s, "s");
        r.metric("pool.work_s", self.work_s, "s");
        r.metric("pool.span_s", self.span_s, "s");
        r.metric("pool.regions", self.regions as f64, "count");
    }
}

/// Ground-truth `(left, right)` pairs of a task.
fn truth_pairs(task: &SingleColumnTask) -> Vec<(usize, usize)> {
    task.ground_truth
        .iter()
        .enumerate()
        .filter_map(|(r, gt)| gt.map(|l| (l, r)))
        .collect()
}

/// Number of `pairs` whose left is among `candidates[right]`.
fn surviving(pairs: &[(usize, usize)], candidates: &[Vec<usize>]) -> usize {
    pairs
        .iter()
        .filter(|&&(l, r)| candidates[r].contains(&l))
        .count()
}

fn total_pairs(lists: &[Vec<usize>]) -> usize {
    lists.iter().map(Vec::len).sum()
}

/// Traced run of the single-column part: the staged replay, the isolated
/// blocking probes and the distance kernels.
pub fn traced(w: &Workload, r: &mut Report) {
    let space = space();
    let opts = &w.options;
    let (left, right, joiner) = setup(w);
    let (nl, nr) = (left.len(), right.len());

    // Untraced reference join: the end-to-end time the stages add up to.
    let (reference, pool) = with_pool_counters(|| timed(|| joiner.join(&left, &right)));
    let (reference, learn_s) = reference;
    r.tally.record(well_formed(&reference, nl, nr));

    // Staged replay, one layer at a time.
    let (oracle, prepare_s) =
        timed(|| SingleColumnOracle::build(space.functions(), left.values(), right.values()));
    let col = oracle.column();
    let (blocking, block_s) = timed(|| opts.blocker().block_prepared(col, nl));
    let si = scheme_index(Preprocessing::LowerStemRemovePunct, Tokenization::Space);
    let word_sets: Vec<&[u32]> = (0..col.len())
        .map(|i| col.record(i).token_sets[si].as_slice())
        .collect();
    let (rules, rules_learn_s) =
        timed(|| InternedRuleSet::learn(&word_sets[..nl], &blocking.left_candidates_of_left));
    let (filtered, rules_filter_s) = timed(|| {
        (0..nr)
            .into_par_iter()
            .map(|q| {
                blocking.left_candidates_of_right[q]
                    .iter()
                    .copied()
                    .filter(|&l| !rules.forbids(word_sets[l], word_sets[nl + q]))
                    .collect::<Vec<usize>>()
            })
            .collect::<Vec<_>>()
    });
    let (pre, precompute_s) = timed(|| {
        Precompute::build(
            &oracle,
            &filtered,
            &blocking.left_candidates_of_left,
            opts.num_thresholds,
        )
    });
    timing::reset();
    let (outcome, greedy_s) = timed(|| run_greedy(&pre, opts));
    let phases = timing::snapshot();
    let phase = |name: &str| {
        phases
            .iter()
            .find(|p| p.phase == name)
            .map_or((0.0, 0), |p| (p.seconds, p.entries))
    };
    let (score_s, rounds) = phase("greedy_round/score");
    let staged_s = prepare_s + block_s + rules_learn_s + rules_filter_s + precompute_s + greedy_s;
    let replay_ok = replay_matches(&space, &outcome, &reference);
    r.check(replay_ok, || {
        "staged replay differs from AutoFuzzyJoin::join".to_string()
    });

    // Blocking layer in isolation: index build and the two probes.
    let (probe_ok, probes) = block_layers(col, nl, opts.blocker(), &blocking);
    r.check(probe_ok, || {
        "isolated probes differ from block_prepared".to_string()
    });

    // Distance kernels per family over every blocked pair.
    let kernels = kernel_layers(
        col,
        &space,
        nl,
        &filtered,
        &blocking.left_candidates_of_left,
    );

    let truth = truth_pairs(&w.task);
    let blocked_truth = surviving(&truth, &blocking.left_candidates_of_right);
    let filtered_truth = surviving(&truth, &filtered);
    let lr_blocked = total_pairs(&blocking.left_candidates_of_right);
    let lr_filtered = total_pairs(&filtered);
    let ll_kept: usize = pre
        .functions
        .iter()
        .map(|f| f.ll_sorted.iter().map(Vec::len).sum::<usize>())
        .sum();

    r.metric("trace.overhead_ratio", staged_s / learn_s, "ratio");
    r.metric("text.prepare_s", prepare_s, "s");
    for (family, secs) in &kernels.seconds {
        r.metric(family, *secs, "s");
    }
    r.metric("text.kernel_pairs", kernels.pairs as f64, "count");
    let stats = blocking.stats;
    r.metric("block.total_s", block_s, "s");
    r.metric("block.index_build_s", probes.index_build_s, "s");
    r.metric("block.lr_probe_s", probes.lr_probe_s, "s");
    r.metric("block.ll_probe_s", probes.ll_probe_s, "s");
    r.metric(
        "block.postings_scanned",
        stats.postings_scanned as f64,
        "count",
    );
    r.metric("block.scored_records", stats.scored_records as f64, "count");
    // Postings walked over those an unfiltered scan walks: 1 on the dense
    // path, the filters' remaining share on the filtered one.
    r.metric(
        "block.scanned_share",
        1.0 - stats.reduction_ratio(),
        "ratio",
    );
    r.metric(
        "block.true_pair_recall",
        blocked_truth as f64 / truth.len().max(1) as f64,
        "ratio",
    );
    r.metric(
        "block.true_pair_share",
        blocked_truth as f64 / lr_blocked.max(1) as f64,
        "ratio",
    );
    r.metric("rules.learn_s", rules_learn_s, "s");
    r.metric("rules.filter_s", rules_filter_s, "s");
    r.metric("rules.count", rules.len() as f64, "count");
    r.metric(
        "rules.pairs_removed",
        (lr_blocked - lr_filtered) as f64,
        "count",
    );
    r.metric(
        "rules.true_pair_survival",
        filtered_truth as f64 / blocked_truth.max(1) as f64,
        "ratio",
    );
    r.metric("estimate.precompute_s", precompute_s, "s");
    r.metric("estimate.lr_pairs", lr_filtered as f64, "count");
    r.metric("estimate.ll_pairs", ll_kept as f64, "count");
    r.metric(
        "estimate.candidate_configs",
        pre.num_candidate_configs() as f64,
        "count",
    );
    r.metric("greedy.search_s", greedy_s, "s");
    r.metric("greedy.score_s", score_s, "s");
    r.metric("greedy.rounds", rounds as f64, "count");
    r.metric(
        "greedy.configs_selected",
        outcome.selected.len() as f64,
        "count",
    );
    pool.report(r);
}

/// Isolated blocking-layer timings.
struct ProbeTimes {
    index_build_s: f64,
    lr_probe_s: f64,
    ll_probe_s: f64,
}

/// Rebuild the gram index and re-run both probes the way `block_prepared`
/// does — the filtered probe exactly when the blocker engages it — timing
/// each, and check the candidate lists equal `blocking`'s.
fn block_layers(
    col: &PreparedColumn,
    nl: usize,
    blocker: Blocker,
    blocking: &BlockingOutput,
) -> (bool, ProbeTimes) {
    let si = scheme_index(Preprocessing::Lower, Tokenization::Gram3);
    let sets: Vec<&[u32]> = (0..col.len())
        .map(|i| col.record(i).token_sets[si].as_slice())
        .collect();
    let num_grams = col.vocab(Preprocessing::Lower, Tokenization::Gram3).len();
    let (index, index_build_s) = timed(|| GramIndex::from_id_sets(&sets[..nl], num_grams));
    let k = blocker.candidates_per_record(nl);
    let filtered = blocker.filters_engaged(nl);
    let probe = |probes: &[&[u32]], self_offset: Option<usize>| -> Vec<Vec<usize>> {
        let chunk = probes.len().div_ceil(nproc()).max(1);
        probes
            .chunks(chunk)
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(c, recs)| {
                let mut scratch = ProbeScratch::new(nl);
                recs.iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let exclude = self_offset.map(|_| (c * chunk + i) as u32);
                        if filtered {
                            index.top_k(p, k, exclude, &mut scratch)
                        } else {
                            index.top_k_unfiltered(p, k, exclude, &mut scratch)
                        }
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect()
    };
    let (lr, lr_probe_s) = timed(|| probe(&sets[nl..], None));
    let (ll, ll_probe_s) = timed(|| probe(&sets[..nl], Some(0)));
    let ok = lr == blocking.left_candidates_of_right && ll == blocking.left_candidates_of_left;
    (
        ok,
        ProbeTimes {
            index_build_s,
            lr_probe_s,
            ll_probe_s,
        },
    )
}

/// Per-family kernel seconds (for the families the space has) and the
/// number of pair evaluations.
struct KernelTimes {
    seconds: Vec<(&'static str, f64)>,
    pairs: u64,
}

/// Pairs evaluated per parallel work item.
const KERNEL_CHUNK: usize = 4096;

/// Re-evaluate every blocked L–R pair (after negative rules) and every L–L
/// pair once per kernel group, unbounded, timing each group under its family.
fn kernel_layers(
    col: &PreparedColumn,
    space: &JoinFunctionSpace,
    nl: usize,
    lr: &[Vec<usize>],
    ll: &[Vec<usize>],
) -> KernelTimes {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (q, cands) in lr.iter().enumerate() {
        pairs.extend(cands.iter().map(|&l| (l as u32, (nl + q) as u32)));
    }
    for (l, cands) in ll.iter().enumerate() {
        pairs.extend(cands.iter().map(|&l2| (l as u32, l2 as u32)));
    }
    let mut seconds: Vec<(&'static str, f64)> = vec![
        ("text.kernel_edit_s", 0.0),
        ("text.kernel_jaro_s", 0.0),
        ("text.kernel_set_s", 0.0),
        ("text.kernel_hybrid_s", 0.0),
        ("text.kernel_embed_s", 0.0),
    ];
    let mut used = [false; 5];
    let mut evaluated = 0u64;
    for group in plan_kernel_groups(space.functions()) {
        let kernel = GroupKernel { col, group: &group };
        let width = kernel.values_per_pair();
        let (sum, dt) = timed(|| {
            pairs
                .chunks(KERNEL_CHUNK)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|chunk| {
                    let mut out = vec![0.0f64; chunk.len() * width];
                    with_scratch(|s| kernel.eval_into(s, chunk, None, &mut out));
                    out.iter().sum::<f64>()
                })
                .sum::<f64>()
        });
        black_box(sum);
        let slot = match group.family {
            KernelFamily::Edit => 0,
            KernelFamily::Jaro => 1,
            KernelFamily::Set => 2,
            KernelFamily::Hybrid => 3,
            KernelFamily::Embed => 4,
        };
        seconds[slot].1 += dt;
        used[slot] = true;
        evaluated += pairs.len() as u64;
    }
    KernelTimes {
        seconds: seconds
            .into_iter()
            .zip(used)
            .filter_map(|(s, u)| u.then_some(s))
            .collect(),
        pairs: evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_rejects_bad_results() {
        let left = Table::from_strings("l", ["alpha beta gamma", "delta epsilon zeta"]);
        let right = Table::from_strings("r", ["alpha beta gamma!", "unrelated words"]);
        let joiner = AutoFuzzyJoin::builder().space(space()).build();
        let mut res = joiner.join(&left, &right);
        assert!(well_formed(&res, 2, 2));
        assert!(!well_formed(&res, 2, 3), "assignment length must equal |R|");
        if let Some(p) = res.pairs.first().cloned() {
            res.assignment[p.right] = Some(5);
            assert!(!well_formed(&res, 2, 2), "left index out of range");
        }
    }
}
