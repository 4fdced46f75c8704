//! The multi-column part of every workload: the eight multi-column datasets
//! joined through `AutoFuzzyJoin::join`, the only part on the multi-column
//! string path (raw-string blocking, string negative rules, the per-column
//! distance cache and forward column selection).
//!
//! One learn is one pass over all eight datasets.  The traced run replays
//! each join stage by stage — `Blocker::block`, `NegativeRuleSet`,
//! `MultiColumnDistanceCache`, then Algorithm 3's forward selection over
//! `Precompute` + `run_greedy` — and checks the replay reproduces the join.

use crate::learn::well_formed;
use crate::report::Report;
use crate::{timed, Args};
use autofj_core::estimate::Precompute;
use autofj_core::greedy::{run_greedy, GreedyOutcome};
use autofj_core::oracle::{MultiColumnDistanceCache, WeightedColumnsOracle};
use autofj_core::{AutoFjOptions, AutoFuzzyJoin, JoinResult, NegativeRuleSet, Table};
use autofj_datagen::{generate_multi_column_benchmark, MultiColumnTask};
use autofj_eval::{evaluate_assignment, profile_tables};
use autofj_text::{JoinFunctionSpace, PreparedColumn};
use rayon::prelude::*;

/// Row-count scale of the generated datasets (1.0 ≈ the paper's sizes): one
/// pass over all eight takes a few seconds on two cores.
const SCALE: f64 = 0.25;

/// Generate the datasets from the seed and print their descriptions.
pub fn tasks(args: &Args) -> Vec<MultiColumnTask> {
    let tasks = generate_multi_column_benchmark(SCALE, args.seed);
    describe_inputs(args, &tasks);
    tasks
}

fn column_slices(table: &Table) -> Vec<&[String]> {
    table
        .columns()
        .iter()
        .map(|c| c.values.as_slice())
        .collect()
}

fn describe_inputs(args: &Args, tasks: &[MultiColumnTask]) {
    let blocker = AutoFjOptions::default().blocker();
    for t in tasks {
        let profile = profile_tables(
            &column_slices(&t.left),
            &column_slices(&t.right),
            &t.ground_truth,
        );
        println!(
            "e2ebench: inputs {{\"workload\": \"{}\", \"part\": \"multi\", \"seed\": {}, \"dataset\": \"{}\", \
             \"left\": {}, \"right\": {}, \"columns\": {}, \"filters_engaged\": {}, \"profile\": {}}}",
            args.workload,
            args.seed,
            t.name,
            t.left.len(),
            t.right.len(),
            t.left.num_columns(),
            blocker.filters_engaged(t.left.len()),
            serde_json::to_string(&profile).expect("profile serializes"),
        );
    }
}

fn joiner() -> AutoFuzzyJoin {
    AutoFuzzyJoin::builder()
        .space(crate::learn::space())
        .build()
}

/// Set-up: input tables for every dataset and the joiner.
pub fn setup(tasks: &[MultiColumnTask]) -> (Vec<(Table, Table)>, AutoFuzzyJoin) {
    let tables = tasks
        .iter()
        .map(|t| (t.left.clone(), t.right.clone()))
        .collect();
    (tables, joiner())
}

/// Join every dataset once.
fn learn_pass(joiner: &AutoFuzzyJoin, tables: &[(Table, Table)]) -> Vec<JoinResult> {
    tables.iter().map(|(l, r)| joiner.join(l, r)).collect()
}

/// Join every dataset once; report `multi_learn_s` (the pass) and the
/// pooled quality.
pub fn measure(
    tasks: &[MultiColumnTask],
    (tables, joiner): &(Vec<(Table, Table)>, AutoFuzzyJoin),
    r: &mut Report,
) {
    let (results, pass_s) = timed(|| learn_pass(joiner, tables));
    for (t, res) in tasks.iter().zip(&results) {
        r.tally
            .record(well_formed(res, t.left.len(), t.right.len()));
    }
    r.metric("multi_learn_s", pass_s, "s");
    pooled_quality(tasks, &results).report(
        AutoFjOptions::default().precision_target,
        [
            "multi_recall",
            "multi_precision_attainment",
            "multi_precision_calibration",
        ],
        r,
    );
}

/// Quality pooled over every dataset: actual precision and recall from the
/// summed counts, and the estimate as the predicted-count-weighted mean of
/// each join's estimated precision.
fn pooled_quality(tasks: &[MultiColumnTask], results: &[JoinResult]) -> crate::learn::Quality {
    let (mut predicted, mut correct, mut truth, mut expected_tp) = (0usize, 0usize, 0usize, 0.0);
    for (t, res) in tasks.iter().zip(results) {
        let q = evaluate_assignment(&res.assignment, &t.ground_truth);
        predicted += q.num_predicted;
        correct += q.num_correct;
        truth += q.num_ground_truth;
        expected_tp += res.estimated_precision * q.num_predicted as f64;
        println!(
            "e2ebench: quality dataset={} precision={} recall={} estimated_precision={}",
            t.name, q.precision, q.recall_relative, res.estimated_precision
        );
    }
    let ratio = |a: f64, b: usize, empty: f64| if b == 0 { empty } else { a / b as f64 };
    crate::learn::Quality {
        precision: ratio(correct as f64, predicted, 1.0),
        recall: ratio(correct as f64, truth, 0.0),
        estimated: ratio(expected_tp, predicted, 1.0),
    }
}

/// Stage times of one staged multi-column replay.
#[derive(Default)]
struct StageTimes {
    block_s: f64,
    rules_s: f64,
    cache_build_s: f64,
    select_s: f64,
}

impl StageTimes {
    fn total(&self) -> f64 {
        self.block_s + self.rules_s + self.cache_build_s + self.select_s
    }
}

/// Replay one multi-column join stage by stage; return whether it reproduces
/// `reference`.
fn replay(
    left: &Table,
    right: &Table,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
    reference: &JoinResult,
    times: &mut StageTimes,
) -> bool {
    let m = left.num_columns();
    let (nl, nr) = (left.len(), right.len());
    let left_concat = left.concatenated_rows();
    let right_concat = right.concatenated_rows();
    let (blocking, dt) = timed(|| options.blocker().block(&left_concat, &right_concat));
    times.block_s += dt;
    let ll = &blocking.left_candidates_of_left;
    let (lr, dt) = timed(|| {
        let rules = NegativeRuleSet::learn(&left_concat, ll);
        (0..nr)
            .into_par_iter()
            .map(|q| {
                blocking.left_candidates_of_right[q]
                    .iter()
                    .copied()
                    .filter(|&l| !rules.forbids(&left_concat[l], &right_concat[q]))
                    .collect::<Vec<usize>>()
            })
            .collect::<Vec<_>>()
    });
    times.rules_s += dt;
    let (cache, dt) = timed(|| {
        let prepared: Vec<PreparedColumn> = (0..m)
            .into_par_iter()
            .map(|c| {
                let mut vals: Vec<&str> =
                    left.column(c).values.iter().map(String::as_str).collect();
                vals.extend(right.column(c).values.iter().map(String::as_str));
                PreparedColumn::build(&vals)
            })
            .collect();
        MultiColumnDistanceCache::build(space.functions(), &prepared, nl, nr, &lr, ll)
    });
    times.cache_build_s += dt;
    let ((outcome, weights), dt) = timed(|| forward_selection(&cache, &lr, ll, m, options));
    times.select_s += dt;

    let Some(outcome) = outcome else {
        return reference.program.configs.is_empty() && reference.num_joined() == 0;
    };
    let total: f64 = weights.iter().sum();
    let selected: Vec<(String, f64)> = left
        .columns()
        .iter()
        .zip(&weights)
        .filter(|(_, &w)| w / total > 0.0)
        .map(|(c, &w)| (c.name.clone(), w / total))
        .collect();
    let reported: Vec<(String, f64)> = reference
        .program
        .columns
        .iter()
        .cloned()
        .zip(reference.program.column_weights.iter().copied())
        .collect();
    crate::learn::replay_matches(space, &outcome, reference) && selected == reported
}

/// Algorithm 3 over the staged cache: blend one more column at a time at
/// `g` mixing ratios, keep the blend with the highest estimated recall
/// (first wins ties), stop when recall no longer improves.
fn forward_selection(
    cache: &MultiColumnDistanceCache,
    lr: &[Vec<usize>],
    ll: &[Vec<usize>],
    m: usize,
    options: &AutoFjOptions,
) -> (Option<GreedyOutcome>, Vec<f64>) {
    let g = options.weight_steps;
    let mut w = vec![0.0f64; m];
    let mut best: Option<GreedyOutcome> = None;
    let mut remaining: Vec<usize> = (0..m).collect();
    while !remaining.is_empty() {
        let current = best.as_ref().map_or(0.0, GreedyOutcome::estimated_recall);
        let mut blends: Vec<(usize, Vec<f64>)> = Vec::new();
        for &j in &remaining {
            let alphas: Vec<f64> = if w.iter().all(|&x| x == 0.0) {
                vec![1.0]
            } else {
                (1..g).map(|k| k as f64 / g as f64).collect()
            };
            for alpha in alphas {
                let mut wj: Vec<f64> = w.iter().map(|&x| (1.0 - alpha) * x).collect();
                wj[j] += alpha;
                blends.push((j, wj));
            }
        }
        let outcomes: Vec<GreedyOutcome> = blends
            .par_iter()
            .map(|(_, wj)| {
                let oracle = WeightedColumnsOracle::new(cache, wj.clone());
                let pre = Precompute::build(&oracle, lr, ll, options.num_thresholds);
                run_greedy(&pre, options)
            })
            .collect();
        let mut round: Option<(GreedyOutcome, Vec<f64>, usize)> = None;
        for ((j, wj), o) in blends.into_iter().zip(outcomes) {
            if round
                .as_ref()
                .is_none_or(|(b, _, _)| o.estimated_recall() > b.estimated_recall())
            {
                round = Some((o, wj, j));
            }
        }
        match round {
            Some((o, wj, j)) if o.estimated_recall() > current => {
                w = wj;
                best = Some(o);
                remaining.retain(|&x| x != j);
            }
            _ => break,
        }
    }
    (best, w)
}

/// Traced run of the multi-column part: one untraced pass, then each join
/// replayed stage by stage and checked against it.
pub fn traced(tasks: &[MultiColumnTask], r: &mut Report) {
    let (tables, joiner) = setup(tasks);
    let (references, join_s) = timed(|| learn_pass(&joiner, &tables));
    let mut times = StageTimes::default();
    for ((t, (left, right)), reference) in tasks.iter().zip(&tables).zip(&references) {
        r.tally
            .record(well_formed(reference, t.left.len(), t.right.len()));
        let ok = replay(
            left,
            right,
            joiner.space(),
            joiner.options(),
            reference,
            &mut times,
        );
        r.check(ok, || {
            format!("{}: staged replay differs from AutoFuzzyJoin::join", t.name)
        });
    }
    r.metric(
        "multi.trace_overhead_ratio",
        times.total() / join_s,
        "ratio",
    );
    r.metric("multi.block_s", times.block_s, "s");
    r.metric("multi.rules_s", times.rules_s, "s");
    r.metric("multi.cache_build_s", times.cache_build_s, "s");
    r.metric("multi.select_s", times.select_s, "s");
    r.metric("multi.join_s", join_s, "s");
}
