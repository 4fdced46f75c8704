//! End-to-end and per-layer benchmark of the Auto-FuzzyJoin workspace.
//!
//! ```text
//! autofj-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//! ```
//!
//! Each invocation runs one workload in its own process, generates the
//! workload's inputs from `--seed`, checks every output, and prints one JSON
//! result object as the last line of standard output.  Every workload runs
//! the same three parts, so every workload reports every metric:
//!
//! 1. a single-column learn on the workload's own task (the part the two
//!    workloads differ in: `medium` takes the blocker's dense probe,
//!    `large_ref` its filtered probe);
//! 2. one pass over the eight multi-column datasets;
//! 3. a learned snapshot served over TCP to a reader and an appending writer
//!    for `--seconds`.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` calls each
//! layer's public entry points in pipeline order and reports per-layer
//! metrics.  Lines before the result describe the inputs (sizes, data
//! profile, probe path) and any failed check.

mod learn;
mod multi;
mod report;
mod serve;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workdir = PathBuf::from("e2ebench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--workdir" => workdir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workdir,
    })
}

/// `(name, unit)` of every metric an untraced run reports: BENCHMARK.json's
/// `end_to_end` list, in its order.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("learn_s", "s"),
    ("recall", "ratio"),
    ("precision_attainment", "ratio"),
    ("precision_calibration", "ratio"),
    ("multi_learn_s", "s"),
    ("multi_recall", "ratio"),
    ("multi_precision_attainment", "ratio"),
    ("multi_precision_calibration", "ratio"),
    ("join_p50_ms", "ms"),
    ("join_p95_ms", "ms"),
    ("append_p75_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// `(name, unit)` of every metric a traced run reports: BENCHMARK.json's
/// `per_layer` list, in its order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("text.prepare_s", "s"),
    ("text.kernel_edit_s", "s"),
    ("text.kernel_jaro_s", "s"),
    ("text.kernel_set_s", "s"),
    ("text.kernel_embed_s", "s"),
    ("text.kernel_pairs", "count"),
    ("block.total_s", "s"),
    ("block.index_build_s", "s"),
    ("block.lr_probe_s", "s"),
    ("block.ll_probe_s", "s"),
    ("block.postings_scanned", "count"),
    ("block.scored_records", "count"),
    ("block.scanned_share", "ratio"),
    ("block.true_pair_recall", "ratio"),
    ("block.true_pair_share", "ratio"),
    ("rules.learn_s", "s"),
    ("rules.filter_s", "s"),
    ("rules.count", "count"),
    ("rules.pairs_removed", "count"),
    ("rules.true_pair_survival", "ratio"),
    ("estimate.precompute_s", "s"),
    ("estimate.lr_pairs", "count"),
    ("estimate.ll_pairs", "count"),
    ("estimate.candidate_configs", "count"),
    ("greedy.search_s", "s"),
    ("greedy.score_s", "s"),
    ("greedy.rounds", "count"),
    ("greedy.configs_selected", "count"),
    ("multi.block_s", "s"),
    ("multi.rules_s", "s"),
    ("multi.cache_build_s", "s"),
    ("multi.select_s", "s"),
    ("multi.join_s", "s"),
    ("multi.trace_overhead_ratio", "ratio"),
    ("store.freeze_s", "s"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("store.snapshot_bytes", "bytes"),
    ("store.pages_faulted", "count"),
    ("store.query_us", "us"),
    ("store.append_s", "s"),
    ("serve.stats_rtt_ms", "ms"),
    ("serve.join_p50_ms", "ms"),
    ("serve.batch_p50_ms", "ms"),
    ("serve.append_p50_ms", "ms"),
    ("pool.cpu_s", "s"),
    ("pool.work_s", "s"),
    ("pool.span_s", "s"),
    ("pool.regions", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Worker threads for the parallel pool: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 15;

/// Run `setup`, which returns its result and the seconds it took,
/// [`SETUP_REPS`] times; return the last result and the median time.
fn repeated_setup<T>(mut setup: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (v, dt) = setup();
        times.push(dt);
        last = Some(v);
    }
    (last.expect("at least one set-up"), report::median(&times))
}

/// Wall-clock seconds of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Size the parallel pool.  The learn parts run one worker per core.  In
/// the serving part each closed-loop connection keeps at most one thread
/// runnable (its client or its server side), so the server's parallel work
/// (append re-derivation, batch queries) runs on one worker and the two
/// connections together stay within two cores.
pub fn set_pool(workers: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build_global()
        .expect("configure the global pool");
}

/// The workloads: the single-column learn task each one runs.
const WORKLOADS: [&str; 2] = ["medium", "large_ref"];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("e2ebench: unknown workload {}", args.workload);
        std::process::exit(2);
    }
    set_pool(nproc());
    println!(
        "e2ebench: workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
    );
    let report = run(&args);
    for failure in &report.failed_checks {
        println!("e2ebench: check failed: {failure}");
    }
    // A result without every metric of the manifest, in its unit, is a bug
    // in the benchmark: stop without printing one.
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mismatches = report.mismatches(expected);
    if !mismatches.is_empty() {
        eprintln!("e2ebench: result does not match BENCHMARK.json: {mismatches:?}");
        std::process::exit(4);
    }
    println!("{}", report.to_json());
}

/// Generate every part's inputs, then measure the parts (serving,
/// multi-column learn, single-column learn) or trace them (single-column,
/// multi-column, serving).
fn run(args: &Args) -> Report {
    let single = learn::workload(args);
    let tasks = multi::tasks(args);
    let served = serve::learn(args);
    let mut r = Report::default();
    if args.trace {
        learn::traced(&single, &mut r);
        multi::traced(&tasks, &mut r);
        set_pool(1);
        serve::traced(&served, &mut r);
    } else {
        // One set-up covers all three parts: input tables and joiners for
        // both learns, then snapshot load, server bind and the first Stats.
        let ((inputs, multi_inputs), setup_s) = repeated_setup(|| {
            let (inputs, dt) = timed(|| (learn::setup(&single), multi::setup(&tasks)));
            (inputs, dt + serve::setup_once(&served))
        });
        r.metric("setup_s", setup_s, "s");
        // Smallest heap first: the single-column learn leaves hundreds of
        // megabytes of freed allocator state behind, and the parts measured
        // after it spread more from run to run.
        set_pool(1);
        serve::measure(args, &served, &mut r);
        set_pool(nproc());
        multi::measure(&tasks, &multi_inputs, &mut r);
        learn::measure(&single, &inputs, &mut r);
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
        r.metric("success_rate", r.tally.success_rate(), "ratio");
    }
    served.remove();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one list of the manifest, in order.
    fn manifest_list(manifest: &str, key: &str) -> Vec<(String, String)> {
        let start = manifest
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("the list is closed")];
        let field = |entry: &str, f: &str| -> String {
            let at = entry.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(manifest_list(&manifest, key), want, "{key}");
            assert!(list.iter().all(|&(n, _)| report::valid_metric_name(n)));
        }
    }
}
