//! The serving part of every workload: a learned snapshot served over TCP
//! to two closed-loop connections from this process — a reader issuing
//! `Join` requests with an occasional `JoinBatch`, and a writer interleaving
//! small `Append` batches of held-out records with `Join` requests — against
//! an in-process `Server` with two acceptor threads.
//!
//! Every response is checked (parses, is not an error, is in range); after
//! the last append the server's `Stats` must show the expected epoch and
//! right-table size, and its answers must equal an in-process replica that
//! applied the same appends in the same order.

use crate::learn::Quality;
use crate::report::{median, percentile, tail, windowed_tail, Report, Tally};
use crate::{timed, Args};
use autofj_core::join_single_column_with_artifacts;
use autofj_core::AutoFjOptions;
use autofj_datagen::{DomainSpec, Family, PerturbationMix, SingleColumnTask};
use autofj_eval::profile_tables;
use autofj_serve::{Client, Server};
use autofj_store::{QueryScratch, ServeMatch, ServingState, SnapshotFile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Query records the snapshot is learned on.
const LEARN_RIGHT: usize = 600;
/// Distinct records the connections send as `Join` queries.
const QUERIES: usize = 600;
/// Held-out records available for appends (more than a run can use).
const HELD_OUT: usize = 1_000;
/// Records per `Append` request.
const APPEND_BATCH: usize = 4;
/// `Join` requests the writer sends between two appends.
const JOINS_PER_APPEND: usize = 4;
/// Every this-many reader requests, one is a `JoinBatch`.
const BATCH_EVERY: usize = 16;
/// Records per `JoinBatch` request.
const BATCH_SIZE: usize = 16;
/// Records re-queried after the last append and compared with the replica.
const VERIFY_RECORDS: usize = 200;
/// Percentile reported as the join tail.  Every append swaps in a new state
/// and drops the old one, stalling a few joins by several milliseconds; the
/// 99th and 99.9th percentiles sit on that cliff and moved by more than a
/// quarter between runs on a shared two-core host, so they are printed but
/// the bounded tail is the 95th.
pub const JOIN_TAIL_P: f64 = 95.0;
/// Percentile reported as the append tail.  Each append re-derives every
/// ball row (hundreds of milliseconds here), so a run collects a few dozen
/// appends: enough to leave ten beyond the 75th percentile.
pub const APPEND_TAIL_P: f64 = 75.0;
/// Appends the writer makes before it stops, even past the deadline: the
/// fewest that leave ten beyond [`APPEND_TAIL_P`].
const MIN_APPENDS: usize = 40;
/// The join median and tail are medians of per-window percentiles over
/// consecutive equal-count windows of the run's joins in time order, so one
/// burst of host noise moves one window, not the reported figure: as many
/// windows as the run holds [`JOIN_WINDOW_SAMPLES`] joins, at most
/// [`MAX_TAIL_WINDOWS`].
const MAX_TAIL_WINDOWS: usize = 10;
/// Joins per tail window, well above the 200 that leave ten beyond p95.
const JOIN_WINDOW_SAMPLES: usize = 1_500;
/// Acceptor threads of the server.
const ACCEPTORS: usize = 2;

/// The snapshot's task, the same for every seed: ⌈700 · 0.92⌉ = 644
/// TeamSeason reference rows and [`LEARN_RIGHT`] query rows.  Each append
/// re-derives every ball row, O(|L| · k · functions), so a larger reference
/// table would leave too few appends in a run to measure their tail.
fn snapshot_task() -> SingleColumnTask {
    DomainSpec {
        name: "TeamSeasonServe".to_string(),
        family: Family::TeamSeason,
        num_entities: 700,
        left_coverage: 0.92,
        num_right: LEARN_RIGHT,
        mix: PerturbationMix::balanced(),
        seed: 0xA07F_5E7E,
    }
    .generate()
}

/// The seed's traffic: `n` perturbed variants of random reference records,
/// drawn like the generator draws query records.
fn traffic(left: &[String], seed: u64, n: usize) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(0x5E7E_0000 ^ seed);
    let mix = PerturbationMix::balanced();
    (0..n)
        .map(|_| {
            let l = rng.gen_range(0..left.len());
            mix.perturb(&left[l], &mut rng)
        })
        .collect()
}

/// Whether an answer is in range for the state it came from.
fn in_range(m: &Option<ServeMatch>, num_left: usize, num_configs: usize) -> bool {
    m.is_none_or(|m| {
        m.left < num_left
            && m.config_index < num_configs
            && (0.0..=1.0).contains(&m.distance)
            && (0.0..=1.0).contains(&m.precision)
    })
}

/// Latency samples (ms) and tallies of one client connection.
#[derive(Default)]
struct ClientLog {
    /// `(seconds since the mix started, latency ms)` per `Join`.
    joins: Vec<(f64, f64)>,
    batches: Vec<f64>,
    appends: Vec<f64>,
    tally: Tally,
    /// Append batches sent, in order (indices into the held-out records).
    appended: Vec<std::ops::Range<usize>>,
}

/// What both connections share: where to connect, what to send, and when to
/// stop.
struct Mix<'a> {
    addr: SocketAddr,
    queries: &'a [String],
    held_out: &'a [String],
    num_left: usize,
    num_configs: usize,
    start: Instant,
    deadline: Instant,
    /// Set once the writer has stopped; the reader keeps the race going
    /// until then.
    writer_done: AtomicBool,
}

impl Mix<'_> {
    fn join(&self, c: &mut Client, log: &mut ClientLog, record: &str) -> bool {
        let (res, dt) = timed(|| c.join(record));
        let ok = matches!(&res, Ok(m) if in_range(m, self.num_left, self.num_configs));
        log.tally.record(ok);
        log.joins
            .push((self.start.elapsed().as_secs_f64(), dt * 1e3));
        res.is_ok()
    }

    fn reader(&self) -> ClientLog {
        let mut log = ClientLog::default();
        let Ok(mut c) = Client::connect(self.addr) else {
            log.tally.record(false);
            return log;
        };
        let mut i = 0usize;
        while Instant::now() < self.deadline || !self.writer_done.load(Ordering::SeqCst) {
            let alive = if i % BATCH_EVERY == BATCH_EVERY - 1 {
                let start = (i * 7) % (self.queries.len() - BATCH_SIZE);
                let batch = &self.queries[start..start + BATCH_SIZE];
                let (res, dt) = timed(|| c.join_batch(batch));
                let ok = matches!(&res, Ok(ms) if ms.len() == BATCH_SIZE
                    && ms.iter().all(|m| in_range(m, self.num_left, self.num_configs)));
                log.tally.record(ok);
                log.batches.push(dt * 1e3);
                res.is_ok()
            } else {
                self.join(&mut c, &mut log, &self.queries[i % self.queries.len()])
            };
            if !alive {
                break;
            }
            i += 1;
        }
        log
    }

    fn writer(&self, start_right: usize) -> ClientLog {
        let mut log = ClientLog::default();
        let Ok(mut c) = Client::connect(self.addr) else {
            log.tally.record(false);
            return log;
        };
        let mut next = 0usize;
        let mut epoch = 1u64;
        let mut i = 0usize;
        // Past the deadline the writer goes on until the append tail is
        // supported, so a slow host lengthens the run instead of failing it.
        while (Instant::now() < self.deadline || log.appends.len() < MIN_APPENDS)
            && next + APPEND_BATCH <= self.held_out.len()
        {
            let range = next..next + APPEND_BATCH;
            let (res, dt) = timed(|| c.append(&self.held_out[range.clone()]));
            epoch += 1;
            let expect_right = start_right + range.end;
            log.tally
                .record(matches!(res, Ok((n, e)) if n == expect_right && e == epoch));
            log.appends.push(dt * 1e3);
            if res.is_err() {
                return log;
            }
            log.appended.push(range.clone());
            next = range.end;
            for _ in 0..JOINS_PER_APPEND {
                let record = &self.queries[(i * 13 + 5) % self.queries.len()];
                if !self.join(&mut c, &mut log, record) {
                    return log;
                }
                i += 1;
            }
        }
        // After the last append: the epoch and right-table size must match.
        let stats_ok = matches!(c.stats(), Ok(s) if s.epoch == epoch
            && s.num_right == start_right + next);
        log.tally.record(stats_ok);
        log
    }
}

/// Run `work` against a server over `state` on two acceptors, then shut the
/// server down and wait for it, whatever `work` returned.
fn with_server<R>(state: ServingState, work: impl FnOnce(SocketAddr) -> R) -> std::io::Result<R> {
    let server = Server::bind("127.0.0.1:0", state)?;
    let addr = server.local_addr()?;
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run(ACCEPTORS));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(addr)));
        let stopped = Client::connect(addr).and_then(|mut c| c.shutdown());
        run.join().expect("server threads exit cleanly");
        match out {
            Ok(r) => stopped.map(|_| r),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Set-up: load the snapshot, bind the server, wait for the first `Stats`.
/// Returns the time that took; the server is shut down afterwards.
pub fn setup_once(l: &Learned) -> f64 {
    let t = Instant::now();
    let state = ServingState::load(&l.snapshot).expect("snapshot loads");
    let first_stats = with_server(state, |addr| {
        let s = Client::connect(addr).and_then(|mut c| c.stats());
        (s, t.elapsed().as_secs_f64())
    })
    .expect("server starts and stops");
    first_stats.0.expect("first Stats is answered");
    first_stats.1
}

/// The served snapshot, the seed's traffic, and what freezing and saving
/// the snapshot took.
pub struct Learned {
    snapshot: PathBuf,
    queries: Vec<String>,
    held_out: Vec<String>,
    freeze_s: f64,
    save_s: f64,
}

impl Learned {
    /// Delete the snapshot file.
    pub fn remove(&self) {
        let _ = std::fs::remove_file(&self.snapshot);
    }
}

/// Generate the task, learn and freeze the snapshot, save it under
/// `workdir`.  Prints the input description and the learned quality.
pub fn learn(args: &Args) -> Learned {
    let task = snapshot_task();
    let left = &task.left;
    let learn_right = &task.right;
    let mut stream = traffic(left, args.seed, QUERIES + HELD_OUT);
    let held_out = stream.split_off(QUERIES);
    let queries = stream;
    let options = AutoFjOptions::default();
    let profile = profile_tables(&[left], &[learn_right], &task.ground_truth);
    println!(
        "e2ebench: inputs {{\"workload\": \"{}\", \"part\": \"serve\", \"seed\": {}, \"left\": {}, \"right\": {}, \
         \"held_out\": {}, \"candidates_per_record\": {}, \"filters_engaged\": {}, \"profile\": {}}}",
        args.workload,
        args.seed,
        left.len(),
        learn_right.len(),
        held_out.len(),
        options.blocker().candidates_per_record(left.len()),
        options.blocker().filters_engaged(left.len()),
        serde_json::to_string(&profile).expect("profile serializes"),
    );
    let space = crate::learn::space();
    let ((result, artifacts), learn_s) =
        timed(|| join_single_column_with_artifacts(left, learn_right, &space, &options));
    let artifacts = artifacts.expect("non-empty inputs run the pipeline");
    let (state, freeze_s) =
        timed(|| ServingState::from_artifacts(&space, &options, &result, artifacts));
    Quality::of(&result, &task.ground_truth).print(options.precision_target);
    println!("e2ebench: snapshot learn_s={learn_s} freeze_s={freeze_s}");
    std::fs::create_dir_all(&args.workdir).expect("create the work directory");
    let snapshot = args
        .workdir
        .join(format!("served-{}.afj", std::process::id()));
    let (saved, save_s) = timed(|| state.save(&snapshot));
    saved.expect("snapshot saves");
    Learned {
        snapshot,
        queries,
        held_out,
        freeze_s,
        save_s,
    }
}

/// Run the reader and the writer against the server for `--seconds` (the
/// writer goes on until it has [`MIN_APPENDS`] appends), then verify the
/// final state; report the join median and tail and the append tail.
pub fn measure(args: &Args, l: &Learned, r: &mut Report) {
    let state = ServingState::load(&l.snapshot).expect("snapshot loads");
    let (num_left, num_configs, start_right) =
        (state.num_left(), state.configs().len(), state.num_right());
    let window = Duration::from_secs_f64(args.seconds);
    let mut measured_s = 0.0;
    let logs = with_server(state, |addr| {
        let start = Instant::now();
        let mix = Mix {
            addr,
            queries: &l.queries,
            held_out: &l.held_out,
            num_left,
            num_configs,
            start,
            deadline: start + window,
            writer_done: AtomicBool::new(false),
        };
        let (reader, writer) = std::thread::scope(|s| {
            let reader = s.spawn(|| mix.reader());
            let writer = s.spawn(|| {
                let log = mix.writer(start_right);
                mix.writer_done.store(true, Ordering::SeqCst);
                log
            });
            (
                reader.join().expect("reader thread"),
                writer.join().expect("writer thread"),
            )
        });
        measured_s = start.elapsed().as_secs_f64();
        let verified = verify(addr, l, &writer.appended);
        (reader, writer, verified)
    })
    .expect("server starts and stops");
    let (reader, writer, verified) = logs;
    r.tally.merge(reader.tally);
    r.tally.merge(writer.tally);
    r.tally.merge(verified);

    let timed_joins: Vec<(f64, f64)> = reader.joins.iter().chain(&writer.joins).copied().collect();
    let joins: Vec<f64> = timed_joins.iter().map(|&(_, ms)| ms).collect();
    let windows = (timed_joins.len() / JOIN_WINDOW_SAMPLES).clamp(1, MAX_TAIL_WINDOWS);
    let join_p50 = windowed_tail(&timed_joins, windows, 50.0);
    let join_tail = windowed_tail(&timed_joins, windows, JOIN_TAIL_P);
    let append_tail = tail(&writer.appends, APPEND_TAIL_P);
    println!(
        "e2ebench: samples joins={} join_tail_windows={windows} join_tail_window_min={} \
         batches={} appends={} \
         join_tail_p={JOIN_TAIL_P} append_tail_p={APPEND_TAIL_P} measured_s={measured_s} \
         batch_p50_ms={} append_p50_ms={} records_per_s={} join_p99_ms={} join_p999_ms={}",
        joins.len(),
        join_tail.samples,
        reader.batches.len(),
        writer.appends.len(),
        median_or_zero(&reader.batches),
        median_or_zero(&writer.appends),
        (joins.len() + reader.batches.len() * BATCH_SIZE) as f64 / measured_s,
        percentile(&joins, 99.0),
        percentile(&joins, 99.9),
    );
    r.check(join_tail.supported, || {
        format!(
            "{} join samples per window cannot support p{JOIN_TAIL_P}",
            join_tail.samples
        )
    });
    r.check(append_tail.supported, || {
        format!(
            "{} append samples cannot support p{APPEND_TAIL_P}",
            writer.appends.len()
        )
    });
    r.check(!reader.batches.is_empty(), || {
        "no JoinBatch was answered".to_string()
    });
    r.metric("join_p50_ms", join_p50.value, "ms");
    r.metric("join_p95_ms", join_tail.value, "ms");
    r.metric("append_p75_ms", append_tail.value, "ms");
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Re-query a sample of records over a fresh connection and compare each
/// answer with an in-process replica of the snapshot that appended the same
/// records in the same order.  The replica appends them in one call: an
/// append is pinned equal to a rebuild on the concatenated table, so batch
/// boundaries cannot change an answer.
fn verify(addr: SocketAddr, l: &Learned, appended: &[std::ops::Range<usize>]) -> Tally {
    let mut tally = Tally::default();
    let mut replica = ServingState::load(&l.snapshot).expect("snapshot loads");
    let end = appended.last().map_or(0, |r| r.end);
    replica.append_right(&l.held_out[..end]);
    let mut scratch = QueryScratch::for_state(&replica);
    let Ok(mut c) = Client::connect(addr) else {
        tally.record(false);
        return tally;
    };
    let step = (l.queries.len() + l.held_out.len()) / VERIFY_RECORDS;
    for i in 0..VERIFY_RECORDS {
        let k = i * step;
        let record = if k < l.queries.len() {
            &l.queries[k]
        } else {
            &l.held_out[k - l.queries.len()]
        };
        let expected = replica.query(record, &mut scratch);
        tally.record(matches!(c.join(record), Ok(m) if m == expected));
    }
    tally
}

/// Pages the snapshot's pager faults in when every section is read through
/// (what a full load touches; the open-time checksum pass is not counted).
fn pages_read(path: &Path) -> u64 {
    let Ok(mut snap) = SnapshotFile::open(path) else {
        return 0;
    };
    for tag in snap.section_tags() {
        if let Ok(mut cur) = snap.section(tag) {
            while cur.remaining() >= 8 && cur.read_u64().is_ok() {}
        }
    }
    snap.pages_faulted()
}

/// Traced run of the serving part: the store and serve layers in isolation.
pub fn traced(l: &Learned, r: &mut Report) {
    let (state, load_s) = timed(|| ServingState::load(&l.snapshot).expect("snapshot loads"));
    let bytes = std::fs::metadata(&l.snapshot).map_or(0, |m| m.len());
    let pages = pages_read(&l.snapshot);
    let mut scratch = QueryScratch::for_state(&state);
    let mut ok = true;
    let query_us: Vec<f64> = l
        .queries
        .iter()
        .map(|q| {
            let (m, dt) = timed(|| state.query(q, &mut scratch));
            ok &= in_range(&m, state.num_left(), state.configs().len());
            dt * 1e6
        })
        .collect();
    r.tally.record(ok);
    let append_s: Vec<f64> = l
        .held_out
        .chunks(APPEND_BATCH)
        .take(20)
        .map(|batch| {
            let mut next = state.clone();
            timed(|| next.append_right(batch)).1
        })
        .collect();
    let (num_left, num_configs) = (state.num_left(), state.configs().len());
    let (stats_ms, join_ms, batch_ms, append_ms) = with_server(state, |addr| {
        let mut c = Client::connect(addr).expect("connect");
        let stats: Vec<f64> = (0..200)
            .map(|_| timed(|| c.stats().expect("stats")).1 * 1e3)
            .collect();
        let joins: Vec<f64> = l
            .queries
            .iter()
            .map(|q| {
                let (m, dt) = timed(|| c.join(q));
                r.tally
                    .record(matches!(&m, Ok(m) if in_range(m, num_left, num_configs)));
                dt * 1e3
            })
            .collect();
        let batches: Vec<f64> = l
            .queries
            .chunks(BATCH_SIZE)
            .map(|batch| {
                let (m, dt) = timed(|| c.join_batch(batch));
                r.tally
                    .record(matches!(&m, Ok(ms) if ms.len() == batch.len()
                    && ms.iter().all(|m| in_range(m, num_left, num_configs))));
                dt * 1e3
            })
            .collect();
        let appends: Vec<f64> = l
            .held_out
            .chunks(APPEND_BATCH)
            .take(20)
            .map(|batch| {
                let (res, dt) = timed(|| c.append(batch));
                r.tally.record(res.is_ok());
                dt * 1e3
            })
            .collect();
        (
            median(&stats),
            median(&joins),
            median(&batches),
            median(&appends),
        )
    })
    .expect("server starts and stops");
    let query_us = median(&query_us);
    let append_s = median(&append_s);
    r.metric("store.freeze_s", l.freeze_s, "s");
    r.metric("store.save_s", l.save_s, "s");
    r.metric("store.load_s", load_s, "s");
    r.metric("store.snapshot_bytes", bytes as f64, "bytes");
    r.metric("store.pages_faulted", pages as f64, "count");
    r.metric("store.query_us", query_us, "us");
    r.metric("store.append_s", append_s, "s");
    r.metric("serve.stats_rtt_ms", stats_ms, "ms");
    r.metric("serve.join_p50_ms", join_ms, "ms");
    r.metric("serve.batch_p50_ms", batch_ms, "ms");
    r.metric("serve.append_p50_ms", append_ms, "ms");
}
