//! TF-IDF 3-gram inverted index and the top-k candidate selection.
//!
//! The index is fully *interned*: grams are `u32` ids over a shared
//! vocabulary, postings live in one contiguous CSR arena, and every probe is
//! scored through a dense accumulator that is reset via a touched-list (an
//! epoch counter, so not even the reset walks the full table).  Top-k
//! selection uses a bounded min-heap of size `k` instead of sorting the whole
//! scored set.  Parallel probes process contiguous chunks with one scratch
//! buffer per worker, so the steady-state hot path allocates nothing beyond
//! the candidate lists it returns.
//!
//! # Filter-pruned probing (PPJoin-style, exact)
//!
//! The default probe path ([`GramIndex::top_k`]) prunes with the PPJoin
//! machinery (Xiao et al., TODS 2011) promoted from
//! `crates/baselines/src/ppjoin.rs`, while remaining **bit-identical** to
//! the exhaustive scan:
//!
//! * **Global frequency order.**  Grams are ranked rarest-first (document
//!   frequency ascending, id breaking ties); probes walk their grams in that
//!   order, so the highest-idf evidence is gathered first and the weight
//!   still reachable from the remaining grams (a precomputed prefix-sum
//!   suffix) shrinks fastest.
//! * **Per-record prefix postings.**  Every reference record posts its
//!   rarest `⌈len/4⌉` grams into a second, much smaller CSR.  A probe first
//!   walks *only* these prefix postings to find records sharing rare grams,
//!   exactly scores the best of them, and thereby seeds the top-k heap with
//!   strong lower bounds before any full postings list is touched.
//! * **Length-band skip.**  A record first seen at probe-gram position `j`
//!   shares no earlier (rarer) probe gram, so its score is at most the sum
//!   of the `min(len, remaining)` largest remaining weights — an `O(1)`
//!   prefix-sum lookup.  If that bound cannot beat the current worst kept
//!   score, the record is skipped without scoring.
//! * **Admission stop.**  Once the heap holds `k` exact scores and even the
//!   full remaining suffix weight cannot beat the worst of them, no unseen
//!   record can enter the top-k and the walk stops.
//!
//! Admitted records are re-scored **exactly** by a branch-free gather-sum:
//! the probe's idf weights are written once per probe into a dense
//! gram-indexed table, and a record's score is the sum of that table over
//! its gram set (CSR transpose, ascending ids).  Grams outside the probe add
//! `+0.0`, which leaves a sum of positive idf weights unchanged, so the
//! additions that matter happen in the same ascending-id order as the
//! exhaustive scan's and the scores are bit-identical.  Every pruning
//! comparison is strict with a `1 + 1e-9` relative inflation on the bound
//! side, so float rounding in the bound arithmetic can only weaken pruning,
//! never change the result.  The exhaustive scan is retained as
//! [`GramIndex::top_k_unfiltered`] and the two are pinned identical by
//! property tests (`tests/properties.rs`) across tables, factors and thread
//! counts.
//!
//! # Sharded builds
//!
//! [`GramIndex::from_id_sets`] partitions the reference table into
//! contiguous row shards, builds one sub-index per shard in parallel, and
//! merges them gram-major in shard order.  Record ids ascend within a shard
//! and shards cover contiguous ranges, so the merged CSR is byte-identical
//! to a sequential build — a 100k-row table never funnels through one giant
//! single-threaded accumulator pass.
//!
//! A deliberately simple string-path implementation is retained in
//! [`crate::reference`]; a property test pins that both paths produce
//! identical candidate lists on random tables at every thread count.

use autofj_text::prepared::scheme_index;
use autofj_text::preprocess::Preprocessing;
use autofj_text::tokenize::{qgram_intern_into, qgram_lookup_into, GramScratch, Tokenization};
use autofj_text::vocab::Vocab;
use autofj_text::PreparedColumn;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Candidate-set statistics accumulated while blocking ran — the
/// quality-of-blocking record that `BENCH_*.json` puts on the trajectory
/// next to the timings.  All counters are exact integers summed over probes,
/// so they are identical at every thread count and gate-able like the
/// quality fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BlockingStats {
    /// L–R candidate pairs kept (Σ candidate-list lengths over right probes).
    pub lr_pairs: u64,
    /// L–L candidate pairs kept (self excluded).
    pub ll_pairs: u64,
    /// Largest candidate list kept by any single probe.
    pub per_probe_max: u64,
    /// Records admitted for exact scoring across all probes — the candidate
    /// superset the filters could not prune.
    pub scored_records: u64,
    /// Posting entries actually walked (prefix warm-up + main walk).
    pub postings_scanned: u64,
    /// Posting entries an unfiltered scan would have walked (Σ document
    /// frequency over every known probe gram).
    pub postings_total: u64,
}

impl BlockingStats {
    /// Fraction of the unfiltered postings traversal the filters pruned away
    /// (`1 − scanned/total`; 0 when nothing was probed or filters are off).
    pub fn reduction_ratio(&self) -> f64 {
        if self.postings_total == 0 || self.postings_scanned >= self.postings_total {
            0.0
        } else {
            1.0 - self.postings_scanned as f64 / self.postings_total as f64
        }
    }
}

/// The candidate sets produced by blocking.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockingOutput {
    /// For every right record `r`, the indices of the candidate left records
    /// kept by blocking, ordered by decreasing blocking score.
    pub left_candidates_of_right: Vec<Vec<usize>>,
    /// For every left record `l`, the indices of the candidate *other* left
    /// records kept by blocking (self excluded), ordered by decreasing score.
    pub left_candidates_of_left: Vec<Vec<usize>>,
    /// The number of candidates kept per probe record (`⌈β·√|L|⌉`, at least 1).
    pub candidates_per_record: usize,
    /// Candidate-set statistics of the run (L–R and L–L combined).
    pub stats: BlockingStats,
}

impl BlockingOutput {
    /// Total number of L–R candidate pairs that survived blocking.
    pub fn num_lr_pairs(&self) -> usize {
        self.left_candidates_of_right.iter().map(Vec::len).sum()
    }

    /// Total number of L–L candidate pairs that survived blocking.
    pub fn num_ll_pairs(&self) -> usize {
        self.left_candidates_of_left.iter().map(Vec::len).sum()
    }
}

/// The default Auto-FuzzyJoin blocker.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Blocker {
    factor: f64,
    filters: bool,
}

impl Default for Blocker {
    fn default() -> Self {
        Self {
            factor: 1.5,
            filters: true,
        }
    }
}

/// Inverted index over the reference table, on interned gram ids.
///
/// Postings are stored CSR-style: `postings[offsets[g]..offsets[g + 1]]`
/// holds the left-record indices containing gram `g`, in ascending order
/// (records are scanned in order at build time).
///
/// The CSR arrays are exposed (`from_parts` / part accessors) so the index
/// can be serialized into a snapshot and rebuilt without re-tokenizing the
/// reference table; the filter-side structures (frequency ranks, record
/// lengths, the CSR transpose and the per-record prefix postings) are pure
/// functions of the CSR arrays and are re-derived on load, so a rebuilt
/// index probes byte-identically.  [`Self::top_k`] is the public probe entry
/// point the online query path shares with batch blocking.
#[derive(Debug, Clone)]
pub struct GramIndex {
    offsets: Vec<u32>,
    postings: Vec<u32>,
    /// idf weight per gram id, derived from the *reference-side* document
    /// frequency (`ln(1 + |L| / (1 + df))`), like the paper's TF-IDF blocker.
    idf: Vec<f64>,
    num_left: usize,
    /// Global frequency rank per gram: `rank[g] = r` means gram `g` is the
    /// `r`-th rarest (df ascending, gram id breaking ties).  Ranks are a
    /// permutation, so comparisons on them are a strict total order.
    rank: Vec<u32>,
    /// Gram-set size per reference record.
    lengths: Vec<u32>,
    /// CSR transpose: `rec_grams[rec_offsets[l]..rec_offsets[l + 1]]` is the
    /// gram set of record `l`, ascending — the gather side of exact
    /// re-scoring.
    rec_offsets: Vec<u32>,
    rec_grams: Vec<u32>,
    /// Prefix postings: for each gram, the records whose rarest `⌈len/4⌉`
    /// grams include it (records ascending).  Σ lengths ≈ ¼ of the full
    /// postings arena.
    prefix_offsets: Vec<u32>,
    prefix_postings: Vec<u32>,
}

/// A scored candidate in the bounded top-k heap.
///
/// The `Ord` is inverted so that `BinaryHeap` (a max-heap) keeps the *worst*
/// kept candidate at the root: "greater" means lower score, ties broken
/// toward the higher left index.  Sorting a drained heap ascending therefore
/// yields candidates best-first with the deterministic `(score desc, index
/// asc)` order of a full sort.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    score: f64,
    left: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.left == other.left
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Scores are finite sums of finite idf weights, so partial_cmp never
        // fails in practice; Equal is a safe fallback that defers to the
        // index tie-break.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.left.cmp(&other.left))
    }
}

/// Per-scratch (hence per-worker) probe counters, merged deterministically
/// after the parallel chunks complete (integer sums are order-independent).
#[derive(Debug, Clone, Copy, Default)]
struct ProbeStats {
    kept_pairs: u64,
    per_probe_max: u64,
    scored_records: u64,
    postings_scanned: u64,
    postings_total: u64,
}

impl ProbeStats {
    fn merge(&mut self, other: &ProbeStats) {
        self.kept_pairs += other.kept_pairs;
        self.per_probe_max = self.per_probe_max.max(other.per_probe_max);
        self.scored_records += other.scored_records;
        self.postings_scanned += other.postings_scanned;
        self.postings_total += other.postings_total;
    }
}

/// Per-worker probe scratch: dense score accumulator, epoch-stamped touched
/// tracking, the bounded top-k heap and its drain buffer, plus the
/// filter-path buffers (rank-ordered probe grams, weight prefix sums, seed
/// list, admission stamps, the dense probe-weight table).  One instance
/// serves every probe a worker processes; nothing inside is reallocated
/// between probes once warmed up.
pub struct ProbeScratch {
    scores: Vec<f64>,
    /// `epoch[l] == cur` marks `scores[l]` as live for the current probe;
    /// resetting is a single counter bump instead of a table walk.
    epoch: Vec<u32>,
    cur: u32,
    touched: Vec<u32>,
    /// `admit_epoch[l] == admit_cur` marks `l` as already admitted (exactly
    /// scored, or the excluded record) for the current probe.
    admit_epoch: Vec<u32>,
    admit_cur: u32,
    /// Probe grams as `(rank, gram)`, sorted rarest-first.
    ord: Vec<(u32, u32)>,
    /// `psum[i]` = summed idf of the first `i` rank-ordered probe grams.
    psum: Vec<f64>,
    /// Warm-up seeds: records picked from the prefix walk for eager exact
    /// scoring.
    seeds: Vec<u32>,
    /// Dense probe weights by gram id: `probe_w[g]` is `idf[g]` while a
    /// filtered probe containing `g` runs and `0.0` otherwise.  Grown lazily
    /// to the probed index's gram count, so one scratch serves indexes over
    /// vocabularies of any size.
    probe_w: Vec<f64>,
    heap: BinaryHeap<HeapEntry>,
    drain: Vec<HeapEntry>,
    stats: ProbeStats,
}

impl ProbeScratch {
    /// Scratch sized for an index over `num_left` reference records.
    pub fn new(num_left: usize) -> Self {
        Self {
            scores: vec![0.0; num_left],
            epoch: vec![0; num_left],
            cur: 0,
            touched: Vec::new(),
            admit_epoch: vec![0; num_left],
            admit_cur: 0,
            ord: Vec::new(),
            psum: Vec::new(),
            seeds: Vec::new(),
            probe_w: Vec::new(),
            heap: BinaryHeap::new(),
            drain: Vec::new(),
            stats: ProbeStats::default(),
        }
    }

    /// Start a new probe: clear the touched list and advance the epoch
    /// (re-zeroing the stamp array on the — practically unreachable —
    /// wrap-around).
    fn begin(&mut self) {
        self.touched.clear();
        if self.cur == u32::MAX {
            self.epoch.fill(0);
            self.cur = 0;
        }
        self.cur += 1;
    }

    /// Start the admission phase of a probe (same epoch discipline as
    /// [`Self::begin`], on the admission stamps).
    fn begin_admit(&mut self) {
        if self.admit_cur == u32::MAX {
            self.admit_epoch.fill(0);
            self.admit_cur = 0;
        }
        self.admit_cur += 1;
    }
}

/// Relative inflation applied to every pruning bound before it is compared
/// (strictly) against an exact kept score.  Bounds are majorizing prefix-sum
/// segments whose float rounding error is ~`m · 2⁻⁵²` relative (m = probe
/// gram count, well under 1e-12); inflating by 1e-9 makes a wrongly-pruned
/// candidate impossible while costing effectively no pruning power.
const FILTER_INFL: f64 = 1.0 + 1e-9;
/// Absolute slack added alongside [`FILTER_INFL`], covering cancellation in
/// prefix-sum differences when the remaining suffix weight is tiny.
const FILTER_SLACK: f64 = 1e-12;

/// `true` when a candidate with upper bound `bound` could still reach (or
/// tie) an exact kept score of `worst` — i.e. pruning is NOT safe.
#[inline]
fn bound_reaches(bound: f64, worst: f64) -> bool {
    bound * FILTER_INFL + FILTER_SLACK >= worst
}

/// Rarest-prefix size of a record with `len` grams (`⌈len/4⌉`, 0 for empty
/// records — which never appear in postings anyway).
#[inline]
fn prefix_len(len: usize) -> usize {
    len.div_ceil(4)
}

impl GramIndex {
    /// Rows per shard of the partitioned index build: small enough that a
    /// 100k-row table spreads across every worker, large enough that the
    /// per-shard vocabulary-sized count arrays stay negligible.
    const BUILD_SHARD_ROWS: usize = 16_384;

    /// Build the index from the sorted, deduplicated gram-id sets of the
    /// reference records.  `num_grams` is the size of the shared vocabulary;
    /// grams that never occur in a reference record get an empty postings
    /// range (probe grams hitting them contribute nothing).
    ///
    /// The build is sharded: contiguous row partitions become per-shard
    /// sub-indexes (in parallel), merged gram-major in shard order into a
    /// CSR byte-identical to a sequential build.
    pub fn from_id_sets<S: AsRef<[u32]> + Sync>(left_sets: &[S], num_grams: usize) -> Self {
        Self::from_id_sets_sharded(left_sets, num_grams, Self::BUILD_SHARD_ROWS)
    }

    /// [`Self::from_id_sets`] with an explicit shard size — exposed so tests
    /// can pin that any partitioning merges to the same index.
    #[doc(hidden)]
    pub fn from_id_sets_sharded<S: AsRef<[u32]> + Sync>(
        left_sets: &[S],
        num_grams: usize,
        shard_rows: usize,
    ) -> Self {
        let shard_rows = shard_rows.max(1);
        let starts: Vec<usize> = (0..left_sets.len()).step_by(shard_rows).collect();
        // Per-shard sub-index: gram counts plus a shard-local CSR holding
        // *global* record ids.
        let shards: Vec<(Vec<u32>, Vec<u32>, Vec<u32>)> = starts
            .into_par_iter()
            .map(|start| {
                let end = (start + shard_rows).min(left_sets.len());
                let mut counts = vec![0u32; num_grams];
                for set in &left_sets[start..end] {
                    for &g in set.as_ref() {
                        counts[g as usize] += 1;
                    }
                }
                let mut offs = Vec::with_capacity(num_grams + 1);
                let mut acc = 0u32;
                offs.push(0);
                for &c in &counts {
                    acc += c;
                    offs.push(acc);
                }
                let mut cursor: Vec<u32> = offs[..num_grams].to_vec();
                let mut postings = vec![0u32; acc as usize];
                for (local, set) in left_sets[start..end].iter().enumerate() {
                    for &g in set.as_ref() {
                        let slot = &mut cursor[g as usize];
                        postings[*slot as usize] = (start + local) as u32;
                        *slot += 1;
                    }
                }
                (counts, offs, postings)
            })
            .collect();
        // Deterministic merge: per-gram runs concatenate in shard order.
        // Record ids ascend within a shard and shards are contiguous record
        // ranges, so the merged postings equal a single-shard build's.
        let mut counts = vec![0u32; num_grams];
        for (shard_counts, _, _) in &shards {
            for (total, &c) in counts.iter_mut().zip(shard_counts) {
                *total += c;
            }
        }
        let mut offsets = Vec::with_capacity(num_grams + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut postings = vec![0u32; acc as usize];
        let mut cursor: Vec<u32> = offsets[..num_grams].to_vec();
        for (shard_counts, shard_offs, shard_posts) in &shards {
            for g in 0..num_grams {
                let c = shard_counts[g] as usize;
                if c == 0 {
                    continue;
                }
                let dst = cursor[g] as usize;
                let src = shard_offs[g] as usize;
                postings[dst..dst + c].copy_from_slice(&shard_posts[src..src + c]);
                cursor[g] += c as u32;
            }
        }
        let n = left_sets.len().max(1) as f64;
        let idf = counts
            .iter()
            .map(|&df| (1.0 + n / (1.0 + df as f64)).ln())
            .collect();
        Self::finalize(offsets, postings, idf, left_sets.len())
    }

    /// Rebuild an index from its serialized CSR parts (see the part
    /// accessors).  The result behaves exactly like the index the parts came
    /// from — the filter structures are pure functions of the CSR arrays and
    /// are re-derived here.
    ///
    /// # Panics
    /// Panics if the parts are mutually inconsistent (offset table shape,
    /// posting count, or a posting out of `num_left` range).
    pub fn from_parts(
        offsets: Vec<u32>,
        postings: Vec<u32>,
        idf: Vec<f64>,
        num_left: usize,
    ) -> Self {
        assert!(
            !offsets.is_empty() && offsets.len() == idf.len() + 1,
            "offset table must have one entry per gram plus a terminator"
        );
        assert_eq!(offsets[0], 0, "offset table must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offset table must be non-decreasing"
        );
        assert_eq!(
            *offsets.last().unwrap() as usize,
            postings.len(),
            "offset terminator must equal the posting count"
        );
        assert!(
            postings.iter().all(|&li| (li as usize) < num_left.max(1)),
            "postings must index into the reference table"
        );
        Self::finalize(offsets, postings, idf, num_left)
    }

    /// Derive the filter-side structures (frequency ranks, record lengths,
    /// CSR transpose, prefix postings) from a finished CSR.  Everything here
    /// is a deterministic function of the inputs, so an index rebuilt from
    /// serialized parts probes identically to the one that was serialized.
    fn finalize(offsets: Vec<u32>, postings: Vec<u32>, idf: Vec<f64>, num_left: usize) -> Self {
        let num_grams = idf.len();
        // Global frequency order — the PPJoin token ordering on gram ids:
        // rarest first, ties toward the lower id.  df is read straight off
        // the offset table.
        let mut by_rarity: Vec<u32> = (0..num_grams as u32).collect();
        by_rarity.sort_unstable_by_key(|&g| (offsets[g as usize + 1] - offsets[g as usize], g));
        let mut rank = vec![0u32; num_grams];
        for (r, &g) in by_rarity.iter().enumerate() {
            rank[g as usize] = r as u32;
        }

        // CSR transpose: per-record gram lists, ascending (grams are visited
        // in ascending id order and postings ascend within a gram).
        let mut lengths = vec![0u32; num_left];
        for &li in &postings {
            lengths[li as usize] += 1;
        }
        let mut rec_offsets = Vec::with_capacity(num_left + 1);
        let mut acc = 0u32;
        rec_offsets.push(0);
        for &c in &lengths {
            acc += c;
            rec_offsets.push(acc);
        }
        let mut rec_grams = vec![0u32; postings.len()];
        let mut cursor: Vec<u32> = rec_offsets[..num_left].to_vec();
        for g in 0..num_grams {
            for &li in &postings[offsets[g] as usize..offsets[g + 1] as usize] {
                let slot = &mut cursor[li as usize];
                rec_grams[*slot as usize] = g as u32;
                *slot += 1;
            }
        }

        // Per-record prefix grams: the `⌈len/4⌉` rarest grams of each
        // record, flattened record-major (`prefix_len` makes the per-record
        // boundaries recomputable, so one flat buffer suffices).
        let mut prefix_counts = vec![0u32; num_grams];
        let mut chosen: Vec<u32> = Vec::with_capacity(postings.len().div_ceil(4) + num_left);
        let mut sel: Vec<u32> = Vec::new();
        for li in 0..num_left {
            let grams = &rec_grams[rec_offsets[li] as usize..rec_offsets[li + 1] as usize];
            let p = prefix_len(grams.len());
            if p == 0 {
                continue;
            }
            if p == grams.len() {
                for &g in grams {
                    prefix_counts[g as usize] += 1;
                    chosen.push(g);
                }
            } else {
                sel.clear();
                sel.extend_from_slice(grams);
                sel.select_nth_unstable_by_key(p - 1, |&g| rank[g as usize]);
                for &g in &sel[..p] {
                    prefix_counts[g as usize] += 1;
                    chosen.push(g);
                }
            }
        }
        let mut prefix_offsets = Vec::with_capacity(num_grams + 1);
        let mut acc = 0u32;
        prefix_offsets.push(0);
        for &c in &prefix_counts {
            acc += c;
            prefix_offsets.push(acc);
        }
        let mut prefix_postings = vec![0u32; acc as usize];
        let mut cursor: Vec<u32> = prefix_offsets[..num_grams].to_vec();
        let mut pos = 0usize;
        for li in 0..num_left {
            let len = (rec_offsets[li + 1] - rec_offsets[li]) as usize;
            let p = prefix_len(len);
            for &g in &chosen[pos..pos + p] {
                let slot = &mut cursor[g as usize];
                prefix_postings[*slot as usize] = li as u32;
                *slot += 1;
            }
            pos += p;
        }

        Self {
            offsets,
            postings,
            idf,
            num_left,
            rank,
            lengths,
            rec_offsets,
            rec_grams,
            prefix_offsets,
            prefix_postings,
        }
    }

    /// CSR offsets: `postings_of(g) = postings[offsets[g]..offsets[g + 1]]`.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat postings arena.
    pub fn postings(&self) -> &[u32] {
        &self.postings
    }

    /// Reference-side idf weight per gram id.
    pub fn idf(&self) -> &[f64] {
        &self.idf
    }

    /// Number of reference records the index was built over.
    pub fn num_left(&self) -> usize {
        self.num_left
    }

    /// Number of grams the index knows about.
    pub fn num_grams(&self) -> usize {
        self.idf.len()
    }

    #[inline]
    fn postings_of(&self, gram: u32) -> &[u32] {
        let g = gram as usize;
        &self.postings[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    #[inline]
    fn prefix_postings_of(&self, gram: u32) -> &[u32] {
        let g = gram as usize;
        &self.prefix_postings[self.prefix_offsets[g] as usize..self.prefix_offsets[g + 1] as usize]
    }

    /// Write the idf weight of every known probe gram into `probe_w`,
    /// growing it to [`Self::num_grams`] first.  `probe_w` must be all-zero
    /// on entry; [`Self::clear_probe_weights`] restores that afterwards.
    fn load_probe_weights(&self, probe: &[u32], probe_w: &mut Vec<f64>) {
        if probe_w.len() < self.idf.len() {
            probe_w.resize(self.idf.len(), 0.0);
        }
        for &g in probe {
            if let Some(&w) = self.idf.get(g as usize) {
                probe_w[g as usize] = w;
            }
        }
    }

    /// Zero the slots [`Self::load_probe_weights`] set for `probe`.
    fn clear_probe_weights(probe: &[u32], probe_w: &mut [f64]) {
        for &g in probe {
            if let Some(w) = probe_w.get_mut(g as usize) {
                *w = 0.0;
            }
        }
    }

    /// Exact blocking score of reference record `li` against the probe
    /// loaded into `probe_w`: the gather-sum of the probe weights over the
    /// record's ascending gram set.  The non-zero terms are the idf weights
    /// of the shared grams in ascending gram-id order — the *same* float
    /// summation sequence the dense unfiltered scan produces for this record
    /// — and every other term is `+0.0`, which leaves a non-negative sum
    /// unchanged, so filtered and unfiltered scores are bit-identical.
    #[inline]
    fn exact_score(&self, li: u32, probe_w: &[f64]) -> f64 {
        let l = li as usize;
        self.rec_grams[self.rec_offsets[l] as usize..self.rec_offsets[l + 1] as usize]
            .iter()
            .fold(0.0, |score, &g| score + probe_w[g as usize])
    }

    /// Admit record `li`: mark it, score it exactly, offer it to the bounded
    /// top-k heap.  The caller has already checked the admission stamp and
    /// the exclusion.
    #[inline]
    fn admit(
        &self,
        li: u32,
        k: usize,
        scratch: &mut ProbeScratch,
        trace: &mut Option<&mut Vec<u32>>,
    ) {
        scratch.admit_epoch[li as usize] = scratch.admit_cur;
        scratch.stats.scored_records += 1;
        if let Some(t) = trace.as_deref_mut() {
            t.push(li);
        }
        let entry = HeapEntry {
            score: self.exact_score(li, &scratch.probe_w),
            left: li,
        };
        if scratch.heap.len() < k {
            scratch.heap.push(entry);
        } else if let Some(mut worst) = scratch.heap.peek_mut() {
            // `entry < worst` under the inverted Ord means "better than the
            // worst kept candidate".
            if entry < *worst {
                *worst = entry;
            }
        }
    }

    /// Score every reference record sharing a gram with the probe and return
    /// the top-k indices (optionally excluding one index, used for L–L
    /// probes).  `probe` must be sorted and deduplicated — blocking
    /// similarity is over gram *sets*, and the ascending-id summation order
    /// fixes the floating-point result independent of thread count.
    ///
    /// This is the filter-pruned path (see the module docs); it returns
    /// exactly what [`Self::top_k_unfiltered`] returns, usually after
    /// walking a fraction of the postings.
    ///
    /// Probe gram ids at or beyond [`Self::num_grams`] are skipped: a gram
    /// the index has never seen contributes nothing, exactly like a known
    /// gram with an empty postings range.  This keeps probes over a
    /// vocabulary that grew after the index was built (online appends, query
    /// overflow ids) byte-identical to probing with the gram dropped.
    pub fn top_k(
        &self,
        probe: &[u32],
        k: usize,
        exclude: Option<u32>,
        scratch: &mut ProbeScratch,
    ) -> Vec<usize> {
        self.top_k_filtered_impl(probe, k, exclude, scratch, &mut None)
    }

    /// [`Self::top_k`] that additionally records, into `scored`, every
    /// record the filters admitted for exact scoring — the candidate
    /// superset property tests pin against the unfiltered top-k.
    #[doc(hidden)]
    pub fn top_k_traced(
        &self,
        probe: &[u32],
        k: usize,
        exclude: Option<u32>,
        scratch: &mut ProbeScratch,
        scored: &mut Vec<u32>,
    ) -> Vec<usize> {
        scored.clear();
        self.top_k_filtered_impl(probe, k, exclude, scratch, &mut Some(scored))
    }

    fn top_k_filtered_impl(
        &self,
        probe: &[u32],
        k: usize,
        exclude: Option<u32>,
        scratch: &mut ProbeScratch,
        trace: &mut Option<&mut Vec<u32>>,
    ) -> Vec<usize> {
        let k = k.min(self.num_left);
        if k == 0 {
            return Vec::new();
        }

        // Load the probe weights for the exact re-scores (cleared again
        // before the function returns), then rank-order the known probe
        // grams (rarest first) and prefix-sum their weights; grams with empty
        // postings contribute nothing and would only loosen the suffix
        // bounds, so they are dropped exactly like out-of-vocabulary ids.
        self.load_probe_weights(probe, &mut scratch.probe_w);
        scratch.ord.clear();
        let mut df_total = 0u64;
        for &g in probe {
            if (g as usize) < self.idf.len() {
                let df = self.offsets[g as usize + 1] - self.offsets[g as usize];
                if df > 0 {
                    scratch.ord.push((self.rank[g as usize], g));
                    df_total += df as u64;
                }
            }
        }
        scratch.stats.postings_total += df_total;
        scratch.ord.sort_unstable();
        let m = scratch.ord.len();
        scratch.psum.clear();
        scratch.psum.push(0.0);
        for i in 0..m {
            let w = self.idf[scratch.ord[i].1 as usize];
            let prev = scratch.psum[i];
            scratch.psum.push(prev + w);
        }

        // Warm-up: walk only the prefix postings, accumulating partial
        // scores, and seed the heap with the k most promising records (by
        // partial score, index breaking ties).  Partials only pick seeds —
        // every admitted record is re-scored exactly — so this phase can
        // never change the result, only make the bounds bite sooner.
        scratch.begin();
        let cur = scratch.cur;
        let mut warm_walked = 0u64;
        for i in 0..m {
            let g = scratch.ord[i].1;
            let w = self.idf[g as usize];
            let posts = self.prefix_postings_of(g);
            warm_walked += posts.len() as u64;
            for &li in posts {
                let l = li as usize;
                if scratch.epoch[l] == cur {
                    scratch.scores[l] += w;
                } else {
                    scratch.epoch[l] = cur;
                    scratch.scores[l] = w;
                    scratch.touched.push(li);
                }
            }
        }
        scratch.stats.postings_scanned += warm_walked;
        scratch.seeds.clear();
        for i in 0..scratch.touched.len() {
            let li = scratch.touched[i];
            if exclude == Some(li) {
                continue;
            }
            scratch.seeds.push(li);
        }
        if scratch.seeds.len() > k {
            let scores = &scratch.scores;
            scratch.seeds.select_nth_unstable_by(k - 1, |&a, &b| {
                scores[b as usize]
                    .partial_cmp(&scores[a as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            scratch.seeds.truncate(k);
        }

        scratch.begin_admit();
        scratch.heap.clear();
        let seeds = std::mem::take(&mut scratch.seeds);
        for &li in &seeds {
            self.admit(li, k, scratch, trace);
        }
        scratch.seeds = seeds;

        // Main walk, rarest gram first.  Every record is admitted (exactly
        // scored) the first time its length-band bound can still reach the
        // worst kept score; the walk stops when even the whole remaining
        // suffix weight cannot.  A record first seen at position `j` shares
        // no earlier probe gram (earlier full postings were walked
        // completely), so `psum[j + min(len, m - j)] - psum[j]` majorizes
        // its score.
        for j in 0..m {
            if scratch.heap.len() == k {
                let worst = scratch.heap.peek().expect("heap is full").score;
                let suffix = scratch.psum[m] - scratch.psum[j];
                if !bound_reaches(suffix, worst) {
                    break;
                }
            }
            let g = scratch.ord[j].1;
            let posts = self.postings_of(g);
            scratch.stats.postings_scanned += posts.len() as u64;
            for &li in posts {
                let l = li as usize;
                if scratch.admit_epoch[l] == scratch.admit_cur {
                    continue;
                }
                if exclude == Some(li) {
                    // Stamp it so later grams skip it on the fast path.
                    scratch.admit_epoch[l] = scratch.admit_cur;
                    continue;
                }
                if scratch.heap.len() == k {
                    let worst = scratch.heap.peek().expect("heap is full").score;
                    let reach = (self.lengths[l] as usize).min(m - j);
                    let bound = scratch.psum[j + reach] - scratch.psum[j];
                    if !bound_reaches(bound, worst) {
                        // Provably below the final k-th score (bounds only
                        // shrink and the worst kept only grows), so skipping
                        // it again at a later gram stays safe.
                        continue;
                    }
                }
                self.admit(li, k, scratch, trace);
            }
        }

        Self::clear_probe_weights(probe, &mut scratch.probe_w);
        self.drain_top_k(scratch)
    }

    /// The exhaustive probe: walk the full postings of every probe gram in
    /// ascending id order, dense-accumulate, bounded-heap the touched set.
    /// Retained as the executable specification of [`Self::top_k`] (property
    /// tests pin the two identical) and as the probe path of
    /// [`Blocker::without_filters`].
    pub fn top_k_unfiltered(
        &self,
        probe: &[u32],
        k: usize,
        exclude: Option<u32>,
        scratch: &mut ProbeScratch,
    ) -> Vec<usize> {
        let k = k.min(self.num_left);
        if k == 0 {
            return Vec::new();
        }
        scratch.begin();
        let cur = scratch.cur;
        let mut walked = 0u64;
        for &g in probe {
            if g as usize >= self.idf.len() {
                continue;
            }
            let w = self.idf[g as usize];
            let posts = self.postings_of(g);
            walked += posts.len() as u64;
            for &li in posts {
                let l = li as usize;
                if scratch.epoch[l] == cur {
                    scratch.scores[l] += w;
                } else {
                    scratch.epoch[l] = cur;
                    scratch.scores[l] = w;
                    scratch.touched.push(li);
                }
            }
        }
        scratch.stats.postings_scanned += walked;
        scratch.stats.postings_total += walked;
        scratch.heap.clear();
        let mut scored = 0u64;
        for i in 0..scratch.touched.len() {
            let li = scratch.touched[i];
            if exclude == Some(li) {
                continue;
            }
            scored += 1;
            let entry = HeapEntry {
                score: scratch.scores[li as usize],
                left: li,
            };
            if scratch.heap.len() < k {
                scratch.heap.push(entry);
            } else if let Some(mut worst) = scratch.heap.peek_mut() {
                // `entry < worst` under the inverted Ord means "better than
                // the worst kept candidate".
                if entry < *worst {
                    *worst = entry;
                }
            }
        }
        scratch.stats.scored_records += scored;
        self.drain_top_k(scratch)
    }

    /// Drain the heap best-first into a candidate list and update the kept
    /// counters.
    fn drain_top_k(&self, scratch: &mut ProbeScratch) -> Vec<usize> {
        scratch.drain.clear();
        scratch.drain.extend(scratch.heap.drain());
        // Ascending under the inverted Ord == best-first.
        scratch.drain.sort_unstable();
        scratch.stats.kept_pairs += scratch.drain.len() as u64;
        scratch.stats.per_probe_max = scratch.stats.per_probe_max.max(scratch.drain.len() as u64);
        scratch.drain.iter().map(|e| e.left as usize).collect()
    }
}

/// Run `probes` through the index in contiguous chunks — one chunk per
/// worker, one [`ProbeScratch`] per chunk — and concatenate the per-chunk
/// candidate lists in probe order.  `exclude` maps a probe position to a left
/// index that must not appear in its candidates (self-exclusion for L–L).
/// Per-chunk probe counters merge into one [`ProbeStats`] (integer sums, so
/// the totals are identical at every thread count).
fn probe_chunks<S: AsRef<[u32]> + Sync>(
    index: &GramIndex,
    probes: &[S],
    k: usize,
    exclude: impl Fn(usize) -> Option<u32> + Sync,
    filtered: bool,
) -> (Vec<Vec<usize>>, ProbeStats) {
    let n = probes.len();
    if n == 0 {
        return (Vec::new(), ProbeStats::default());
    }
    let chunk = n.div_ceil(rayon::current_num_threads().max(1)).max(1);
    let starts: Vec<usize> = (0..n).step_by(chunk).collect();
    let per_chunk: Vec<(Vec<Vec<usize>>, ProbeStats)> = starts
        .into_par_iter()
        .map(|start| {
            let end = (start + chunk).min(n);
            let mut scratch = ProbeScratch::new(index.num_left);
            let lists = (start..end)
                .map(|i| {
                    let probe = probes[i].as_ref();
                    if filtered {
                        index.top_k(probe, k, exclude(i), &mut scratch)
                    } else {
                        index.top_k_unfiltered(probe, k, exclude(i), &mut scratch)
                    }
                })
                .collect();
            (lists, scratch.stats)
        })
        .collect();
    let mut stats = ProbeStats::default();
    let mut lists = Vec::with_capacity(n);
    for (chunk_lists, chunk_stats) in per_chunk {
        stats.merge(&chunk_stats);
        lists.extend(chunk_lists);
    }
    (lists, stats)
}

impl Blocker {
    /// A blocker with the paper's default factor `β = 1.5` (filters on).
    pub fn new() -> Self {
        Self::default()
    }

    /// A blocker with a custom factor `β` (Figure 6(d) sweeps this).
    ///
    /// # Panics
    /// Panics if `factor` is not strictly positive and finite.
    pub fn with_factor(factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "blocking factor must be positive and finite, got {factor}"
        );
        Self {
            factor,
            filters: true,
        }
    }

    /// This blocker with the PPJoin-style probe filters disabled — probes
    /// take the exhaustive [`GramIndex::top_k_unfiltered`] scan.  Produces
    /// identical candidate lists (property-pinned); exists as the reference
    /// arm of that pin and as an escape hatch.
    pub fn without_filters(mut self) -> Self {
        self.filters = false;
        self
    }

    /// Whether the filter-pruned probe path is enabled.
    pub fn filters(&self) -> bool {
        self.filters
    }

    /// Reference-table size at which an enabled blocker actually engages
    /// the filtered probe.  The filters are exact at any size, and with the
    /// gather-sum re-score they no longer lose to the dense walk at 10k:
    /// on the 10 304 × 10 500 medium smoke task (host_parallelism 2, three
    /// runs each) the filtered L–R + L–L probes take 1.9–2.2 s against the
    /// dense walk's 2.8–3.2 s, with identical candidates; at 33 120
    /// reference rows they take 7.4 s.  The crossover stays at this value
    /// because the end-to-end benchmark's `medium` workload is defined on
    /// the dense path; retiring the dense walk (and this constant) is left
    /// to a change that redefines that workload.  Candidate lists are
    /// byte-identical either way (property-pinned), so the switch can never
    /// change results.
    pub const FILTER_MIN_LEFT: usize = 32_768;

    /// Whether a table of `left_len` reference records takes the filtered
    /// probe path under this blocker's settings.
    pub fn filters_engaged(&self, left_len: usize) -> bool {
        self.filters && left_len >= Self::FILTER_MIN_LEFT
    }

    /// The blocking factor β.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Number of candidates kept per probe record for a reference table of
    /// size `left_len`: `⌈β·√|L|⌉`, at least 1.
    pub fn candidates_per_record(&self, left_len: usize) -> usize {
        ((self.factor * (left_len as f64).sqrt()).ceil() as usize).max(1)
    }

    /// Run blocking over raw strings, producing L–R and L–L candidate sets.
    ///
    /// Reference records are tokenized into interned gram ids sequentially
    /// (so id assignment is deterministic at every thread count); probe
    /// records only *look up* gram ids, which is read-only and runs in
    /// parallel chunks with per-worker scratch.  Candidate lists keep the
    /// same deterministic order regardless of thread count.
    pub fn block<S1: AsRef<str> + Sync, S2: AsRef<str> + Sync>(
        &self,
        left: &[S1],
        right: &[S2],
    ) -> BlockingOutput {
        let prep = Preprocessing::Lower;
        let mut vocab = Vocab::new();
        let mut scratch = GramScratch::default();
        let mut buf: Vec<u32> = Vec::new();
        let left_sets: Vec<Vec<u32>> = left
            .iter()
            .map(|s| {
                buf.clear();
                qgram_intern_into(
                    &prep.apply(s.as_ref()),
                    3,
                    &mut vocab,
                    &mut buf,
                    &mut scratch,
                );
                buf.sort_unstable();
                buf.dedup();
                buf.clone()
            })
            .collect();
        let vocab = &vocab;
        let chunk = right
            .len()
            .div_ceil(rayon::current_num_threads().max(1))
            .max(1);
        let right_sets: Vec<Vec<u32>> = right
            .chunks(chunk)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|records| {
                let mut scratch = GramScratch::default();
                records
                    .iter()
                    .map(|s| {
                        let mut ids = Vec::new();
                        qgram_lookup_into(
                            &prep.apply(s.as_ref()),
                            3,
                            vocab,
                            &mut ids,
                            &mut scratch,
                        );
                        ids.sort_unstable();
                        ids.dedup();
                        ids
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        self.block_id_sets(&left_sets, &right_sets, vocab.len())
    }

    /// Run blocking over a [`PreparedColumn`] holding the `num_left`
    /// reference records followed by the query records — the zero-tokenization
    /// path used by the single-column pipeline, which prepares each record
    /// exactly once and shares the interned gram sets across blocking,
    /// negative rules and distance evaluation.
    ///
    /// Uses the `(lower-case, 3-gram)` scheme of the column.  Equivalent to
    /// [`Self::block`] on the raw strings: the shared vocabulary assigns
    /// reference-side grams the same relative ids (reference records are
    /// interned first), and query-only grams have empty postings.
    pub fn block_prepared(&self, col: &PreparedColumn, num_left: usize) -> BlockingOutput {
        assert!(
            num_left <= col.len(),
            "num_left ({num_left}) exceeds column length ({})",
            col.len()
        );
        let si = scheme_index(Preprocessing::Lower, Tokenization::Gram3);
        let sets: Vec<&[u32]> = (0..col.len())
            .map(|i| col.record(i).token_sets[si].as_slice())
            .collect();
        let num_grams = col.vocab(Preprocessing::Lower, Tokenization::Gram3).len();
        self.block_id_sets(&sets[..num_left], &sets[num_left..], num_grams)
    }

    /// Run blocking directly over interned gram-id sets (each sorted and
    /// deduplicated, ids `< num_grams`).  This is the layer both string entry
    /// points converge on, and the one the property tests exercise.
    pub fn block_id_sets<S1: AsRef<[u32]> + Sync, S2: AsRef<[u32]> + Sync>(
        &self,
        left_sets: &[S1],
        right_sets: &[S2],
        num_grams: usize,
    ) -> BlockingOutput {
        let index = GramIndex::from_id_sets(left_sets, num_grams);
        let k = self.candidates_per_record(left_sets.len());
        let filtered = self.filters_engaged(left_sets.len());
        let (left_candidates_of_right, lr) =
            probe_chunks(&index, right_sets, k, |_| None, filtered);
        let (left_candidates_of_left, ll) =
            probe_chunks(&index, left_sets, k, |i| Some(i as u32), filtered);
        let stats = BlockingStats {
            lr_pairs: lr.kept_pairs,
            ll_pairs: ll.kept_pairs,
            per_probe_max: lr.per_probe_max.max(ll.per_probe_max),
            scored_records: lr.scored_records + ll.scored_records,
            postings_scanned: lr.postings_scanned + ll.postings_scanned,
            postings_total: lr.postings_total + ll.postings_total,
        };
        BlockingOutput {
            left_candidates_of_right,
            left_candidates_of_left,
            candidates_per_record: k,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Executable spec of [`GramIndex::exact_score`]: merge record `li`'s
    /// ascending gram set with the sorted probe and sum idf at the matches,
    /// in ascending gram-id order.
    fn merge_score(index: &GramIndex, li: u32, probe: &[u32]) -> f64 {
        let l = li as usize;
        let grams =
            &index.rec_grams[index.rec_offsets[l] as usize..index.rec_offsets[l + 1] as usize];
        let mut score = 0.0f64;
        let (mut i, mut j) = (0usize, 0usize);
        while i < grams.len() && j < probe.len() {
            match grams[i].cmp(&probe[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    score += index.idf[grams[i] as usize];
                    i += 1;
                    j += 1;
                }
            }
        }
        score
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The gather-sum re-score equals the merge spec bit for bit on
        /// random gram sets — empty records and probe ids at or above
        /// `num_grams` included — and clearing restores an all-zero table.
        #[test]
        fn gather_score_matches_merge_spec_bitwise(
            num_grams in 1usize..40,
            records in proptest::collection::vec(
                proptest::collection::vec(0u32..48, 0..24),
                1..12,
            ),
            probe in proptest::collection::vec(0u32..64, 0..32),
        ) {
            let sets: Vec<Vec<u32>> = records
                .iter()
                .map(|r| {
                    let mut set: Vec<u32> = r.iter().map(|&g| g % num_grams as u32).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            let mut probe = probe;
            probe.sort_unstable();
            probe.dedup();
            let index = GramIndex::from_id_sets(&sets, num_grams);
            let mut probe_w = Vec::new();
            index.load_probe_weights(&probe, &mut probe_w);
            for li in 0..sets.len() as u32 {
                prop_assert_eq!(
                    index.exact_score(li, &probe_w).to_bits(),
                    merge_score(&index, li, &probe).to_bits()
                );
            }
            GramIndex::clear_probe_weights(&probe, &mut probe_w);
            prop_assert!(probe_w.iter().all(|&w| w.to_bits() == 0));
        }
    }

    fn teams() -> Vec<String> {
        (2000..2040)
            .flat_map(|year| {
                [
                    "LSU Tigers football",
                    "Wisconsin Badgers football",
                    "Alabama Crimson Tide",
                ]
                .iter()
                .map(move |t| format!("{year} {t} team"))
            })
            .collect()
    }

    /// Tokenize raw strings the way `Blocker::block` does (lower-case
    /// 3-grams, interned left-first), for tests that drive `GramIndex`
    /// directly.
    fn id_sets(left: &[String], right: &[String]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, usize) {
        let prep = Preprocessing::Lower;
        let mut vocab = Vocab::new();
        let mut scratch = GramScratch::default();
        let mut tok = |s: &str, vocab: &mut Vocab| {
            let mut ids = Vec::new();
            qgram_intern_into(&prep.apply(s), 3, vocab, &mut ids, &mut scratch);
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let left_sets: Vec<Vec<u32>> = left.iter().map(|s| tok(s, &mut vocab)).collect();
        let right_sets: Vec<Vec<u32>> = right.iter().map(|s| tok(s, &mut vocab)).collect();
        let n = vocab.len();
        (left_sets, right_sets, n)
    }

    #[test]
    fn candidates_per_record_follows_beta_sqrt_l() {
        let b = Blocker::with_factor(1.0);
        assert_eq!(b.candidates_per_record(100), 10);
        let b = Blocker::with_factor(1.5);
        assert_eq!(b.candidates_per_record(100), 15);
        assert_eq!(b.candidates_per_record(0), 1);
    }

    #[test]
    fn exact_match_survives_blocking() {
        let left = teams();
        let right = vec![left[7].clone(), left[42].clone()];
        let out = Blocker::new().block(&left, &right);
        assert!(out.left_candidates_of_right[0].contains(&7));
        assert!(out.left_candidates_of_right[1].contains(&42));
    }

    #[test]
    fn fuzzy_match_survives_blocking() {
        let left = teams();
        let right = vec!["2003 LSU Tigres footbal".to_string()];
        let out = Blocker::new().block(&left, &right);
        // The true counterpart "2003 LSU Tigers football team" is at index 9.
        assert!(out.left_candidates_of_right[0].contains(&9));
    }

    #[test]
    fn ll_candidates_exclude_self() {
        let left = teams();
        let out = Blocker::new().block(&left, &left[..0]);
        for (li, cands) in out.left_candidates_of_left.iter().enumerate() {
            assert!(!cands.contains(&li));
        }
    }

    #[test]
    fn candidate_lists_respect_k() {
        let left = teams();
        let b = Blocker::with_factor(0.5);
        let out = b.block(&left, &left);
        let k = out.candidates_per_record;
        assert!(out.left_candidates_of_right.iter().all(|c| c.len() <= k));
        assert!(out.left_candidates_of_left.iter().all(|c| c.len() <= k));
    }

    #[test]
    fn larger_factor_keeps_more_candidates() {
        let left = teams();
        let right = vec!["2005 LSU Tigers football team".to_string()];
        let small = Blocker::with_factor(0.5).block(&left, &right);
        let large = Blocker::with_factor(3.0).block(&left, &right);
        assert!(large.left_candidates_of_right[0].len() >= small.left_candidates_of_right[0].len());
    }

    #[test]
    fn empty_tables_are_handled() {
        let out = Blocker::new().block::<&str, &str>(&[], &[]);
        assert_eq!(out.num_lr_pairs(), 0);
        assert_eq!(out.num_ll_pairs(), 0);
        let out = Blocker::new().block(&["only left"], &[] as &[&str]);
        assert!(out.left_candidates_of_right.is_empty());
        assert_eq!(out.left_candidates_of_left.len(), 1);
    }

    #[test]
    fn completely_unrelated_probe_gets_few_or_no_candidates() {
        let left = teams();
        let right = vec!["零件 øøøø ØØØ".to_string()];
        let out = Blocker::new().block(&left, &right);
        assert!(out.left_candidates_of_right[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "blocking factor")]
    fn zero_factor_panics() {
        let _ = Blocker::with_factor(0.0);
    }

    #[test]
    fn prepared_path_matches_raw_string_path() {
        let left = teams();
        let right = vec![
            "2003 LSU Tigres footbal".to_string(),
            "2015 Wisconsin Badgers football team".to_string(),
            "unrelated probe".to_string(),
        ];
        let raw = Blocker::new().block(&left, &right);
        let all: Vec<&str> = left
            .iter()
            .map(String::as_str)
            .chain(right.iter().map(String::as_str))
            .collect();
        let col = PreparedColumn::build(&all);
        let prepared = Blocker::new().block_prepared(&col, left.len());
        assert_eq!(
            raw.left_candidates_of_right,
            prepared.left_candidates_of_right
        );
        assert_eq!(
            raw.left_candidates_of_left,
            prepared.left_candidates_of_left
        );
        assert_eq!(raw.candidates_per_record, prepared.candidates_per_record);
    }

    #[test]
    fn top_k_ties_break_toward_lower_index() {
        // Four identical reference records: every probe scores them equally,
        // so the kept candidates must be the lowest indices, ascending.
        let left = vec!["aaa bbb"; 4];
        let b = Blocker::with_factor(0.5); // k = 1
        let out = b.block(&left, &["aaa bbb"]);
        assert_eq!(out.left_candidates_of_right[0], vec![0]);
        let b = Blocker::with_factor(1.0); // k = 2
        let out = b.block(&left, &["aaa bbb"]);
        assert_eq!(out.left_candidates_of_right[0], vec![0, 1]);
    }

    #[test]
    fn index_round_trips_through_parts() {
        let sets: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![1, 3], vec![0, 3, 4]];
        let index = GramIndex::from_id_sets(&sets, 5);
        let rebuilt = GramIndex::from_parts(
            index.offsets().to_vec(),
            index.postings().to_vec(),
            index.idf().to_vec(),
            index.num_left(),
        );
        let mut a = ProbeScratch::new(index.num_left());
        let mut b = ProbeScratch::new(rebuilt.num_left());
        for probe in &sets {
            assert_eq!(
                index.top_k(probe, 2, None, &mut a),
                rebuilt.top_k(probe, 2, None, &mut b)
            );
        }
    }

    #[test]
    fn out_of_range_probe_grams_score_like_empty_postings() {
        let sets: Vec<Vec<u32>> = vec![vec![0, 1], vec![1, 2]];
        // Index built over a 3-gram vocabulary; the same index built over a
        // larger vocabulary gives the extra grams empty postings.
        let narrow = GramIndex::from_id_sets(&sets, 3);
        let wide = GramIndex::from_id_sets(&sets, 6);
        let mut a = ProbeScratch::new(narrow.num_left());
        let mut b = ProbeScratch::new(wide.num_left());
        // Probe contains grams (4, 5) unknown to the narrow index.
        let probe = vec![0u32, 1, 4, 5];
        assert_eq!(
            narrow.top_k(&probe, 2, None, &mut a),
            wide.top_k(&probe, 2, None, &mut b)
        );
    }

    #[test]
    #[should_panic(expected = "offset terminator")]
    fn inconsistent_parts_are_rejected() {
        let _ = GramIndex::from_parts(vec![0, 2], vec![0], vec![1.0], 1);
    }

    #[test]
    fn scratch_reuse_across_probes_is_clean() {
        // Many probes through one worker (1 thread) must not leak scores
        // between probes: a probe sharing nothing with the reference table
        // still gets no candidates even after high-scoring probes.
        let left = teams();
        let right: Vec<String> = (0..10)
            .flat_map(|_| {
                [
                    left[3].clone(),
                    "零件 øøøø ØØØ".to_string(), // no shared grams
                ]
            })
            .collect();
        let out = Blocker::new().block(&left, &right);
        for (i, cands) in out.left_candidates_of_right.iter().enumerate() {
            if i % 2 == 1 {
                assert!(cands.is_empty(), "probe {i} leaked candidates");
            } else {
                assert!(cands.contains(&3));
            }
        }
    }

    #[test]
    fn scratch_reuse_across_indexes_matches_fresh_scratch() {
        // One scratch alternates between two indexes whose vocabularies
        // differ in size (the second shifts every gram id up): no probe
        // weight may survive from one probe into the next.
        let left = teams();
        let (sets, _, num_grams) = id_sets(&left, &[]);
        let shift = 13u32;
        let shifted: Vec<Vec<u32>> = sets
            .iter()
            .rev()
            .map(|s| s.iter().map(|&g| g + shift).collect())
            .collect();
        let narrow = GramIndex::from_id_sets(&sets, num_grams);
        let wide = GramIndex::from_id_sets(&shifted, num_grams + shift as usize);
        assert_eq!(narrow.num_left(), wide.num_left());
        let mut shared = ProbeScratch::new(narrow.num_left());
        for k in [1usize, 3, 8] {
            for (i, (a, b)) in sets.iter().zip(&shifted).enumerate() {
                for (index, probe) in [(&wide, a), (&narrow, b), (&narrow, a), (&wide, b)] {
                    let exclude = Some(i as u32);
                    let mut fresh = ProbeScratch::new(index.num_left());
                    assert_eq!(
                        index.top_k(probe, k, exclude, &mut shared),
                        index.top_k(probe, k, exclude, &mut fresh),
                        "k={k}, probe={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn filtered_probe_matches_unfiltered_probe() {
        let left = teams();
        let right = vec![
            "2003 LSU Tigres footbal".to_string(),
            "2015 Wisconsin Badgers football team".to_string(),
            "Alabama".to_string(),
            "totally unrelated".to_string(),
        ];
        let (left_sets, right_sets, num_grams) = id_sets(&left, &right);
        let index = GramIndex::from_id_sets(&left_sets, num_grams);
        let mut a = ProbeScratch::new(index.num_left());
        let mut b = ProbeScratch::new(index.num_left());
        for k in [1usize, 3, 10, 200] {
            for probe in right_sets.iter().chain(left_sets.iter()) {
                assert_eq!(
                    index.top_k(probe, k, None, &mut a),
                    index.top_k_unfiltered(probe, k, None, &mut b),
                    "k={k}"
                );
            }
            for (i, probe) in left_sets.iter().enumerate() {
                assert_eq!(
                    index.top_k(probe, k, Some(i as u32), &mut a),
                    index.top_k_unfiltered(probe, k, Some(i as u32), &mut b),
                    "k={k}, exclude={i}"
                );
            }
        }
    }

    #[test]
    fn without_filters_blocker_matches_default() {
        let left = teams();
        let right = vec![
            "2003 LSU Tigres footbal".to_string(),
            "Alabama Crimson".to_string(),
        ];
        let filtered = Blocker::with_factor(0.8).block(&left, &right);
        let unfiltered = Blocker::with_factor(0.8)
            .without_filters()
            .block(&left, &right);
        assert_eq!(
            filtered.left_candidates_of_right,
            unfiltered.left_candidates_of_right
        );
        assert_eq!(
            filtered.left_candidates_of_left,
            unfiltered.left_candidates_of_left
        );
    }

    #[test]
    fn sharded_build_matches_single_shard_build() {
        let left = teams();
        let (left_sets, _, num_grams) = id_sets(&left, &[]);
        let whole = GramIndex::from_id_sets_sharded(&left_sets, num_grams, usize::MAX);
        for shard_rows in [1usize, 2, 7, 64] {
            let sharded = GramIndex::from_id_sets_sharded(&left_sets, num_grams, shard_rows);
            assert_eq!(whole.offsets(), sharded.offsets(), "shard={shard_rows}");
            assert_eq!(whole.postings(), sharded.postings(), "shard={shard_rows}");
            assert_eq!(whole.idf(), sharded.idf(), "shard={shard_rows}");
        }
    }

    #[test]
    fn traced_scored_set_covers_unfiltered_top_k() {
        let left = teams();
        let right = vec![
            "2003 LSU Tigres footbal".to_string(),
            "2015 Wisconsin Badgers".to_string(),
        ];
        let (left_sets, right_sets, num_grams) = id_sets(&left, &right);
        let index = GramIndex::from_id_sets(&left_sets, num_grams);
        let mut a = ProbeScratch::new(index.num_left());
        let mut b = ProbeScratch::new(index.num_left());
        let mut scored = Vec::new();
        for probe in &right_sets {
            for k in [1usize, 5, 20] {
                let kept = index.top_k_traced(probe, k, None, &mut a, &mut scored);
                let unfiltered = index.top_k_unfiltered(probe, k, None, &mut b);
                assert_eq!(kept, unfiltered);
                for &li in &unfiltered {
                    assert!(
                        scored.contains(&(li as u32)),
                        "top-k candidate {li} was never admitted for scoring"
                    );
                }
            }
        }
    }

    #[test]
    fn blocking_stats_are_recorded_and_sane() {
        let left = teams();
        let right = vec![left[5].clone(), "2003 LSU Tigres footbal".to_string()];
        let out = Blocker::new().block(&left, &right);
        let s = &out.stats;
        assert_eq!(s.lr_pairs as usize, out.num_lr_pairs());
        assert_eq!(s.ll_pairs as usize, out.num_ll_pairs());
        assert!(s.per_probe_max as usize <= out.candidates_per_record);
        assert!(s.scored_records >= s.lr_pairs + s.ll_pairs);
        assert!(
            s.postings_scanned <= s.postings_total + s.postings_total / 4 + 8,
            "scanned {} should stay within the full walk plus the prefix warm-up ({})",
            s.postings_scanned,
            s.postings_total
        );
        assert!((0.0..=1.0).contains(&s.reduction_ratio()));
        // The unfiltered arm reports a full traversal: zero reduction.
        let un = Blocker::new().without_filters().block(&left, &right);
        assert_eq!(un.stats.postings_scanned, un.stats.postings_total);
        assert_eq!(un.stats.reduction_ratio(), 0.0);
    }

    #[test]
    fn filters_engage_by_reference_table_size() {
        let b = Blocker::new();
        assert!(b.filters());
        assert!(!b.filters_engaged(Blocker::FILTER_MIN_LEFT - 1));
        assert!(b.filters_engaged(Blocker::FILTER_MIN_LEFT));
        let off = Blocker::new().without_filters();
        assert!(!off.filters_engaged(Blocker::FILTER_MIN_LEFT * 2));
    }

    #[test]
    fn rebuilt_index_probes_like_the_original_with_filters() {
        // from_parts must re-derive the filter structures: probe answers of
        // a rebuilt index match the original even where pruning kicks in.
        let left = teams();
        let (left_sets, _, num_grams) = id_sets(&left, &[]);
        let index = GramIndex::from_id_sets(&left_sets, num_grams);
        let rebuilt = GramIndex::from_parts(
            index.offsets().to_vec(),
            index.postings().to_vec(),
            index.idf().to_vec(),
            index.num_left(),
        );
        let mut a = ProbeScratch::new(index.num_left());
        let mut b = ProbeScratch::new(rebuilt.num_left());
        for (i, probe) in left_sets.iter().enumerate() {
            assert_eq!(
                index.top_k(probe, 7, Some(i as u32), &mut a),
                rebuilt.top_k(probe, 7, Some(i as u32), &mut b)
            );
        }
    }
}
