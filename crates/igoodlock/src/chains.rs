//! Algorithm 1: iterative computation of potential deadlock cycles.
//!
//! Two implementations of the same join live here:
//!
//! * [`igoodlock`] / [`igoodlock_filtered`] — the **indexed** join. Locks
//!   and threads are interned to dense per-run ids, locksets become
//!   bitsets, and candidates for extending a chain come from a per-lock
//!   bucket (see [`crate::index`]) instead of a scan of the whole
//!   relation. Each level's open chains live in two flat arrays (dep
//!   indices and bitset words) that the join reuses level after level,
//!   so it allocates per level, never per chain; threads, locks and
//!   contexts are materialized from the relation when a cycle is
//!   actually reported. It is the only join the pipeline runs, whatever
//!   the relation's size.
//! * [`naive_igoodlock`] / [`naive_igoodlock_filtered`] — the original
//!   brute-force join, kept verbatim as a test oracle. Every property
//!   test and the equivalence suite assert the two produce byte-identical
//!   cycle reports and identical [`IGoodlockStats::chains_built`].
//!
//! Both walk candidate extensions in relation order and accept exactly
//! the tuples that pass Definition 2 plus the §2.2.3 dedup rule, so the
//! indexed join is a pure strength reduction: same cycles, same order,
//! same truncation points, fewer tuples touched.

use std::collections::HashSet;

use df_events::{AcquireMode, ObjId, ThreadId};
use serde::{Deserialize, Serialize};

use crate::cycle::{Cycle, CycleComponent};
use crate::index::{bits, JoinIndex};
use crate::relation::{LockDep, LockDependencyRelation};

/// Options bounding the iGoodlock computation.
///
/// The paper notes iGoodlock is iterative — all cycles of length `k` are
/// found before any of length `k + 1` — so with a limited budget it can be
/// stopped after the first iteration (cycles of length 2). All real
/// deadlocks in the paper's benchmarks have length 2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IGoodlockOptions {
    /// Maximum cycle length to search for (`None` = unbounded, i.e. run
    /// until no chains remain).
    pub max_cycle_length: Option<usize>,
    /// Stop after reporting this many cycles.
    pub max_cycles: usize,
    /// Abandon the search if an iteration would hold more than this many
    /// open chains (guards against pathological relations).
    pub max_open_chains: usize,
}

impl Default for IGoodlockOptions {
    fn default() -> Self {
        IGoodlockOptions {
            max_cycle_length: None,
            max_cycles: 10_000,
            max_open_chains: 1_000_000,
        }
    }
}

impl IGoodlockOptions {
    /// Convenience: the "limited time budget" configuration of the paper
    /// (one iteration, cycles of length 2 only).
    pub fn length_two_only() -> Self {
        IGoodlockOptions {
            max_cycle_length: Some(2),
            ..IGoodlockOptions::default()
        }
    }
}

/// Statistics of an iGoodlock run (exposed for the bench harness).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IGoodlockStats {
    /// Number of iterations executed (max chain length examined).
    pub iterations: usize,
    /// Total chains ever constructed.
    pub chains_built: u64,
    /// Whether the search was truncated by a limit.
    pub truncated: bool,
    /// Cycles suppressed by the happens-before filter (0 when the filter
    /// is off).
    pub pruned_by_hb: u64,
    /// Open chains alive at the start of each join iteration — the size
    /// of `D_k` as Algorithm 1 iterates, exposed so the observability
    /// layer can report how the join fans out per level.
    pub chains_per_iteration: Vec<u64>,
    /// Largest number of open chains alive at the start of any join
    /// iteration (the peak of `chains_per_iteration`) — how wide the
    /// join got before it drained.
    pub peak_open_chains: u64,
    /// Relation tuples examined as extension candidates, summed over
    /// every (chain, candidate) pair of every iteration. The naive join
    /// examines `|D|` tuples per open chain; the indexed join examines
    /// only the bucket of the chain's last lock, so the ratio between
    /// the two is the join index's hit rate.
    pub join_candidates_examined: u64,
}

/// Where an open chain's four bitsets sit in its block of words, all
/// over the per-run interned ids: the threads present (Definition
/// 2(1)), the acquired locks present (2(2)), the union of component
/// locksets in any hold mode, and the union of their *exclusively held*
/// locksets. The last two are the two sides of the mode-aware 2(4): a
/// candidate's hold conflicts with the exclusive union, and its
/// exclusive holds conflict with the whole union.
#[derive(Clone, Copy)]
struct ChainWords {
    thread_words: usize,
    lock_words: usize,
}

impl ChainWords {
    fn new(index: &JoinIndex) -> Self {
        ChainWords {
            thread_words: index.thread_words(),
            lock_words: index.lock_words(),
        }
    }

    /// Words per chain.
    fn stride(self) -> usize {
        self.thread_words + 3 * self.lock_words
    }

    /// The block's (threads, locks, lockset union, exclusive union).
    fn split(self, block: &[u64]) -> (&[u64], &[u64], &[u64], &[u64]) {
        let (threads, rest) = block.split_at(self.thread_words);
        let (locks, rest) = rest.split_at(self.lock_words);
        let (union, excl_union) = rest.split_at(self.lock_words);
        (threads, locks, union, excl_union)
    }

    /// Adds tuple `i` to the chain whose block is `block`.
    fn add(self, block: &mut [u64], i: usize, index: &JoinIndex) {
        let (threads, rest) = block.split_at_mut(self.thread_words);
        let (locks, rest) = rest.split_at_mut(self.lock_words);
        let (union, excl_union) = rest.split_at_mut(self.lock_words);
        bits::insert(threads, index.thread_bit[i]);
        bits::insert(locks, index.lock[i]);
        bits::union_into(union, index.lockset(i));
        bits::union_into(excl_union, index.lockset_excl(i));
    }

    /// The Definition 2 + §2.2.3 filter for appending candidate `c` to
    /// the chain whose block is `block` and whose first component runs
    /// in thread `root`: dedup root is the minimum thread id, threads
    /// and acquired locks pairwise distinct, and the mode-aware
    /// disjoint-locksets check.
    fn admits(self, block: &[u64], root: ThreadId, c: usize, index: &JoinIndex) -> bool {
        let (threads, locks, union, excl_union) = self.split(block);
        !(index.thread[c] <= root
            || bits::contains(threads, index.thread_bit[c])
            || bits::contains(locks, index.lock[c])
            || bits::intersects(index.lockset(c), excl_union)
            || bits::intersects(index.lockset_excl(c), union))
    }
}

/// The open chains of one join level `D_k`, in flat storage: chain `n`
/// is the dep indices `deps[n * len..(n + 1) * len]` plus the block
/// `words[n * stride..(n + 1) * stride]` that [`ChainWords`] lays out.
/// The last lock, its mode and the root thread are read from the deps.
/// The join keeps two levels and swaps them, so it allocates per level
/// (as the buffers grow), never per chain.
struct Level {
    /// Components per chain.
    len: usize,
    /// Open chains in the level.
    chains: usize,
    deps: Vec<u32>,
    words: Vec<u64>,
}

impl Level {
    fn new(len: usize) -> Self {
        Level {
            len,
            chains: 0,
            deps: Vec::new(),
            words: Vec::new(),
        }
    }

    /// Empties the level for chains of `len` components, keeping its
    /// buffers.
    fn reset(&mut self, len: usize) {
        self.len = len;
        self.chains = 0;
        self.deps.clear();
        self.words.clear();
    }

    /// Appends the chain `parent_deps` + `idx`, whose parent's block is
    /// `parent_words` (empty for a single-tuple chain).
    fn push(
        &mut self,
        parent_deps: &[u32],
        parent_words: &[u64],
        idx: u32,
        layout: ChainWords,
        index: &JoinIndex,
    ) {
        self.deps.extend_from_slice(parent_deps);
        self.deps.push(idx);
        let start = self.words.len();
        if parent_words.is_empty() {
            self.words.resize(start + layout.stride(), 0);
        } else {
            self.words.extend_from_slice(parent_words);
        }
        layout.add(&mut self.words[start..], idx as usize, index);
        self.chains += 1;
    }
}

/// Runs Algorithm 1 on `relation` and returns the potential deadlock
/// cycles, each reported exactly once (§2.2.3), shortest first.
///
/// This is the indexed implementation; [`naive_igoodlock`] is the
/// brute-force oracle with identical output.
///
/// # Example
///
/// ```
/// use df_igoodlock::{igoodlock, IGoodlockOptions, LockDep, LockDependencyRelation};
/// use df_events::{Label, ObjId, ThreadId};
///
/// let dep = |t: u32, held: u32, lock: u32| {
///     LockDep::exclusive(
///         ThreadId::new(t),
///         ObjId::new(t),
///         vec![ObjId::new(held)],
///         ObjId::new(lock),
///         vec![Label::new("a:1"), Label::new("a:2")],
///     )
/// };
/// let rel = LockDependencyRelation::from_deps(vec![dep(1, 10, 11), dep(2, 11, 10)]);
/// let cycles = igoodlock(&rel, &IGoodlockOptions::default());
/// assert_eq!(cycles.len(), 1);
/// assert_eq!(cycles[0].len(), 2);
/// ```
pub fn igoodlock(relation: &LockDependencyRelation, options: &IGoodlockOptions) -> Vec<Cycle> {
    igoodlock_with_stats(relation, options).0
}

/// Like [`igoodlock`] but also returns run statistics.
pub fn igoodlock_with_stats(
    relation: &LockDependencyRelation,
    options: &IGoodlockOptions,
) -> (Vec<Cycle>, IGoodlockStats) {
    igoodlock_filtered(relation, None, options)
}

/// [`igoodlock`] with an optional happens-before filter: cycles whose
/// hold windows are ordered by fork/join happens-before (and therefore
/// can never overlap in any execution) are suppressed and counted in
/// [`IGoodlockStats::pruned_by_hb`]. Tuples without timing information
/// (relations built with
/// [`LockDependencyRelation::from_deps`]) are conservatively kept.
///
/// # Example
///
/// ```
/// use df_igoodlock::{igoodlock_filtered, HbFilter, IGoodlockOptions, LockDependencyRelation};
/// use df_events::Trace;
///
/// let trace = Trace::default();
/// let relation = LockDependencyRelation::from_trace(&trace);
/// let hb = HbFilter::from_trace(&trace);
/// let (cycles, stats) =
///     igoodlock_filtered(&relation, Some(&hb), &IGoodlockOptions::default());
/// assert!(cycles.is_empty());
/// assert_eq!(stats.pruned_by_hb, 0);
/// ```
pub fn igoodlock_filtered(
    relation: &LockDependencyRelation,
    hb: Option<&crate::hb::HbFilter>,
    options: &IGoodlockOptions,
) -> (Vec<Cycle>, IGoodlockStats) {
    let deps = relation.deps();
    let mut stats = IGoodlockStats::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    // All interners live inside this per-call index: a second run — or a
    // concurrent caller — rebuilds them from scratch, so dense ids
    // depend only on this relation's tuple order.
    let index = JoinIndex::build(deps);
    // Dedup key: the per-run projection id of each component — the dense
    // id of its (thread, lock, contexts) view. Distinct chains can differ
    // only in their locksets; their projections — all that the report and
    // Phase II consume — are then identical, so reporting both would only
    // duplicate work downstream.
    let mut reported: HashSet<Vec<u32>> = HashSet::new();

    // Scratch buffer of the dedup key under test: a new key is copied
    // into `reported` only when it is inserted.
    let mut key: Vec<u32> = Vec::new();
    let layout = ChainWords::new(&index);
    let stride = layout.stride();

    // D_1 = D.
    let mut current = Level::new(1);
    for i in 0..deps.len() {
        current.push(&[], &[], i as u32, layout, &index);
    }
    let mut next = Level::new(2);
    stats.chains_built += current.chains as u64;

    while current.chains > 0 {
        let length = current.len;
        if let Some(max) = options.max_cycle_length {
            if length + 1 > max {
                stats.truncated = true;
                break;
            }
        }
        stats.iterations += 1;
        stats.chains_per_iteration.push(current.chains as u64);
        stats.peak_open_chains = stats.peak_open_chains.max(current.chains as u64);
        next.reset(length + 1);
        for (chain, block) in current
            .deps
            .chunks_exact(length)
            .zip(current.words.chunks_exact(stride))
        {
            let first = chain[0] as usize;
            let last = chain[length - 1] as usize;
            let root = index.thread[first];
            // Definition 2(3) plus the mode edge rule is the bucket
            // membership (a shared last acquisition draws only from the
            // exclusive-holders bucket); `admits` is §2.2.3 plus 2(1),
            // 2(2) and the mode-aware 2(4). Buckets list tuples in
            // relation order, so accepted extensions appear in exactly
            // the order the naive scan would produce them.
            for &cand in index.candidates(index.lock[last], index.mode[last]) {
                stats.join_candidates_examined += 1;
                let c = cand as usize;
                if !layout.admits(block, root, c, &index) {
                    continue;
                }
                stats.chains_built += 1;
                let ext = || {
                    chain
                        .iter()
                        .chain(std::iter::once(&cand))
                        .map(|&i| i as usize)
                };
                // Definition 3: the first component holds the last
                // acquired lock in a conflicting mode.
                if index.closes_against(first, index.lock[c], index.mode[c]) {
                    key.clear();
                    key.extend(ext().map(|i| index.proj[i]));
                    if !reported.contains(key.as_slice()) {
                        reported.insert(key.clone());
                        let cycle =
                            Cycle::new(ext().map(|i| CycleComponent::from(&deps[i])).collect());
                        if let Some(hb) = hb {
                            let timings: Option<Vec<_>> =
                                ext().map(|i| relation.timing(i)).collect();
                            if let Some(timings) = timings {
                                if !hb.cycle_feasible(&cycle, &timings) {
                                    stats.pruned_by_hb += 1;
                                    continue;
                                }
                            }
                        }
                        cycles.push(cycle);
                        if cycles.len() >= options.max_cycles {
                            stats.truncated = true;
                            return (cycles, stats);
                        }
                    }
                } else {
                    next.push(chain, block, cand, layout, &index);
                    if next.chains > options.max_open_chains {
                        stats.truncated = true;
                        return (cycles, stats);
                    }
                }
            }
        }
        std::mem::swap(&mut current, &mut next);
    }
    (cycles, stats)
}

/// An open (not yet cyclic) dependency chain of the naive join: indices
/// into the relation plus memoized thread/lock vectors, compared by
/// linear scans.
struct NaiveChain {
    deps: Vec<usize>,
    threads: Vec<df_events::ThreadId>,
    locks: Vec<ObjId>,
    /// Union of all component locksets, any hold mode.
    lockset_union: Vec<ObjId>,
    /// Union of the components' exclusively held locks (the mode-aware
    /// Definition 2(4) compares against this on one side).
    lockset_excl_union: Vec<ObjId>,
    /// Mode of the last component's acquisition (selects which holds of
    /// that lock conflict).
    last_mode: AcquireMode,
}

impl NaiveChain {
    fn single(idx: usize, dep: &LockDep) -> Self {
        NaiveChain {
            deps: vec![idx],
            threads: vec![dep.thread],
            locks: vec![dep.lock],
            lockset_union: dep.lockset.clone(),
            lockset_excl_union: excl_holds(dep),
            last_mode: dep.mode,
        }
    }

    /// Checks Definition 2 for appending `dep`, plus the §2.2.3
    /// duplicate-suppression rule (first thread has minimum id).
    fn can_extend(&self, first: &LockDep, dep: &LockDep) -> bool {
        // §2.2.3: report each cycle once, rooted at its minimum thread id.
        if dep.thread <= first.thread {
            return false;
        }
        // 2(1): threads pairwise distinct.
        if self.threads.contains(&dep.thread) {
            return false;
        }
        // 2(2): acquired locks pairwise distinct.
        if self.locks.contains(&dep.lock) {
            return false;
        }
        // 2(3) + mode edge rule: the previous lock is held by the new
        // component in a mode its acquisition conflicts with (read-read
        // never blocks).
        let last_lock = *self.locks.last().expect("chains are non-empty");
        if !dep.hold_blocks(last_lock, self.last_mode) {
            return false;
        }
        // Mode-aware 2(4): locksets may overlap only in read-read holds —
        // a common lock disqualifies iff held exclusively on either side.
        if dep.lockset.iter().enumerate().any(|(i, l)| {
            self.lockset_excl_union.contains(l)
                || (dep
                    .hold_modes
                    .get(i)
                    .copied()
                    .unwrap_or(AcquireMode::Exclusive)
                    .is_exclusive()
                    && self.lockset_union.contains(l))
        }) {
            return false;
        }
        true
    }

    fn extended(&self, idx: usize, dep: &LockDep) -> NaiveChain {
        let mut threads = self.threads.clone();
        threads.push(dep.thread);
        let mut locks = self.locks.clone();
        locks.push(dep.lock);
        let mut lockset_union = self.lockset_union.clone();
        lockset_union.extend_from_slice(&dep.lockset);
        let mut lockset_excl_union = self.lockset_excl_union.clone();
        lockset_excl_union.extend_from_slice(&excl_holds(dep));
        let mut deps = self.deps.clone();
        deps.push(idx);
        NaiveChain {
            deps,
            threads,
            locks,
            lockset_union,
            lockset_excl_union,
            last_mode: dep.mode,
        }
    }

    /// Definition 3: the chain is a potential deadlock cycle if the last
    /// acquired lock is held by the first component in a conflicting
    /// mode.
    fn closes(&self, relation: &[LockDep]) -> bool {
        let first = &relation[self.deps[0]];
        let last_lock = *self.locks.last().expect("non-empty");
        first.hold_blocks(last_lock, self.last_mode)
    }
}

/// The exclusively held subset of a tuple's lockset (holds past a
/// truncated `hold_modes` default to exclusive, matching the serde
/// default).
fn excl_holds(dep: &LockDep) -> Vec<ObjId> {
    dep.lockset
        .iter()
        .enumerate()
        .filter(|&(i, _)| {
            dep.hold_modes
                .get(i)
                .copied()
                .unwrap_or(AcquireMode::Exclusive)
                .is_exclusive()
        })
        .map(|(_, &l)| l)
        .collect()
}

/// The original brute-force Algorithm 1: scans the whole relation per
/// open chain with linear lockset checks. Kept as the oracle the indexed
/// implementation is tested against; produces byte-identical cycles and
/// identical `chains_built` / `chains_per_iteration` / `truncated`.
pub fn naive_igoodlock(
    relation: &LockDependencyRelation,
    options: &IGoodlockOptions,
) -> Vec<Cycle> {
    naive_igoodlock_with_stats(relation, options).0
}

/// Like [`naive_igoodlock`] but also returns run statistics.
pub fn naive_igoodlock_with_stats(
    relation: &LockDependencyRelation,
    options: &IGoodlockOptions,
) -> (Vec<Cycle>, IGoodlockStats) {
    naive_igoodlock_filtered(relation, None, options)
}

/// [`naive_igoodlock`] with the optional happens-before filter — the
/// brute-force counterpart of [`igoodlock_filtered`].
pub fn naive_igoodlock_filtered(
    relation: &LockDependencyRelation,
    hb: Option<&crate::hb::HbFilter>,
    options: &IGoodlockOptions,
) -> (Vec<Cycle>, IGoodlockStats) {
    let deps = relation.deps();
    let mut stats = IGoodlockStats::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    // Dedup key: the (thread, lock, mode, context) projection of the
    // chain — the same view the indexed join's projection ids intern.
    type CycleKey = Vec<(
        df_events::ThreadId,
        ObjId,
        AcquireMode,
        Vec<df_events::Label>,
    )>;
    let mut reported: HashSet<CycleKey> = HashSet::new();

    // D_1 = D.
    let mut current: Vec<NaiveChain> = deps
        .iter()
        .enumerate()
        .map(|(i, d)| NaiveChain::single(i, d))
        .collect();
    stats.chains_built += current.len() as u64;
    let mut length = 1usize;

    while !current.is_empty() {
        if let Some(max) = options.max_cycle_length {
            if length + 1 > max {
                stats.truncated = true;
                break;
            }
        }
        stats.iterations += 1;
        stats.chains_per_iteration.push(current.len() as u64);
        stats.peak_open_chains = stats.peak_open_chains.max(current.len() as u64);
        let mut next: Vec<NaiveChain> = Vec::new();
        for chain in &current {
            let first = &deps[chain.deps[0]];
            stats.join_candidates_examined += deps.len() as u64;
            for (idx, dep) in deps.iter().enumerate() {
                if !chain.can_extend(first, dep) {
                    continue;
                }
                let ext = chain.extended(idx, dep);
                stats.chains_built += 1;
                if ext.closes(deps) {
                    let key: CycleKey = ext
                        .deps
                        .iter()
                        .map(|&i| {
                            (
                                deps[i].thread,
                                deps[i].lock,
                                deps[i].mode,
                                deps[i].contexts.clone(),
                            )
                        })
                        .collect();
                    if reported.insert(key) {
                        let cycle = Cycle::new(
                            ext.deps
                                .iter()
                                .map(|&i| CycleComponent::from(&deps[i]))
                                .collect(),
                        );
                        if let Some(hb) = hb {
                            let timings: Option<Vec<_>> =
                                ext.deps.iter().map(|&i| relation.timing(i)).collect();
                            if let Some(timings) = timings {
                                if !hb.cycle_feasible(&cycle, &timings) {
                                    stats.pruned_by_hb += 1;
                                    continue;
                                }
                            }
                        }
                        cycles.push(cycle);
                        if cycles.len() >= options.max_cycles {
                            stats.truncated = true;
                            return (cycles, stats);
                        }
                    }
                } else {
                    next.push(ext);
                    if next.len() > options.max_open_chains {
                        stats.truncated = true;
                        return (cycles, stats);
                    }
                }
            }
        }
        current = next;
        length += 1;
    }
    (cycles, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_events::{Label, ThreadId};

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    /// `(t, L, l)` with canned contexts; lock ids are offset by 100 to
    /// keep them distinct from thread ids.
    fn dep(t: u32, held: &[u32], lock: u32) -> LockDep {
        LockDep::exclusive(
            ThreadId::new(t),
            ObjId::new(t),
            held.iter().map(|&h| ObjId::new(100 + h)).collect(),
            ObjId::new(100 + lock),
            (0..=held.len()).map(|i| l(&format!("c:{i}"))).collect(),
        )
    }

    /// Like `dep` but with explicit hold modes and acquire mode.
    fn dep_m(t: u32, held: &[(u32, AcquireMode)], lock: u32, mode: AcquireMode) -> LockDep {
        let mut d = dep(t, &held.iter().map(|&(h, _)| h).collect::<Vec<_>>(), lock);
        d.mode = mode;
        d.hold_modes = held.iter().map(|&(_, m)| m).collect();
        d
    }

    #[test]
    fn simple_two_cycle() {
        let rel = LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(2, &[2], 1)]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
        assert_eq!(
            cycles[0].threads(),
            vec![ThreadId::new(1), ThreadId::new(2)]
        );
    }

    #[test]
    fn cycle_reported_once_not_k_times() {
        // Without §2.2.3 this 3-cycle would be reported 3 times (one per
        // rotation).
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[2], 3),
            dep(3, &[3], 1),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
        // Rooted at the minimum thread id.
        assert_eq!(cycles[0].threads()[0], ThreadId::new(1));
    }

    #[test]
    fn no_cycle_same_order() {
        let rel = LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(2, &[1], 2)]);
        assert!(igoodlock(&rel, &IGoodlockOptions::default()).is_empty());
    }

    #[test]
    fn gate_lock_prevents_cycle() {
        // Both threads hold a common gate lock G(=9) while acquiring:
        // Definition 2(4) (disjoint locksets) rules the cycle out — this is
        // exactly why Goodlock-style analyses do not flag gate-protected
        // nesting.
        let rel = LockDependencyRelation::from_deps(vec![dep(1, &[9, 1], 2), dep(2, &[9, 2], 1)]);
        assert!(igoodlock(&rel, &IGoodlockOptions::default()).is_empty());
    }

    #[test]
    fn distinct_threads_required() {
        // One thread acquiring in both orders cannot deadlock with itself.
        let rel = LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(1, &[2], 1)]);
        assert!(igoodlock(&rel, &IGoodlockOptions::default()).is_empty());
    }

    #[test]
    fn complex_cycles_not_reported() {
        // Two independent 2-cycles exist between (t1,t2) via locks 1,2 and
        // (t1,t2) via locks 3,4. The "complex" 4-component combination
        // must not be reported because cycles are not extended
        // (Algorithm 1 line 9) and threads must be distinct.
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[2], 1),
            dep(1, &[3], 4),
            dep(2, &[4], 3),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 2);
        assert!(cycles.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn three_cycle_with_two_cycle_subsumed_separately() {
        // A 2-cycle and a 3-cycle share a dependency; both are reported.
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[2], 1),
            dep(2, &[2], 3),
            dep(3, &[3], 1),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        let lengths: Vec<usize> = cycles.iter().map(|c| c.len()).collect();
        assert!(lengths.contains(&2));
        assert!(lengths.contains(&3));
        assert_eq!(cycles.len(), 2);
    }

    #[test]
    fn max_cycle_length_limits_iterations() {
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[2], 3),
            dep(3, &[3], 1),
        ]);
        let (cycles, stats) = igoodlock_with_stats(&rel, &IGoodlockOptions::length_two_only());
        assert!(cycles.is_empty());
        assert!(stats.truncated);
        let (cycles, stats) = igoodlock_with_stats(
            &rel,
            &IGoodlockOptions {
                max_cycle_length: Some(3),
                ..IGoodlockOptions::default()
            },
        );
        assert_eq!(cycles.len(), 1);
        assert!(!stats.truncated || stats.iterations >= 2);
    }

    #[test]
    fn max_cycles_cap_respected() {
        // 9 combinations à la Collections: 3 methods × 3 methods.
        let mut deps = Vec::new();
        for m in 0..3u32 {
            deps.push(dep_ctx(1, 1, 2, m));
            deps.push(dep_ctx(2, 2, 1, m));
        }
        let rel = LockDependencyRelation::from_deps(deps);
        let all = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(all.len(), 9);
        let capped = igoodlock(
            &rel,
            &IGoodlockOptions {
                max_cycles: 4,
                ..IGoodlockOptions::default()
            },
        );
        assert_eq!(capped.len(), 4);
    }

    /// Like `dep` but with a context distinguished by `m` (different call
    /// sites for the same lock pair → distinct relation tuples).
    fn dep_ctx(t: u32, held: u32, lock: u32, m: u32) -> LockDep {
        LockDep::exclusive(
            ThreadId::new(t),
            ObjId::new(t),
            vec![ObjId::new(100 + held)],
            ObjId::new(100 + lock),
            vec![l(&format!("m{m}:outer")), l(&format!("m{m}:inner"))],
        )
    }

    #[test]
    fn contexts_distinguish_cycles() {
        // Same lock pair, two different program contexts → two distinct
        // potential deadlock reports (the paper's Jigsaw example: "same
        // locks, acquired at different program locations").
        let rel = LockDependencyRelation::from_deps(vec![
            dep_ctx(1, 1, 2, 0),
            dep_ctx(1, 1, 2, 1),
            dep_ctx(2, 2, 1, 0),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 2);
    }

    #[test]
    fn empty_relation_no_cycles() {
        let rel = LockDependencyRelation::default();
        let (cycles, stats) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        assert!(cycles.is_empty());
        assert_eq!(stats.iterations, 0);
        assert!(stats.chains_per_iteration.is_empty());
        assert_eq!(stats.peak_open_chains, 0);
        assert_eq!(stats.join_candidates_examined, 0);
    }

    #[test]
    fn chain_sizes_recorded_per_join_iteration() {
        // A 3-cycle: the join runs for two levels, starting from the three
        // length-1 chains of the relation.
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[2], 3),
            dep(3, &[3], 1),
        ]);
        let (cycles, stats) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(stats.chains_per_iteration.len(), stats.iterations);
        assert_eq!(stats.chains_per_iteration[0], rel.len() as u64);
        assert_eq!(
            stats.peak_open_chains,
            stats.chains_per_iteration.iter().copied().max().unwrap()
        );
        assert!(
            stats.chains_per_iteration.iter().sum::<u64>() <= stats.chains_built,
            "open chains per level never exceed the chains ever built"
        );
    }

    #[test]
    fn figure1_example_produces_expected_cycle() {
        // Figure 1 of the paper: t1 acquires o1 then o2 at sites 15/16;
        // t2 acquires o2 then o1 at the same sites.
        let rel = LockDependencyRelation::from_deps(vec![
            LockDep::exclusive(
                ThreadId::new(1),
                ObjId::new(25),
                vec![ObjId::new(122)],
                ObjId::new(123),
                vec![l("run:15"), l("run:16")],
            ),
            LockDep::exclusive(
                ThreadId::new(2),
                ObjId::new(26),
                vec![ObjId::new(123)],
                ObjId::new(122),
                vec![l("run:15"), l("run:16")],
            ),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.components()[0].contexts, vec![l("run:15"), l("run:16")]);
        assert_eq!(c.locks(), vec![ObjId::new(123), ObjId::new(122)]);
    }

    #[test]
    fn indexed_examines_fewer_candidates_than_naive() {
        // A relation with many tuples whose locksets never contain the
        // chain's last lock: the bucket index skips them; the naive scan
        // touches all of them.
        let mut deps = vec![dep(1, &[1], 2), dep(2, &[2], 1)];
        for i in 0..20u32 {
            deps.push(dep(3 + i, &[50 + i], 80 + i));
        }
        let rel = LockDependencyRelation::from_deps(deps);
        let (ic, is) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        let (nc, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        assert_eq!(ic, nc);
        assert_eq!(is.chains_built, ns.chains_built);
        assert!(
            is.join_candidates_examined < ns.join_candidates_examined / 10,
            "indexed {} vs naive {}",
            is.join_candidates_examined,
            ns.join_candidates_examined
        );
    }

    #[test]
    fn read_read_holds_never_close_a_cycle() {
        use AcquireMode::{Exclusive, Shared};
        // t1 read-holds rw(=1) while taking m(=2); t2 holds m while
        // read-taking rw. With plain mutexes this is the classic 2-cycle;
        // with modes the closing edge is read-vs-read and vanishes.
        let rel = LockDependencyRelation::from_deps(vec![
            dep_m(1, &[(1, Shared)], 2, Exclusive),
            dep_m(2, &[(2, Exclusive)], 1, Shared),
        ]);
        assert!(igoodlock(&rel, &IGoodlockOptions::default()).is_empty());
        assert!(naive_igoodlock(&rel, &IGoodlockOptions::default()).is_empty());
        // Sanity contrast: the all-exclusive version of the same shape
        // does cycle.
        let excl = LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(2, &[2], 1)]);
        assert_eq!(igoodlock(&excl, &IGoodlockOptions::default()).len(), 1);
    }

    #[test]
    fn reader_writer_conflict_still_cycles() {
        use AcquireMode::{Exclusive, Shared};
        // Same shape, but t2 takes rw exclusively: a write acquisition
        // conflicts with t1's read hold, so the cycle is real and kept.
        let rel = LockDependencyRelation::from_deps(vec![
            dep_m(1, &[(1, Shared)], 2, Exclusive),
            dep_m(2, &[(2, Exclusive)], 1, Exclusive),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles, naive_igoodlock(&rel, &IGoodlockOptions::default()));
    }

    #[test]
    fn shared_gate_lock_does_not_prevent_cycle() {
        use AcquireMode::{Exclusive, Shared};
        // Both threads hold a common gate lock G(=9) — but only in read
        // mode, so both can be inside the "gate" at once and the
        // mode-aware 2(4) rightly keeps the cycle (contrast with
        // `gate_lock_prevents_cycle`, where the exclusive gate kills it).
        let rel = LockDependencyRelation::from_deps(vec![
            dep_m(1, &[(9, Shared), (1, Exclusive)], 2, Exclusive),
            dep_m(2, &[(9, Shared), (2, Exclusive)], 1, Exclusive),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles, naive_igoodlock(&rel, &IGoodlockOptions::default()));
    }

    #[test]
    fn read_read_candidates_pruned_at_the_bucket() {
        use AcquireMode::{Exclusive, Shared};
        // Ten readers hold rw(=50) shared; one writer-side chain ends in
        // a *shared* acquisition of rw. The exclusive-holders bucket for
        // rw is empty, so the indexed join examines zero candidates for
        // that chain, while the naive oracle scans (and rejects) all of
        // them — identical output, fewer tuples touched.
        let mut deps = vec![dep_m(1, &[(1, Exclusive)], 50, Shared)];
        for i in 0..10u32 {
            deps.push(dep_m(2 + i, &[(50, Shared)], 60 + i, Exclusive));
        }
        let rel = LockDependencyRelation::from_deps(deps);
        let (ic, is) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        let (nc, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        assert_eq!(ic, nc);
        assert!(ic.is_empty());
        assert_eq!(is.chains_built, ns.chains_built);
        assert!(
            is.join_candidates_examined < ns.join_candidates_examined,
            "indexed {} vs naive {}",
            is.join_candidates_examined,
            ns.join_candidates_examined
        );
    }

    #[test]
    fn mode_distinguishes_otherwise_identical_cycles() {
        use AcquireMode::{Exclusive, Shared};
        // Two t1 tuples identical except for the acquisition mode of
        // lock 2: the dedup projection includes the mode, so both the
        // write-write and the read-write cycle are reported.
        let rel = LockDependencyRelation::from_deps(vec![
            dep_m(1, &[(1, Exclusive)], 2, Exclusive),
            dep_m(1, &[(1, Exclusive)], 2, Shared),
            dep(2, &[2], 1),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 2);
        assert_eq!(cycles, naive_igoodlock(&rel, &IGoodlockOptions::default()));
    }

    /// The fixture relations above, checked naive-vs-indexed under every
    /// truncation option (the proptest suite covers random relations).
    #[test]
    fn naive_and_indexed_agree_on_fixtures() {
        use AcquireMode::{Exclusive, Shared};
        let fixtures: Vec<LockDependencyRelation> = vec![
            LockDependencyRelation::from_deps(vec![
                dep_m(1, &[(1, Shared)], 2, Exclusive),
                dep_m(2, &[(2, Exclusive)], 1, Shared),
            ]),
            LockDependencyRelation::from_deps(vec![
                dep_m(1, &[(9, Shared), (1, Exclusive)], 2, Shared),
                dep_m(2, &[(9, Shared), (2, Shared)], 1, Exclusive),
                dep_m(3, &[(9, Exclusive)], 1, Shared),
            ]),
            LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(2, &[2], 1)]),
            LockDependencyRelation::from_deps(vec![
                dep(1, &[1], 2),
                dep(2, &[2], 3),
                dep(3, &[3], 1),
            ]),
            LockDependencyRelation::from_deps(vec![dep(1, &[9, 1], 2), dep(2, &[9, 2], 1)]),
            LockDependencyRelation::from_deps(vec![
                dep(1, &[1], 2),
                dep(2, &[2], 1),
                dep(2, &[2], 3),
                dep(3, &[3], 1),
            ]),
            LockDependencyRelation::from_deps(vec![
                dep_ctx(1, 1, 2, 0),
                dep_ctx(1, 1, 2, 1),
                dep_ctx(2, 2, 1, 0),
            ]),
            LockDependencyRelation::default(),
        ];
        let options = [
            IGoodlockOptions::default(),
            IGoodlockOptions::length_two_only(),
            IGoodlockOptions {
                max_cycles: 1,
                ..IGoodlockOptions::default()
            },
            IGoodlockOptions {
                max_open_chains: 2,
                ..IGoodlockOptions::default()
            },
        ];
        for rel in &fixtures {
            for opts in &options {
                let (ic, is) = igoodlock_with_stats(rel, opts);
                let (nc, ns) = naive_igoodlock_with_stats(rel, opts);
                assert_eq!(ic, nc);
                assert_eq!(is.chains_built, ns.chains_built);
                assert_eq!(is.iterations, ns.iterations);
                assert_eq!(is.chains_per_iteration, ns.chains_per_iteration);
                assert_eq!(is.truncated, ns.truncated);
                assert_eq!(is.peak_open_chains, ns.peak_open_chains);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use df_events::{Label, ThreadId};
    use proptest::prelude::*;

    fn arb_relation() -> impl Strategy<Value = LockDependencyRelation> {
        prop::collection::vec(
            (
                1..5u32,                              // thread
                prop::collection::vec(0..6u32, 1..3), // held
                0..6u32,                              // lock
            ),
            0..14,
        )
        .prop_map(|tuples| {
            let deps = tuples
                .into_iter()
                .filter(|(_, held, lock)| !held.contains(lock))
                .map(|(t, held, lock)| {
                    let mut held: Vec<_> = held;
                    held.sort();
                    held.dedup();
                    LockDep::exclusive(
                        ThreadId::new(t),
                        df_events::ObjId::new(t),
                        held.iter()
                            .map(|&h| df_events::ObjId::new(100 + h))
                            .collect(),
                        df_events::ObjId::new(100 + lock),
                        (0..=held.len())
                            .map(|i| Label::new(&format!("p:{i}")))
                            .collect(),
                    )
                })
                .collect();
            LockDependencyRelation::from_deps(deps)
        })
    }

    /// Relations mixing shared and exclusive acquisitions and holds —
    /// the vocabulary rwlock-using programs produce.
    fn arb_mixed_relation() -> impl Strategy<Value = LockDependencyRelation> {
        use df_events::AcquireMode;
        prop::collection::vec(
            (
                1..5u32,                                         // thread
                prop::collection::vec((0..6u32, 0..2u32), 1..3), // held + shared?
                0..6u32,                                         // lock
                0..2u32,                                         // shared acquire?
            ),
            0..14,
        )
        .prop_map(|tuples| {
            let mode_of = |shared: u32| {
                if shared == 1 {
                    AcquireMode::Shared
                } else {
                    AcquireMode::Exclusive
                }
            };
            let deps = tuples
                .into_iter()
                .filter(|(_, held, lock, _)| held.iter().all(|&(h, _)| h != *lock))
                .map(|(t, held, lock, shared)| {
                    let mut held: Vec<_> = held;
                    held.sort_by_key(|&(h, _)| h);
                    held.dedup_by_key(|&mut (h, _)| h);
                    let mut dep = LockDep::exclusive(
                        ThreadId::new(t),
                        df_events::ObjId::new(t),
                        held.iter()
                            .map(|&(h, _)| df_events::ObjId::new(100 + h))
                            .collect(),
                        df_events::ObjId::new(100 + lock),
                        (0..=held.len())
                            .map(|i| Label::new(&format!("p:{i}")))
                            .collect(),
                    );
                    dep.mode = mode_of(shared);
                    dep.hold_modes = held.iter().map(|&(_, s)| mode_of(s)).collect();
                    dep
                })
                .collect();
            LockDependencyRelation::from_deps(deps)
        })
    }

    proptest! {
        /// Every reported cycle satisfies Definitions 2 and 3.
        #[test]
        fn cycles_satisfy_definitions(rel in arb_relation()) {
            let cycles = igoodlock(&rel, &IGoodlockOptions::default());
            for cycle in &cycles {
                let comps = cycle.components();
                let n = comps.len();
                prop_assert!(n >= 2);
                // distinct threads and locks
                let mut ts: Vec<_> = comps.iter().map(|c| c.thread).collect();
                ts.sort(); ts.dedup();
                prop_assert_eq!(ts.len(), n);
                let mut ls: Vec<_> = comps.iter().map(|c| c.lock).collect();
                ls.sort(); ls.dedup();
                prop_assert_eq!(ls.len(), n);
                // chain + closing conditions
                for i in 0..n {
                    let next = &comps[(i + 1) % n];
                    prop_assert!(next.lockset.contains(&comps[i].lock));
                }
                // pairwise disjoint locksets
                for i in 0..n {
                    for j in (i + 1)..n {
                        prop_assert!(comps[i]
                            .lockset
                            .iter()
                            .all(|l| !comps[j].lockset.contains(l)));
                    }
                }
                // duplicate suppression: rooted at minimal thread
                prop_assert!(comps.iter().all(|c| c.thread >= comps[0].thread));
            }
        }

        /// No cycle is reported twice (up to rotation).
        #[test]
        fn no_duplicate_cycles(rel in arb_relation()) {
            let cycles = igoodlock(&rel, &IGoodlockOptions::default());
            for i in 0..cycles.len() {
                for j in (i + 1)..cycles.len() {
                    let a: std::collections::BTreeSet<_> = cycles[i]
                        .components()
                        .iter()
                        .map(|c| (c.thread, c.lock, c.contexts.clone()))
                        .collect();
                    let b: std::collections::BTreeSet<_> = cycles[j]
                        .components()
                        .iter()
                        .map(|c| (c.thread, c.lock, c.contexts.clone()))
                        .collect();
                    prop_assert_ne!(a, b);
                }
            }
        }

        /// Length-2 truncation reports exactly the length-2 subset.
        #[test]
        fn truncation_is_a_prefix(rel in arb_relation()) {
            let all = igoodlock(&rel, &IGoodlockOptions::default());
            let short = igoodlock(&rel, &IGoodlockOptions::length_two_only());
            let all2 = all.iter().filter(|c| c.len() == 2).count();
            prop_assert_eq!(short.len(), all2);
            prop_assert!(short.iter().all(|c| c.len() == 2));
        }

        /// The indexed join is a pure strength reduction over the naive
        /// oracle: identical cycles in identical order, identical join
        /// shape, never more candidates examined.
        #[test]
        fn indexed_matches_naive_oracle(rel in arb_relation()) {
            let (ic, is) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
            let (nc, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
            prop_assert_eq!(ic, nc);
            prop_assert_eq!(is.chains_built, ns.chains_built);
            prop_assert_eq!(is.chains_per_iteration, ns.chains_per_iteration);
            prop_assert_eq!(is.truncated, ns.truncated);
            prop_assert!(is.join_candidates_examined <= ns.join_candidates_examined);
        }

        /// The same strength-reduction law on mode-mixing relations: the
        /// bucket split and the two-sided exclusive disjointness probes
        /// must accept/reject exactly what the scalar mode checks do.
        #[test]
        fn indexed_matches_naive_on_mixed_modes(rel in arb_mixed_relation()) {
            let (ic, is) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
            let (nc, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
            prop_assert_eq!(ic, nc);
            prop_assert_eq!(is.chains_built, ns.chains_built);
            prop_assert_eq!(is.chains_per_iteration, ns.chains_per_iteration);
            prop_assert_eq!(is.truncated, ns.truncated);
            prop_assert_eq!(is.peak_open_chains, ns.peak_open_chains);
            prop_assert!(is.join_candidates_examined <= ns.join_candidates_examined);
        }

        /// No reported cycle on a mixed-mode relation contains a
        /// read-read edge: every chain and closing edge conflicts.
        #[test]
        fn mixed_mode_cycles_have_no_read_read_edges(rel in arb_mixed_relation()) {
            let cycles = igoodlock(&rel, &IGoodlockOptions::default());
            for cycle in &cycles {
                let comps = cycle.components();
                let n = comps.len();
                for i in 0..n {
                    let next = &comps[(i + 1) % n];
                    let hold = next
                        .lockset
                        .iter()
                        .position(|&l| l == comps[i].lock)
                        .map(|j| next.hold_modes[j])
                        .expect("chain edge lock is held by the next component");
                    prop_assert!(crate::relation::modes_conflict(comps[i].mode, hold));
                }
            }
        }
    }
}
