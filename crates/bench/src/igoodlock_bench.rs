//! Phase I micro-bench: naive vs indexed iGoodlock vs the DFS baseline.
//!
//! Workloads are pure lock dependency relations (no scheduler, no program
//! execution), so the numbers isolate the cycle computation itself — the
//! paper's Table 2 flavor of comparison, plus our naive-vs-indexed
//! column. Every row cross-checks the three implementations before it is
//! reported: naive and indexed must agree exactly (same cycles, same
//! order, same `chains_built`), and the DFS baseline must report the
//! same cycle set.

use std::collections::BTreeSet;
use std::time::Instant;

use df_events::{Label, ObjId, ThreadId};
use df_igoodlock::{
    goodlock_dfs, igoodlock_with_stats, naive_igoodlock_with_stats, IGoodlockOptions, LockDep,
    LockDependencyRelation,
};
use serde::Serialize;

/// The lock dependency relation that Phase I extracts from an n-way
/// dining-philosophers ring: philosopher `p` (thread `p + 1`) acquires
/// fork `(p + 1) mod n` while holding fork `p`. The relation contains one
/// potential deadlock cycle — the full ring of length `n`.
pub fn philosophers_ring_relation(n: u32) -> LockDependencyRelation {
    let fork = |i: u32| ObjId::new(100 + (i % n));
    let deps = (0..n)
        .map(|p| {
            LockDep::exclusive(
                ThreadId::new(p + 1),
                ObjId::new(p + 1),
                vec![fork(p)],
                fork(p + 1),
                vec![
                    Label::new(&format!("Philosopher.takeLeft:{p}")),
                    Label::new(&format!("Philosopher.takeRight:{p}")),
                ],
            )
        })
        .collect();
    LockDependencyRelation::from_deps(deps)
}

/// A relation with `pairs` two-cycles plus `noise` acyclic tuples —
/// the "large synthetic relation" workload. The noise tuples are strictly
/// ordered chains that can never close, so the cycle count stays `pairs`
/// while the naive join's per-chain scan cost grows with the whole
/// relation.
pub fn synthetic_join_relation(pairs: u32, noise: u32) -> LockDependencyRelation {
    let mut deps = Vec::new();
    for p in 0..pairs {
        let l1 = ObjId::new(1000 + 2 * p);
        let l2 = ObjId::new(1001 + 2 * p);
        let c = Label::new(&format!("pair{p}"));
        deps.push(LockDep::exclusive(
            ThreadId::new(1),
            ObjId::new(1),
            vec![l1],
            l2,
            vec![c, c],
        ));
        deps.push(LockDep::exclusive(
            ThreadId::new(2),
            ObjId::new(2),
            vec![l2],
            l1,
            vec![c, c],
        ));
    }
    for n in 0..noise {
        // Strictly ordered chain: never cyclic.
        let a = ObjId::new(5000 + n);
        let b = ObjId::new(5001 + n);
        deps.push(LockDep::exclusive(
            ThreadId::new(3 + n % 4),
            ObjId::new(3 + n % 4),
            vec![a],
            b,
            vec![Label::new(&format!("noise{n}")), Label::new("inner")],
        ));
    }
    LockDependencyRelation::from_deps(deps)
}

/// The chain-heavy `nested-TxL` relation: each of `threads` threads
/// nests every ordered pair `(a, b)`, `a < b`, of `locks` locks — it
/// holds `a` while it acquires `b`. All threads respect one global lock
/// order, so there is no cycle, but every run of distinct threads along
/// a strictly increasing lock path is an open chain: the join's levels
/// fan out the way they do on a trace of many workers nesting ordered
/// pairs.
pub fn nested_pairs_relation(threads: u32, locks: u32) -> LockDependencyRelation {
    let lock = |i: u32| ObjId::new(100 + i);
    let mut deps = Vec::new();
    for t in 1..=threads {
        for a in 0..locks {
            for b in a + 1..locks {
                deps.push(LockDep::exclusive(
                    ThreadId::new(t),
                    ObjId::new(t),
                    vec![lock(a)],
                    lock(b),
                    vec![
                        Label::new(&format!("Nested.outer:{a}")),
                        Label::new(&format!("Nested.inner:{b}")),
                    ],
                ));
            }
        }
    }
    LockDependencyRelation::from_deps(deps)
}

/// One row of `BENCH_igoodlock.json`: a workload measured under all three
/// cycle-computation implementations.
#[derive(Clone, Debug, Serialize)]
pub struct IGoodlockBenchRow {
    /// Workload label (`ring-12`, `synthetic-48x4096`).
    pub workload: String,
    /// Deduplicated tuples in the relation.
    pub relation_size: usize,
    /// Potential deadlock cycles found (identical across implementations).
    pub cycles: usize,
    /// Best-of-reps wall time of the naive join, milliseconds.
    pub naive_ms: f64,
    /// Best-of-reps wall time of the indexed join, milliseconds.
    pub indexed_ms: f64,
    /// Best-of-reps wall time of the DFS lock-graph baseline, milliseconds.
    pub dfs_ms: f64,
    /// `naive_ms / indexed_ms`.
    pub speedup: f64,
    /// Chains built by the join — asserted identical between naive and
    /// indexed before the row is emitted.
    pub chains_built: u64,
    /// Candidate tuples the naive join examined (`|D|` per open chain).
    pub naive_candidates_examined: u64,
    /// Candidate tuples the indexed join examined (bucket entries only).
    pub indexed_candidates_examined: u64,
    /// Chain extensions attempted by the DFS baseline.
    pub dfs_extensions: u64,
}

fn time_best_of<T>(reps: u32, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (out.expect("reps >= 1"), best)
}

fn cycle_set(cycles: &[df_igoodlock::Cycle]) -> BTreeSet<String> {
    cycles.iter().map(|c| c.to_string()).collect()
}

/// Measures one workload under naive, indexed and DFS, cross-checking
/// their outputs. Returns an error describing the first divergence — a
/// correctness failure, not a measurement artifact — so callers (CI's
/// perf-smoke step) can fail loudly.
pub fn igoodlock_bench_row(
    workload: &str,
    relation: &LockDependencyRelation,
    reps: u32,
) -> Result<IGoodlockBenchRow, String> {
    let options = IGoodlockOptions::default();
    // One untimed warmup of the first implementation measured: on
    // microsecond-scale rows the process's first join call pays one-time
    // allocator and code-path costs that would otherwise be billed to
    // whichever implementation happens to run first.
    let _ = igoodlock_with_stats(relation, &options);
    let ((indexed_cycles, indexed_stats), indexed_ms) =
        time_best_of(reps, || igoodlock_with_stats(relation, &options));
    let ((naive_cycles, naive_stats), naive_ms) =
        time_best_of(reps, || naive_igoodlock_with_stats(relation, &options));
    let ((dfs_cycles, dfs_stats), dfs_ms) = time_best_of(reps, || goodlock_dfs(relation, &options));
    if indexed_cycles != naive_cycles {
        return Err(format!(
            "{workload}: indexed and naive cycle reports differ \
             ({} vs {} cycles)",
            indexed_cycles.len(),
            naive_cycles.len()
        ));
    }
    if indexed_stats.chains_built != naive_stats.chains_built {
        return Err(format!(
            "{workload}: chains_built diverged (indexed {} vs naive {})",
            indexed_stats.chains_built, naive_stats.chains_built
        ));
    }
    if cycle_set(&dfs_cycles) != cycle_set(&indexed_cycles) {
        return Err(format!(
            "{workload}: DFS baseline cycle set differs \
             ({} vs {} cycles)",
            dfs_cycles.len(),
            indexed_cycles.len()
        ));
    }
    Ok(IGoodlockBenchRow {
        workload: workload.to_string(),
        relation_size: relation.len(),
        cycles: indexed_cycles.len(),
        naive_ms,
        indexed_ms,
        dfs_ms,
        speedup: naive_ms / indexed_ms.max(1e-9),
        chains_built: indexed_stats.chains_built,
        naive_candidates_examined: naive_stats.join_candidates_examined,
        indexed_candidates_examined: indexed_stats.join_candidates_examined,
        dfs_extensions: dfs_stats.extensions,
    })
}

/// The lowest `speedup` a bench row may report before the
/// `igoodlock_bench` binary fails (see [`check_row_speedups`]). The
/// indexed join is level with naive on the smallest row (`ring-4`) and
/// faster on every larger one; what remains is wall-clock noise on
/// microsecond-scale rows, so rows too fast to time reliably get a
/// looser floor.
fn min_row_speedup(naive_ms: f64) -> f64 {
    if naive_ms >= 0.05 {
        0.9
    } else {
        0.7
    }
}

/// The full sweep behind `BENCH_igoodlock.json`: a philosophers ring per
/// entry of `ring_sizes`, a [`nested_pairs_relation`] per `(threads,
/// locks)` entry of `nested`, plus one large synthetic relation of
/// `pairs` two-cycles and `noise` acyclic tuples. Fails only on a parity
/// error (see [`igoodlock_bench_row`]); wall-clock is gated separately by
/// [`check_row_speedups`].
pub fn igoodlock_bench(
    ring_sizes: &[u32],
    nested: &[(u32, u32)],
    pairs: u32,
    noise: u32,
    reps: u32,
) -> Result<Vec<IGoodlockBenchRow>, String> {
    let mut rows = Vec::new();
    for &n in ring_sizes {
        let rel = philosophers_ring_relation(n);
        rows.push(igoodlock_bench_row(&format!("ring-{n}"), &rel, reps)?);
    }
    for &(threads, locks) in nested {
        let rel = nested_pairs_relation(threads, locks);
        rows.push(igoodlock_bench_row(
            &format!("nested-{threads}x{locks}"),
            &rel,
            reps,
        )?);
    }
    let rel = synthetic_join_relation(pairs, noise);
    rows.push(igoodlock_bench_row(
        &format!("synthetic-{pairs}x{noise}"),
        &rel,
        reps,
    )?);
    Ok(rows)
}

/// The wall-clock gate over [`igoodlock_bench`] rows: fails if any row's
/// indexed join regresses below the naive join (see [`min_row_speedup`])
/// — the guard that caught small rings paying index-construction cost
/// for buckets they never amortized. Only the `igoodlock_bench` binary
/// enforces it: on microsecond-scale rows timing is noise, which has no
/// place in a unit test.
pub fn check_row_speedups(rows: &[IGoodlockBenchRow]) -> Result<(), String> {
    for row in rows {
        let floor = min_row_speedup(row.naive_ms);
        if row.speedup < floor {
            return Err(format!(
                "{}: indexed join regressed below naive ({:.2}x < {floor}x floor; \
                 naive {:.3}ms, indexed {:.3}ms)",
                row.workload, row.speedup, row.naive_ms, row.indexed_ms
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_relation_has_one_full_cycle() {
        for n in [4u32, 7] {
            let rel = philosophers_ring_relation(n);
            assert_eq!(rel.len(), n as usize);
            let (cycles, _) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
            assert_eq!(cycles.len(), 1, "ring-{n} has exactly the full ring");
            assert_eq!(cycles[0].len(), n as usize);
        }
    }

    #[test]
    fn nested_relation_is_acyclic_and_chain_heavy() {
        let rel = nested_pairs_relation(3, 5);
        // 3 threads x C(5, 2) ordered pairs.
        assert_eq!(rel.len(), 30);
        let (cycles, stats) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        assert!(cycles.is_empty());
        // Per thread sequence (root smallest), one chain per strictly
        // increasing lock path: 30 + 3 * C(5, 3) + 2 * C(5, 4).
        assert_eq!(stats.chains_built, 30 + 30 + 10);
    }

    #[test]
    fn bench_rows_pass_parity_at_small_size() {
        let rows = igoodlock_bench(&[4, 6], &[(3, 5)], 4, 32, 3).expect("parity holds");
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.chains_built >= row.relation_size as u64);
            assert!(row.indexed_candidates_examined <= row.naive_candidates_examined);
        }
        assert_eq!(rows[0].cycles, 1);
        assert_eq!(rows[1].cycles, 1);
        assert_eq!(rows[2].workload, "nested-3x5");
        assert_eq!(rows[2].cycles, 0);
        assert_eq!(rows[3].cycles, 4);
    }
}
