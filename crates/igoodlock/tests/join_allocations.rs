//! The indexed join allocates per tuple and per level, never per chain.
//!
//! A counting global allocator sees every heap allocation of this
//! process, which is why this check is a test binary of its own. It runs
//! the join on a chain-heavy relation (many threads nesting ordered lock
//! pairs, as on a trace of workers that respect one lock order) and
//! bounds the allocations by the relation's size and the join's depth.
//! It counts and never times anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use df_events::{Label, ObjId, ThreadId};
use df_igoodlock::{igoodlock_with_stats, IGoodlockOptions, LockDep, LockDependencyRelation};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is only a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Each of `threads` threads nests every ordered pair `(a, b)`, `a < b`,
/// of `locks` locks: no cycle, but one open chain per run of distinct
/// threads along a strictly increasing lock path.
fn nested_pairs(threads: u32, locks: u32) -> LockDependencyRelation {
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
                    vec![Label::new(&format!("o:{a}")), Label::new(&format!("i:{b}"))],
                ));
            }
        }
    }
    LockDependencyRelation::from_deps(deps)
}

#[test]
fn join_allocations_do_not_grow_with_chains_built() {
    let relation = nested_pairs(5, 10);
    let options = IGoodlockOptions::default();
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let (cycles, stats) = igoodlock_with_stats(&relation, &options);
    COUNTING.store(false, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);

    assert!(cycles.is_empty());
    assert!(
        stats.chains_built >= 10_000,
        "the relation must be chain-heavy, built {}",
        stats.chains_built
    );
    // The index allocates at most a few times per tuple and per lock
    // (interners, projection map, buckets); each level's two flat buffers
    // grow by doubling. On this relation the join makes 154 allocations
    // for 18,225 chains; one that allocates per chain makes over 100,000.
    let tuples = relation.len() as u64;
    let bound = 2 * tuples + 32 * stats.iterations as u64 + 128;
    assert!(
        allocations <= bound,
        "{allocations} allocations for {} tuples, {} levels and {} chains \
         (bound {bound}): the join allocates per chain",
        tuples,
        stats.iterations,
        stats.chains_built
    );
}
