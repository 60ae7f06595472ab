//! The indexed iGoodlock join against its brute-force oracle: on
//! randomized relations and under every truncation option, the two must
//! produce **byte-identical** cycle reports (same cycles, same component
//! order, same serialization) and an identical join shape
//! (`chains_built`, `chains_per_iteration`, `truncated`).
//!
//! The indexed join keeps each level's chain bitsets in one flat word
//! array, with a per-chain stride that depends on how many threads and
//! locks the relation interns. `arb_wide_relation` interns more than 64
//! of each, so every bitset spans several words and the stride
//! arithmetic faces the oracle too.

use std::collections::BTreeSet;

use df_events::{AcquireMode, Label, ObjId, ThreadId};
use df_igoodlock::{
    igoodlock_with_stats, naive_igoodlock_with_stats, IGoodlockOptions, LockDep,
    LockDependencyRelation,
};
use proptest::prelude::*;

/// Random relations with enough thread/lock collisions to exercise every
/// Definition 2 predicate, plus repeated tuples to exercise relation
/// dedup and lockset-only differences to exercise cycle dedup. Shared
/// acquisitions and holds are mixed in so the mode-aware bucket split
/// and disjointness probes face the oracle too.
fn arb_relation() -> impl Strategy<Value = LockDependencyRelation> {
    prop::collection::vec(
        (
            1..6u32,                                         // thread
            prop::collection::vec((0..7u32, 0..2u32), 1..4), // held + shared?
            0..7u32,                                         // lock
            0..3u32,                                         // context variant
            0..2u32,                                         // shared acquire?
        ),
        0..18,
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
            .filter(|(_, held, lock, _, _)| held.iter().all(|&(h, _)| h != *lock))
            .map(|(t, mut held, lock, ctx, shared)| {
                held.sort_by_key(|&(h, _)| h);
                held.dedup_by_key(|&mut (h, _)| h);
                let mut dep = LockDep::exclusive(
                    ThreadId::new(t),
                    ObjId::new(t),
                    held.iter().map(|&(h, _)| ObjId::new(100 + h)).collect(),
                    ObjId::new(100 + lock),
                    (0..=held.len())
                        .map(|i| Label::new(&format!("ivn:{ctx}:{i}")))
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

/// Filler tuples in a wide relation. Each brings its own thread and two
/// locks of its own, so a wide relation interns more than 64 threads and
/// more than 128 locks: thread bitsets take two words, lock bitsets three.
const WIDE_FILLERS: usize = 66;

/// A wide relation: an [`arb_relation`]-style core of colliding tuples
/// (6 threads, 8 locks, raw ids spread over large ranges) with
/// [`WIDE_FILLERS`] filler tuples spliced in at random positions. Ids are
/// interned in relation order, so the core's threads and locks land in
/// different words of the bitsets. A filler acquires a lock nobody holds
/// (its chains end there) and may also hold a core lock, which makes it
/// a candidate for core chains.
fn arb_wide_relation() -> impl Strategy<Value = LockDependencyRelation> {
    let core = prop::collection::vec(
        (
            0..6usize,                                         // thread
            prop::collection::vec((0..8usize, 0..2u32), 1..3), // held + shared?
            0..8usize,                                         // lock
            0..2u32,                                           // context variant
            0..2u32,                                           // shared acquire?
        ),
        8..16,
    );
    let fillers = prop::collection::vec(
        (
            0..16usize,                             // insert before this core tuple
            prop::option::of((0..8usize, 0..2u32)), // a core lock held + shared?
        ),
        WIDE_FILLERS,
    );
    // Raw ids as running sums of positive gaps: distinct, increasing and
    // spread over a few hundred values.
    let ids = |n: usize| {
        prop::collection::vec(1..60u32, n).prop_map(|gaps| {
            gaps.iter()
                .scan(0, |id, gap| {
                    *id += gap;
                    Some(*id)
                })
                .collect::<Vec<u32>>()
        })
    };
    (core, fillers, ids(6), ids(8)).prop_map(|(core, fillers, thread_ids, lock_ids)| {
        let mode_of = |shared: u32| {
            if shared == 1 {
                AcquireMode::Shared
            } else {
                AcquireMode::Exclusive
            }
        };
        let lock = |l: usize| ObjId::new(100 + lock_ids[l]);
        let core_deps: Vec<LockDep> = core
            .into_iter()
            .filter(|(_, held, lock, _, _)| held.iter().all(|&(h, _)| h != *lock))
            .map(|(t, mut held, l, ctx, shared)| {
                held.sort_by_key(|&(h, _)| h);
                held.dedup_by_key(|&mut (h, _)| h);
                let thread = thread_ids[t];
                let mut dep = LockDep::exclusive(
                    ThreadId::new(thread),
                    ObjId::new(thread),
                    held.iter().map(|&(h, _)| lock(h)).collect(),
                    lock(l),
                    (0..=held.len())
                        .map(|i| Label::new(&format!("wide:{ctx}:{i}")))
                        .collect(),
                );
                dep.mode = mode_of(shared);
                dep.hold_modes = held.iter().map(|&(_, s)| mode_of(s)).collect();
                dep
            })
            .collect();
        let mut deps = Vec::new();
        for (slot, core_dep) in core_deps.iter().enumerate() {
            for (f, &(before, core_hold)) in fillers.iter().enumerate() {
                if before == slot {
                    deps.push(filler(
                        f as u32,
                        core_hold.map(|(h, s)| (lock(h), mode_of(s))),
                    ));
                }
            }
            deps.push(core_dep.clone());
        }
        for (f, &(before, core_hold)) in fillers.iter().enumerate() {
            if before >= core_deps.len() {
                deps.push(filler(
                    f as u32,
                    core_hold.map(|(h, s)| (lock(h), mode_of(s))),
                ));
            }
        }
        LockDependencyRelation::from_deps(deps)
    })
}

/// Filler tuple `f` of a wide relation: thread `1000 + f` holds its own
/// lock (and `core_hold`, if any) while it acquires another lock of its
/// own.
fn filler(f: u32, core_hold: Option<(ObjId, AcquireMode)>) -> LockDep {
    let own = |k: u32| ObjId::new(10_000 + 2 * f + k);
    let mut held = vec![own(0)];
    let mut modes = vec![AcquireMode::Exclusive];
    if let Some((l, mode)) = core_hold {
        held.push(l);
        modes.push(mode);
    }
    let mut dep = LockDep::exclusive(
        ThreadId::new(1000 + f),
        ObjId::new(1000 + f),
        held,
        own(1),
        (0..=modes.len())
            .map(|i| Label::new(&format!("filler:{i}")))
            .collect(),
    );
    dep.hold_modes = modes;
    dep
}

fn option_matrix() -> Vec<IGoodlockOptions> {
    vec![
        IGoodlockOptions::default(),
        IGoodlockOptions::length_two_only(),
        IGoodlockOptions {
            max_cycle_length: Some(3),
            ..IGoodlockOptions::default()
        },
        IGoodlockOptions {
            max_cycles: 2,
            ..IGoodlockOptions::default()
        },
        IGoodlockOptions {
            max_open_chains: 3,
            ..IGoodlockOptions::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Byte-identical reports and identical join shape under every
    /// bounding option, including the ones that truncate mid-join.
    #[test]
    fn indexed_is_byte_identical_to_naive(rel in arb_relation()) {
        for options in option_matrix() {
            let (ic, is) = igoodlock_with_stats(&rel, &options);
            let (nc, ns) = naive_igoodlock_with_stats(&rel, &options);
            let ij = serde_json::to_string(&ic).expect("serialize");
            let nj = serde_json::to_string(&nc).expect("serialize");
            prop_assert_eq!(ij, nj);
            prop_assert_eq!(is.chains_built, ns.chains_built);
            prop_assert_eq!(is.iterations, ns.iterations);
            prop_assert_eq!(&is.chains_per_iteration, &ns.chains_per_iteration);
            prop_assert_eq!(is.truncated, ns.truncated);
            prop_assert_eq!(is.peak_open_chains, ns.peak_open_chains);
            prop_assert_eq!(is.pruned_by_hb, ns.pruned_by_hb);
        }
    }

    /// The same law on relations whose bitsets span several words. The
    /// naive join examines every tuple for every open chain, so its
    /// `join_candidates_examined` is an upper bound, not an equal.
    #[test]
    fn indexed_is_byte_identical_to_naive_on_wide_bitsets(rel in arb_wide_relation()) {
        let threads: BTreeSet<ThreadId> = rel.deps().iter().map(|d| d.thread).collect();
        let locks: BTreeSet<ObjId> = rel
            .deps()
            .iter()
            .flat_map(|d| d.lockset.iter().copied().chain([d.lock]))
            .collect();
        prop_assert!(rel.len() >= WIDE_FILLERS);
        prop_assert!(threads.len() > 64 && locks.len() > 128);
        for options in option_matrix() {
            let (ic, is) = igoodlock_with_stats(&rel, &options);
            let (nc, ns) = naive_igoodlock_with_stats(&rel, &options);
            let ij = serde_json::to_string(&ic).expect("serialize");
            let nj = serde_json::to_string(&nc).expect("serialize");
            prop_assert_eq!(ij, nj);
            prop_assert_eq!(is.chains_built, ns.chains_built);
            prop_assert_eq!(is.iterations, ns.iterations);
            prop_assert_eq!(&is.chains_per_iteration, &ns.chains_per_iteration);
            prop_assert_eq!(is.truncated, ns.truncated);
            prop_assert_eq!(is.peak_open_chains, ns.peak_open_chains);
            prop_assert!(is.join_candidates_examined <= ns.join_candidates_examined);
        }
    }

    /// The index never examines more candidates than the brute-force
    /// scan (the whole point of bucketing by held lock).
    #[test]
    fn index_never_examines_more_candidates(rel in arb_relation()) {
        let (_, is) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        let (_, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        prop_assert!(is.join_candidates_examined <= ns.join_candidates_examined);
    }
}
