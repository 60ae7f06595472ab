//! The per-run join index behind the indexed iGoodlock implementation.
//!
//! Algorithm 1 is a relational self-join: each level extends every open
//! chain with every compatible tuple of `D`. The brute-force form (kept
//! as [`crate::naive_igoodlock`]) scans **all** of `D` per chain and
//! re-checks Definition 2 with linear lockset scans. This module
//! precomputes, once per `igoodlock` call:
//!
//! * dense per-run ids for the relation's locks and threads
//!   ([`df_events::DenseInterner`] — never process-global, so parallel
//!   campaign workers stay independent);
//! * each tuple's lockset as a fixed-width bitset, all tuples in one
//!   flat word array (see [`bits`]), making Definition 2(3)/(4)
//!   membership and disjointness word-AND operations;
//! * a bucket of candidate tuples per held lock: a chain ending in lock
//!   `l` can only be extended by tuples whose lockset contains `l`
//!   (Definition 2(3)), so the join touches candidates, not all of `D`;
//! * a dense *projection id* per tuple — the `(thread, lock, contexts)`
//!   view that cycle deduplication compares — so reporting dedups on a
//!   `Vec<u32>` key instead of cloning context vectors per candidate.
//!
//! Buckets keep tuples in relation order, which is what makes the
//! indexed join's output byte-identical to the naive one: it accepts the
//! same extensions in the same order, only skipping tuples the naive
//! scan would have rejected anyway.

use std::collections::HashMap;

use df_events::{AcquireMode, DenseInterner, Label, ObjId, ThreadId};

use crate::relation::LockDep;

/// Fixed-width bitsets over dense per-run ids, stored as `u64` word
/// slices so that many of them can share one flat array (a tuple's
/// locksets here, a chain's four sets in a join level). Every slice of
/// one kind has the same width, so the binary operations zip words.
pub(crate) mod bits {
    /// Words needed for ids `0..nbits`.
    pub(crate) fn words_for(nbits: usize) -> usize {
        nbits.div_ceil(64)
    }

    /// Inserts `bit`.
    pub(crate) fn insert(words: &mut [u64], bit: u32) {
        words[bit as usize / 64] |= 1u64 << (bit as usize % 64);
    }

    /// Whether `bit` is present.
    pub(crate) fn contains(words: &[u64], bit: u32) -> bool {
        words[bit as usize / 64] & (1u64 << (bit as usize % 64)) != 0
    }

    /// Whether the two sets share any bit (Definition 2(4)'s disjointness
    /// check, one AND per word).
    pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).any(|(a, b)| a & b != 0)
    }

    /// Adds every bit of `src` into `dst`.
    pub(crate) fn union_into(dst: &mut [u64], src: &[u64]) {
        for (a, b) in dst.iter_mut().zip(src) {
            *a |= b;
        }
    }
}

/// Everything the indexed join precomputes about one relation. Arrays
/// are parallel to the relation's tuple order.
pub(crate) struct JoinIndex {
    /// Interned acquired lock of each tuple.
    pub(crate) lock: Vec<u32>,
    /// Acquisition mode of each tuple's acquired lock.
    pub(crate) mode: Vec<AcquireMode>,
    /// Thread of each tuple (raw id, for the §2.2.3 `>` root compare).
    pub(crate) thread: Vec<ThreadId>,
    /// Interned thread of each tuple (for the Definition 2(1) bitset).
    pub(crate) thread_bit: Vec<u32>,
    /// The locksets of all tuples, `2 * lock_words` words per tuple:
    /// first the interned lockset in any hold mode ([`Self::lockset`]),
    /// then its exclusively held subset ([`Self::lockset_excl`]).
    lockset_words: Vec<u64>,
    /// Dense id of each tuple's `(thread, lock, mode, contexts)`
    /// projection — the cycle-dedup key space.
    pub(crate) proj: Vec<u32>,
    /// For each interned lock `l`: the tuples whose lockset contains
    /// `l` in any mode, in relation order. Extension candidates for a
    /// chain ending in an *exclusive* acquisition (which conflicts with
    /// every hold).
    buckets: Vec<Vec<u32>>,
    /// For each interned lock `l`: the tuples holding `l` exclusively,
    /// in relation order. Extension candidates for a chain ending in a
    /// *shared* acquisition — read-read pairs never appear here, which
    /// is the bitset-level pruning of the mode-aware join.
    buckets_excl: Vec<Vec<u32>>,
    /// Number of distinct locks (bitset width).
    lock_bits: usize,
    /// Number of distinct threads (bitset width).
    thread_bits: usize,
}

impl JoinIndex {
    /// Builds the index in one pass over the relation (plus one pass to
    /// fill the buckets).
    pub(crate) fn build(deps: &[LockDep]) -> JoinIndex {
        let mut locks: DenseInterner<ObjId> = DenseInterner::new();
        let mut threads: DenseInterner<ThreadId> = DenseInterner::new();
        // Projections are interned by exact value (contexts included) so
        // dedup over projection ids is precisely the naive dedup over
        // `(thread, lock, mode, contexts)` tuples. Keys borrow the
        // contexts from the relation, so interning allocates nothing per
        // tuple.
        let mut projections: HashMap<(ThreadId, ObjId, AcquireMode, &[Label]), u32> =
            HashMap::new();
        let mut interned_ids = Vec::with_capacity(deps.len());
        for d in deps {
            locks.intern(d.lock);
            for &l in &d.lockset {
                locks.intern(l);
            }
            threads.intern(d.thread);
            let next = u32::try_from(projections.len()).expect("relation fits u32");
            let id = *projections
                .entry((d.thread, d.lock, d.mode, &d.contexts[..]))
                .or_insert(next);
            interned_ids.push(id);
        }
        let lock_bits = locks.len();
        let thread_bits = threads.len();
        let lock_words = bits::words_for(lock_bits);
        let mut index = JoinIndex {
            lock: Vec::with_capacity(deps.len()),
            mode: Vec::with_capacity(deps.len()),
            thread: Vec::with_capacity(deps.len()),
            thread_bit: Vec::with_capacity(deps.len()),
            lockset_words: vec![0; 2 * lock_words * deps.len()],
            proj: interned_ids,
            buckets: vec![Vec::new(); lock_bits],
            buckets_excl: vec![Vec::new(); lock_bits],
            lock_bits,
            thread_bits,
        };
        for (i, d) in deps.iter().enumerate() {
            let lock = locks.get(d.lock).expect("interned above");
            index.lock.push(lock);
            index.mode.push(d.mode);
            index.thread.push(d.thread);
            index
                .thread_bit
                .push(threads.get(d.thread).expect("interned above"));
            let tuple_words =
                &mut index.lockset_words[2 * lock_words * i..2 * lock_words * (i + 1)];
            let (set, set_excl) = tuple_words.split_at_mut(lock_words);
            for (j, &l) in d.lockset.iter().enumerate() {
                let bit = locks.get(l).expect("interned above");
                bits::insert(set, bit);
                index.buckets[bit as usize].push(u32::try_from(i).expect("relation fits u32"));
                let hold = d
                    .hold_modes
                    .get(j)
                    .copied()
                    .unwrap_or(AcquireMode::Exclusive);
                if hold.is_exclusive() {
                    bits::insert(set_excl, bit);
                    index.buckets_excl[bit as usize]
                        .push(u32::try_from(i).expect("relation fits u32"));
                }
            }
        }
        index
    }

    /// The candidate tuples for extending a chain whose last acquired
    /// lock is `last_lock` in mode `last_mode`: those whose lockset holds
    /// it *conflictingly* (Definition 2(3) plus the mode edge rule), in
    /// relation order. An exclusive acquisition conflicts with any hold;
    /// a shared acquisition only with exclusive holds, so read-read
    /// pairs never even enter the join.
    pub(crate) fn candidates(&self, last_lock: u32, last_mode: AcquireMode) -> &[u32] {
        match last_mode {
            AcquireMode::Exclusive => &self.buckets[last_lock as usize],
            AcquireMode::Shared => &self.buckets_excl[last_lock as usize],
        }
    }

    /// Whether tuple `first`'s hold of `last_lock` conflicts with an
    /// acquisition of it in `last_mode` — the mode-aware Definition 3
    /// closing check.
    pub(crate) fn closes_against(
        &self,
        first: usize,
        last_lock: u32,
        last_mode: AcquireMode,
    ) -> bool {
        match last_mode {
            AcquireMode::Exclusive => bits::contains(self.lockset(first), last_lock),
            AcquireMode::Shared => bits::contains(self.lockset_excl(first), last_lock),
        }
    }

    /// Tuple `i`'s interned lockset, all hold modes.
    pub(crate) fn lockset(&self, i: usize) -> &[u64] {
        let words = self.lock_words();
        &self.lockset_words[2 * words * i..2 * words * i + words]
    }

    /// The exclusively held subset of tuple `i`'s lockset. The
    /// mode-aware Definition 2(4): two locksets conflict only where at
    /// least one side holds a common lock exclusively, so disjointness
    /// becomes two AND probes against these.
    pub(crate) fn lockset_excl(&self, i: usize) -> &[u64] {
        let words = self.lock_words();
        &self.lockset_words[2 * words * i + words..2 * words * (i + 1)]
    }

    /// Words per lock bitset.
    pub(crate) fn lock_words(&self) -> usize {
        bits::words_for(self.lock_bits)
    }

    /// Words per thread bitset.
    pub(crate) fn thread_words(&self) -> usize {
        bits::words_for(self.thread_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_events::Label;

    fn dep(t: u32, held: &[u32], lock: u32) -> LockDep {
        LockDep::exclusive(
            ThreadId::new(t),
            ObjId::new(t),
            held.iter().map(|&h| ObjId::new(100 + h)).collect(),
            ObjId::new(100 + lock),
            (0..=held.len())
                .map(|i| Label::new(&format!("ix:{i}")))
                .collect(),
        )
    }

    #[test]
    fn bitset_operations() {
        assert_eq!(bits::words_for(130), 3);
        let mut a = vec![0u64; bits::words_for(130)];
        let mut b = vec![0u64; bits::words_for(130)];
        bits::insert(&mut a, 0);
        bits::insert(&mut a, 129);
        bits::insert(&mut b, 64);
        assert!(bits::contains(&a, 129));
        assert!(!bits::contains(&a, 64));
        assert!(!bits::intersects(&a, &b));
        bits::insert(&mut b, 0);
        assert!(bits::intersects(&a, &b));
        let mut u = vec![0u64; bits::words_for(130)];
        bits::union_into(&mut u, &a);
        bits::union_into(&mut u, &b);
        for bit in [0u32, 64, 129] {
            assert!(bits::contains(&u, bit));
        }
    }

    #[test]
    fn buckets_keep_relation_order_and_cover_locksets() {
        let deps = vec![
            dep(1, &[1], 2),
            dep(2, &[2, 3], 1),
            dep(3, &[1, 3], 4),
            dep(4, &[2], 5),
        ];
        let index = JoinIndex::build(&deps);
        // Lock "101" — acquired by tuple 1, held by tuples 0 and 2 —
        // buckets its holders in relation order.
        assert_eq!(
            index.candidates(index.lock[1], AcquireMode::Exclusive),
            &[0, 2]
        );
        // All holds are exclusive here, so a shared acquisition sees the
        // same candidates.
        assert_eq!(
            index.candidates(index.lock[1], AcquireMode::Shared),
            &[0, 2]
        );
        // A lock held nowhere (the acquired-only lock "105") has no
        // candidates.
        assert_eq!(
            index.candidates(index.lock[3], AcquireMode::Exclusive),
            &[] as &[u32]
        );
        assert_eq!(index.lock_bits, 5);
        assert_eq!(index.thread_bits, 4);
    }

    #[test]
    fn shared_holds_leave_the_exclusive_bucket() {
        // Tuple 0 holds lock 101 in read mode, tuple 1 holds it in write
        // mode. A shared (read) acquisition of 101 only conflicts with
        // tuple 1; an exclusive one with both.
        let mut read_holder = dep(1, &[1], 2);
        read_holder.hold_modes[0] = AcquireMode::Shared;
        let write_holder = dep(2, &[1], 3);
        let index = JoinIndex::build(&[read_holder, write_holder]);
        // Lock 101 is the single held lock of both tuples; find its bit
        // via tuple 1's lockset.
        let bit = (0..index.lock_bits as u32)
            .find(|&b| bits::contains(index.lockset(1), b))
            .unwrap();
        assert_eq!(index.candidates(bit, AcquireMode::Exclusive), &[0, 1]);
        assert_eq!(index.candidates(bit, AcquireMode::Shared), &[1]);
        assert!(bits::contains(index.lockset(0), bit));
        assert!(!bits::contains(index.lockset_excl(0), bit));
        assert!(bits::contains(index.lockset_excl(1), bit));
        // Closing checks follow the same rule.
        assert!(index.closes_against(0, bit, AcquireMode::Exclusive));
        assert!(!index.closes_against(0, bit, AcquireMode::Shared));
        assert!(index.closes_against(1, bit, AcquireMode::Shared));
    }

    #[test]
    fn projection_ids_identify_the_dedup_view() {
        // Same (thread, lock, contexts), different locksets → same
        // projection id; different contexts → different id.
        let a = dep(1, &[1], 9);
        let b = LockDep {
            lockset: vec![ObjId::new(100 + 2)],
            ..a.clone()
        };
        let mut c = dep(1, &[1], 9);
        c.contexts = vec![Label::new("other:0"), Label::new("other:1")];
        let index = JoinIndex::build(&[a, b, c]);
        assert_eq!(index.proj[0], index.proj[1]);
        assert_ne!(index.proj[0], index.proj[2]);
    }
}
