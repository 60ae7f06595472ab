//! Algorithm 4: `checkRealDeadlock`.

use df_events::{AcquireMode, ObjId, ThreadId};
use df_runtime::{
    DeadlockWitness, Detector, PendingOp, StateView, ThreadView, WaitForGraph, WitnessComponent,
};

/// Algorithm 4 of the paper, evaluated over the live execution state.
///
/// The paper's formulation looks for distinct threads `t_1 … t_m` and locks
/// `l_1 … l_m` with `l_i` *before* `l_{i+1}` in `LockSet[t_i]` (cyclically)
/// — where a thread *blocked in* an acquire keeps the target lock pushed on
/// its lock set. In this runtime, blocked threads announce their pending
/// acquire instead of pushing it, so the check is: build the wait-for
/// graph of
///
/// * held locks (every thread's lock stack),
/// * pending acquires of threads that are blocked (their lock is held by
///   someone else), and
/// * `candidate`'s pending acquire of `candidate_lock` (the acquire the
///   scheduler is about to let happen — the "push" of Algorithm 3 line 9),
///
/// and report a cycle as a real deadlock. Intended acquires of *paused*
/// threads count as edges too (even though Algorithm 3 as printed pops the
/// lock when pausing): a paused thread is one schedule decision away from
/// the acquire, and a cycle through it can always be driven to the actual
/// blocked state by releasing the paused threads one by one — every lock
/// in the cycle is held by a cycle member, so no one can escape. This is
/// what lets DeadlockFuzzer confirm a deadlock with *zero* thrashes
/// (Table 1 reports 0.00 average thrashes for Logging and DBCP at
/// probability 1.00, which is impossible if paused intents are invisible
/// to the check).
///
/// Returns the witness if the acquire closes a cycle.
///
/// Self-edges are dropped, so a cycle needs at least two distinct
/// threads with a wait edge: the candidate and some other announced
/// thread whose acquire is blocked. An allocation-free scan for such a
/// thread answers most calls; only when one exists is the graph built.
/// Either way the graph covers only unfinished threads: an exited thread
/// waits for nothing, so it can lie on no cycle.
pub fn check_real_deadlock(
    view: &StateView<'_>,
    candidate: ThreadId,
    candidate_lock: ObjId,
    candidate_mode: AcquireMode,
) -> Option<DeadlockWitness> {
    let another_waits = view
        .live_threads()
        .any(|t| t.id != candidate && blocked_wait(view, &t).is_some());
    let verdict = if another_waits {
        search(
            view,
            view.live_threads(),
            candidate,
            candidate_lock,
            candidate_mode,
        )
    } else {
        None
    };
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        verdict,
        search(
            view,
            view.threads().into_iter(),
            candidate,
            candidate_lock,
            candidate_mode
        ),
        "the early-out and the live-thread graph agree with the full graph over all threads"
    );
    verdict
}

/// The wait-for edge `t`'s announced acquire contributes: its lock and
/// mode, if the lock is currently held by another thread in a
/// conflicting mode — whether `t` is blocked in the acquire or paused
/// just before it. (An acquire of a free lock can never be part of a
/// cycle: a cycle needs the lock to be held by a cycle member. Likewise
/// a read of a read-held lock never blocks, so it contributes no edge.)
fn blocked_wait(view: &StateView<'_>, t: &ThreadView<'_>) -> Option<(ObjId, AcquireMode)> {
    let (lock, mode) = match t.pending {
        Some(PendingOp::Acquire { lock, mode, .. }) => (*lock, *mode),
        Some(PendingOp::WaitReacquire { lock, .. }) => (*lock, AcquireMode::Exclusive),
        _ => return None,
    };
    let writer_is_other = view.lock_owner(lock).is_some_and(|o| o != t.id);
    let blocked = match mode {
        AcquireMode::Exclusive => {
            writer_is_other || view.lock_readers(lock).iter().any(|&r| r != t.id)
        }
        AcquireMode::Shared => writer_is_other,
    };
    blocked.then_some((lock, mode))
}

/// Builds the wait-for graph of `threads` (see [`check_real_deadlock`])
/// and turns its first cycle into a witness.
fn search<'a>(
    view: &StateView<'a>,
    threads: impl Iterator<Item = ThreadView<'a>>,
    candidate: ThreadId,
    candidate_lock: ObjId,
    candidate_mode: AcquireMode,
) -> Option<DeadlockWitness> {
    let add_wait =
        |graph: &mut WaitForGraph, t: ThreadId, lock: ObjId, mode: AcquireMode| match mode {
            AcquireMode::Exclusive => graph.add_waits(t, lock),
            AcquireMode::Shared => graph.add_waits_shared(t, lock),
        };
    let mut graph = WaitForGraph::new();
    for t in threads {
        for &held in t.lock_stack {
            // A lock on the stack whose owner is someone else (or nobody)
            // is a shared hold: the runtime pushes read holds on the same
            // stack but only exclusive holds set the owner.
            if view.lock_owner(held) == Some(t.id) {
                graph.add_holds(t.id, held);
            } else {
                graph.add_holds_shared(t.id, held);
            }
        }
        if t.id == candidate {
            add_wait(&mut graph, t.id, candidate_lock, candidate_mode);
        } else if let Some((lock, mode)) = blocked_wait(view, &t) {
            add_wait(&mut graph, t.id, lock, mode);
        }
    }
    let cycle = graph.find_cycle()?;
    let components = cycle
        .iter()
        .map(|&tid| {
            let t = view.thread(tid);
            let waiting_for = graph
                .waiting_for(tid)
                .expect("cycle thread waits for a lock");
            let (site, waiting_mode) = match t.pending {
                Some(PendingOp::Acquire { site, mode, .. }) => (Some(*site), *mode),
                Some(PendingOp::WaitReacquire { site, .. }) => {
                    (Some(*site), AcquireMode::Exclusive)
                }
                _ => (None, AcquireMode::Exclusive),
            };
            let mut context = t.context_stack.to_vec();
            if let Some(site) = site {
                context.push(site);
            }
            let holding = t.lock_stack.to_vec();
            let holding_modes = holding
                .iter()
                .map(|&l| {
                    if view.lock_owner(l) == Some(tid) {
                        AcquireMode::Exclusive
                    } else {
                        AcquireMode::Shared
                    }
                })
                .collect();
            WitnessComponent {
                thread: tid,
                thread_obj: t.obj,
                thread_name: Some(t.name.to_string()),
                holding,
                holding_modes,
                waiting_for,
                waiting_mode,
                context,
            }
        })
        .collect();
    Some(DeadlockWitness {
        components,
        detected_by: Detector::Strategy,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use df_events::site;
    use df_runtime::{Directive, Outcome, RunConfig, Strategy, TCtx, VirtualRuntime};
    use parking_lot::Mutex;

    use super::*;

    /// A round-robin strategy that, before every pick, runs
    /// `check_real_deadlock` for each live thread with an announced
    /// acquire — enabled or blocked — and stops the run at the first
    /// witness. `blocked_checks` counts the calls made for a blocked
    /// candidate, so a test can tell a waiting thread was examined.
    struct Probe {
        last: Option<ThreadId>,
        blocked_checks: Arc<Mutex<u32>>,
    }

    impl Strategy for Probe {
        fn pick(&mut self, view: &StateView<'_>, enabled: &[ThreadId]) -> Directive {
            for t in view.live_threads() {
                if let Some(PendingOp::Acquire { lock, mode, .. }) = t.pending {
                    if !t.enabled {
                        *self.blocked_checks.lock() += 1;
                    }
                    if let Some(w) = check_real_deadlock(view, t.id, *lock, *mode) {
                        return Directive::Deadlock(w);
                    }
                }
            }
            let next = enabled
                .iter()
                .copied()
                .find(|&t| Some(t) > self.last)
                .unwrap_or(enabled[0]);
            self.last = Some(next);
            Directive::Run(next)
        }
    }

    /// Runs `program` under [`Probe`]; returns the outcome and the number
    /// of checks made for a blocked candidate.
    fn probe(program: impl Fn(&TCtx) + Send + 'static) -> (Outcome, u32) {
        let checks = Arc::new(Mutex::new(0));
        let strategy = Probe {
            last: None,
            blocked_checks: Arc::clone(&checks),
        };
        let r = VirtualRuntime::new(RunConfig::default()).run(Box::new(strategy), program);
        let n = *checks.lock();
        (r.outcome, n)
    }

    /// The main thread stays enabled for `n` yields, so the strategy is
    /// still consulted once the other threads are all blocked.
    fn keep_main_enabled(ctx: &TCtx, n: u32) {
        for _ in 0..n {
            ctx.yield_now();
        }
    }

    #[test]
    fn a_lone_waiter_is_no_deadlock() {
        let (outcome, checks) = probe(|ctx: &TCtx| {
            let a = ctx.new_lock(site!("a"));
            ctx.acquire(&a, site!("main a"));
            let t = ctx.spawn(site!(), "waiter", move |ctx| {
                ctx.acquire(&a, site!("waiter a"));
                ctx.release(&a, site!());
            });
            keep_main_enabled(ctx, 6);
            ctx.release(&a, site!());
            ctx.join(&t, site!());
        });
        assert!(outcome.is_completed(), "{outcome:?}");
        assert!(checks > 0, "the blocked waiter must be checked");
    }

    #[test]
    fn a_two_thread_inversion_is_found() {
        let (outcome, _) = probe(|ctx: &TCtx| {
            let a = ctx.new_lock(site!("a"));
            let b = ctx.new_lock(site!("b"));
            let t1 = ctx.spawn(site!(), "t1", move |ctx| {
                ctx.acquire(&a, site!("t1 a"));
                ctx.yield_now();
                ctx.acquire(&b, site!("t1 b"));
            });
            let t2 = ctx.spawn(site!(), "t2", move |ctx| {
                ctx.acquire(&b, site!("t2 b"));
                ctx.yield_now();
                ctx.acquire(&a, site!("t2 a"));
            });
            keep_main_enabled(ctx, 20);
            ctx.join(&t1, site!());
            ctx.join(&t2, site!());
        });
        let w = outcome.deadlock().expect("inversion found");
        assert_eq!(w.len(), 2);
        assert_eq!(w.detected_by, Detector::Strategy);
        let mut names: Vec<_> = w
            .components
            .iter()
            .map(|c| c.thread_name.clone().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["t1", "t2"]);
    }

    #[test]
    fn a_three_thread_ring_is_found() {
        let (outcome, _) = probe(|ctx: &TCtx| {
            let locks: Vec<_> = (0..3).map(|_| ctx.new_lock(site!("ring lock"))).collect();
            let workers: Vec<_> = (0..3)
                .map(|i| {
                    let first = locks[i];
                    let second = locks[(i + 1) % 3];
                    ctx.spawn(site!(), &format!("r{i}"), move |ctx| {
                        ctx.acquire(&first, site!("ring first"));
                        ctx.yield_now();
                        ctx.acquire(&second, site!("ring second"));
                    })
                })
                .collect();
            keep_main_enabled(ctx, 20);
            for w in &workers {
                ctx.join(w, site!());
            }
        });
        let w = outcome.deadlock().expect("ring found");
        assert_eq!(w.len(), 3);
        assert_eq!(w.detected_by, Detector::Strategy);
    }

    #[test]
    fn a_reader_blocking_a_writer_closes_a_cycle() {
        let (outcome, _) = probe(|ctx: &TCtx| {
            let rw = ctx.new_lock(site!("rw"));
            let m = ctx.new_lock(site!("m"));
            let reader = ctx.spawn(site!(), "reader", move |ctx| {
                ctx.acquire_shared(&rw, site!("reader rw"));
                ctx.yield_now();
                ctx.acquire(&m, site!("reader m"));
            });
            let writer = ctx.spawn(site!(), "writer", move |ctx| {
                ctx.acquire(&m, site!("writer m"));
                ctx.yield_now();
                ctx.acquire(&rw, site!("writer rw"));
            });
            keep_main_enabled(ctx, 20);
            ctx.join(&reader, site!());
            ctx.join(&writer, site!());
        });
        let w = outcome.deadlock().expect("reader/writer cycle found");
        assert_eq!(w.len(), 2);
        assert_eq!(w.detected_by, Detector::Strategy);
        let reader = w
            .components
            .iter()
            .find(|c| c.thread_name.as_deref() == Some("reader"))
            .expect("reader is on the cycle");
        assert_eq!(reader.holding_modes, [AcquireMode::Shared]);
        let writer = w
            .components
            .iter()
            .find(|c| c.thread_name.as_deref() == Some("writer"))
            .expect("writer is on the cycle");
        assert_eq!(writer.waiting_mode, AcquireMode::Exclusive);
    }
}
