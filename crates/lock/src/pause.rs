//! Phase II on native threads: the mechanism behind a [`PausePolicy`].
//!
//! CalFuzzer pauses a thread just before an acquisition that matches a
//! component of the target cycle, checks for a real deadlock first
//! (`checkRealDeadlock`, Algorithm 4), and un-pauses threads that stay
//! paused too long (§2.3, §5). The tracker provides those pieces; the
//! policy — which acquisitions to pause, which paused thread to release
//! when every thread is stuck — comes from the caller (the
//! `deadlock-fuzzer` crate supplies the Algorithm 3 one and a
//! noise-injection baseline).
//!
//! * **Pre-acquire hook.** Every blocking acquisition asks the policy
//!   first. A pause registers the thread's intended wait edge, runs
//!   cycle detection over held locks plus every blocked, parked and
//!   paused thread's intended edge, and parks the thread on the tracker
//!   until it is released.
//! * **Abort and unwind.** When a cycle closes — at a pause point or at a
//!   contended acquisition — the witness is recorded and the thread
//!   unwinds instead of parking natively. Unwinding drops its guards,
//!   which frees the others, and every later tracked operation of the run
//!   unwinds too, so the program's threads stay joinable and the process
//!   never wedges. The unwind uses [`std::panic::resume_unwind`], so the
//!   panic hook stays quiet.
//! * **Watchdog.** A thread per run enforces the [`Timeouts`]: it
//!   releases a thread paused longer than the pause timeout (the §5
//!   monitor), thrashes — releases the policy's pick — when every live
//!   thread is blocked or paused, and aborts the run when no event is
//!   emitted for the hang timeout or the deadline passes.

use std::fmt;
use std::panic;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use df_events::{Label, ObjId, ObjectTable, ThreadId};
use df_obs::TraceEvent;
use df_runtime::{DeadlockWitness, Detector};
use parking_lot::MutexGuard;

use crate::tracker::{self, Access, State, TrackerInner};

/// What a Phase II policy decides for one blocking acquisition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Acquire now.
    Proceed,
    /// Pause the thread before the acquisition (Algorithm 3 line 15),
    /// unless the acquisition closes a real deadlock.
    Pause,
    /// Sleep this long, then acquire (noise injection).
    Sleep(Duration),
}

/// The watchdog's time limits for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timeouts {
    /// Release a thread paused longer than this (the §5 monitor).
    pub pause: Duration,
    /// Abort the run after this long without a new event.
    pub hang: Duration,
    /// Abort the run this long after the tracker was created, even while
    /// it makes progress. `None` means unbounded.
    pub deadline: Option<Duration>,
}

/// A blocking acquisition about to happen, as the policy sees it.
#[derive(Clone, Copy, Debug)]
pub struct AcquireRequest<'a> {
    /// The acquiring thread's object.
    pub thread_obj: ObjId,
    /// The lock about to be acquired.
    pub lock: ObjId,
    /// The acquisition site.
    pub site: Label,
    /// Sites of the locks the thread holds, outermost first.
    pub held_sites: &'a [Label],
    /// The object table, for abstracting `thread_obj` and `lock`.
    pub objects: &'a ObjectTable,
}

/// The policy half of Phase II on native threads. Install one with
/// [`crate::TrackerConfig::with_pause_policy`].
///
/// Both decision methods run under the tracker's registry lock and must
/// not touch tracked locks.
pub trait PausePolicy: Send + Sync + fmt::Debug {
    /// Decides what to do before `request`'s acquisition.
    fn before_acquire(&self, request: &AcquireRequest<'_>) -> Decision;

    /// Picks the paused thread to release when every live thread is
    /// blocked or paused. `paused` is sorted and never empty.
    fn thrash_victim(&self, paused: &[ThreadId]) -> ThreadId;

    /// The watchdog's limits.
    fn timeouts(&self) -> Timeouts;
}

/// Why a run under a pause policy ended early, as reported by
/// [`crate::Tracker::finish`].
#[derive(Clone, Debug, PartialEq)]
pub enum Stop {
    /// A real deadlock was created and witnessed; its threads were
    /// unwound instead of left stuck.
    Deadlock(DeadlockWitness),
    /// A tracked thread panicked for a reason other than the abort — a
    /// bug in the program under test. Carries the panic message.
    ProgramPanic(String),
    /// The deadline passed while the program was still making progress.
    DeadlineExceeded,
    /// No event was emitted for the hang timeout.
    Timeout,
}

/// The panic payload an aborted run unwinds its threads with.
#[derive(Debug)]
struct Aborted;

/// Whether a caught panic payload is the abort of a pause-policy run
/// (control flow, not a program failure).
/// [`crate::TrackedJoinHandle::join`] passes the abort on to the joiner,
/// so a harness that runs a program under a pause policy catches it
/// once, on the thread that started the program.
pub fn is_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<Aborted>()
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "program thread panicked".to_string())
}

/// Unwinds the calling thread out of an aborted run, releasing the
/// registry lock first.
pub(crate) fn unwind(st: MutexGuard<'_, State>) -> ! {
    drop(st);
    panic::resume_unwind(Box::new(Aborted))
}

/// Marks the run aborted for `stop` (the first cause wins) and wakes
/// every paused thread so it unwinds.
fn abort(inner: &TrackerInner, st: &mut State, stop: Stop) {
    st.stop.get_or_insert(stop);
    st.aborting = true;
    inner.wake.notify_all();
}

/// Records `witness` as the run's verdict and unwinds the thread that
/// closed the cycle.
pub(crate) fn abort_on_deadlock(
    inner: &TrackerInner,
    mut st: MutexGuard<'_, State>,
    witness: DeadlockWitness,
) -> ! {
    trace_check(inner, &st, Some(witness.len()));
    abort(inner, &mut st, Stop::Deadlock(witness));
    unwind(st)
}

/// Streams the `CheckRealDeadlock` decision (cycle length if found).
fn trace_check(inner: &TrackerInner, st: &State, cycle: Option<usize>) {
    if inner.obs.traces() {
        inner.obs.emit(&TraceEvent::CheckRealDeadlock {
            step: st.event_seq,
            verdict: cycle.is_some(),
            cycle_len: cycle.unwrap_or(0),
        });
    }
}

/// The pre-acquire hook under a policy: abort check, the policy's
/// decision, and — for a pause — `checkRealDeadlock` then parking until
/// the watchdog releases the thread.
pub(crate) fn pause_point(
    inner: &Arc<TrackerInner>,
    policy: &dyn PausePolicy,
    lock: ObjId,
    site: Label,
    access: Access,
) {
    let me = tracker::current_thread(inner);
    let mut st = tracker::live_state(inner);
    let decision = {
        let state: &State = &st;
        let ts = &state.threads[&me];
        policy.before_acquire(&AcquireRequest {
            thread_obj: ts.obj,
            lock,
            site,
            held_sites: &ts.context_stack,
            objects: state.trace.objects(),
        })
    };
    match decision {
        Decision::Proceed => {}
        Decision::Sleep(d) => {
            drop(st);
            std::thread::sleep(d);
        }
        Decision::Pause => {
            // checkRealDeadlock before pausing (Algorithm 3 line 11): the
            // intended edge joins the graph, and stays while paused so
            // other threads' checks see it.
            st.waits.insert(me, (lock, site, access));
            let verdict = tracker::detect(&mut st, me, Detector::Strategy);
            if let Some((witness, _)) = verdict {
                abort_on_deadlock(inner, st, witness);
            }
            trace_check(inner, &st, None);
            if inner.obs.traces() {
                inner.obs.emit(&TraceEvent::Pause {
                    step: st.event_seq,
                    thread: me,
                    name: st.threads[&me].name.clone(),
                    lock: tracker::lock_name(st.trace.objects(), lock),
                    site: site.to_string(),
                });
            }
            st.paused.insert(me, Instant::now());
            inner.obs.counters().add_threads_paused(1);
            while st.paused.contains_key(&me) && !st.aborting {
                inner.wake.wait(&mut st);
            }
            st.waits.remove(&me);
            if st.aborting {
                unwind(st);
            }
        }
    }
}

/// Waits until `finished` holds, unwinding if the run aborts first.
/// Exiting threads notify `wake`; the bounded wait covers the moment
/// between that notify and the thread actually finishing.
pub(crate) fn await_exit(inner: &TrackerInner, finished: impl Fn() -> bool) {
    let mut st = inner.state.lock();
    while !finished() {
        if st.aborting {
            unwind(st);
        }
        inner.wake.wait_for(&mut st, Duration::from_millis(5));
    }
}

/// Releases paused thread `t`: the §5 monitor (`thrash == false`) or a
/// thrash.
fn release(inner: &TrackerInner, st: &mut State, t: ThreadId, thrash: bool) {
    st.paused.remove(&t);
    if thrash {
        inner.obs.counters().add_thrash_events(1);
    }
    if inner.obs.traces() {
        let name = st.threads[&t].name.clone();
        let step = st.event_seq;
        inner.obs.emit(&if thrash {
            TraceEvent::Thrash {
                step,
                thread: t,
                name,
            }
        } else {
            TraceEvent::Unpause {
                step,
                thread: t,
                name,
            }
        });
    }
    inner.wake.notify_all();
}

/// Starts the run's watchdog. It holds only a weak reference, so it
/// exits when the tracker is dropped as well as when the run aborts or
/// finishes.
pub(crate) fn start_watchdog(weak: Weak<TrackerInner>, limits: Timeouts, created: Instant) {
    // Pause timeouts and thrash detection need a fine poll, but only
    // while some thread is paused; the hang and deadline checks tolerate
    // a coarser one.
    let fine = Duration::from_millis(5);
    let coarse = (limits.hang / 10).clamp(fine, Duration::from_millis(50));
    std::thread::Builder::new()
        .name("df-watchdog".into())
        .spawn(move || {
            let mut last_progress = 0u64;
            let mut last_change = Instant::now();
            let mut poll = fine;
            loop {
                std::thread::sleep(poll);
                let Some(inner) = weak.upgrade() else { return };
                let mut st = inner.state.lock();
                if st.aborting {
                    return;
                }
                // Anchored to tracker creation, not to whenever this
                // thread got scheduled: a slow start under load must not
                // extend the run's budget.
                if limits.deadline.is_some_and(|d| created.elapsed() > d) {
                    abort(&inner, &mut st, Stop::DeadlineExceeded);
                    return;
                }
                if st.event_seq != last_progress {
                    last_progress = st.event_seq;
                    last_change = Instant::now();
                } else if last_change.elapsed() > limits.hang {
                    abort(&inner, &mut st, Stop::Timeout);
                    return;
                }
                let mut paused: Vec<ThreadId> = st.paused.keys().copied().collect();
                paused.sort();
                let (expired, waiting): (Vec<ThreadId>, Vec<ThreadId>) = paused
                    .into_iter()
                    .partition(|t| st.paused[t].elapsed() > limits.pause);
                for &t in &expired {
                    release(&inner, &mut st, t, false);
                }
                let mut live = st.threads.iter().filter(|(_, ts)| !ts.exited).peekable();
                let all_stuck =
                    live.peek().is_some() && live.all(|(t, _)| st.waits.contains_key(t));
                if all_stuck && !waiting.is_empty() {
                    let victim = inner
                        .policy
                        .as_ref()
                        .expect("watchdog runs under a policy")
                        .thrash_victim(&waiting);
                    release(&inner, &mut st, victim, true);
                }
                poll = if st.paused.is_empty() { coarse } else { fine };
            }
        })
        .expect("failed to spawn watchdog");
}

/// See [`crate::Tracker::finish`].
pub(crate) fn finish(inner: &TrackerInner) -> Option<Stop> {
    let policy = inner.policy.as_ref()?;
    let mut st = inner.state.lock();
    st.aborting = true;
    inner.wake.notify_all();
    let drain_until = Instant::now() + policy.timeouts().hang;
    while st.running > 0 {
        let left = drain_until.saturating_duration_since(Instant::now());
        if left.is_zero() || inner.wake.wait_for(&mut st, left).timed_out() {
            break;
        }
    }
    let stop = st.stop.take();
    match (stop, st.program_panic.take()) {
        (Some(deadlock @ Stop::Deadlock(_)), _) => Some(deadlock),
        (_, Some(message)) => Some(Stop::ProgramPanic(message)),
        (stop, None) => stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrackedMutex, Tracker, TrackerConfig};

    /// Pauses every acquisition; releases the lowest paused thread.
    #[derive(Debug)]
    struct PauseAll(Timeouts);

    impl PausePolicy for PauseAll {
        fn before_acquire(&self, _: &AcquireRequest<'_>) -> Decision {
            Decision::Pause
        }
        fn thrash_victim(&self, paused: &[ThreadId]) -> ThreadId {
            paused[0]
        }
        fn timeouts(&self) -> Timeouts {
            self.0
        }
    }

    fn limits(deadline: Option<Duration>) -> Timeouts {
        Timeouts {
            pause: Duration::from_millis(500),
            hang: Duration::from_secs(5),
            deadline,
        }
    }

    #[test]
    fn deadline_is_anchored_to_tracker_creation_not_watchdog_spawn() {
        // Backdate the tracker: from its point of view the 1s deadline
        // expired long ago, even though the watchdog thread is brand new.
        // Measuring the deadline from watchdog spawn would report
        // `None` (completed) here.
        let created = Instant::now()
            .checked_sub(Duration::from_secs(2))
            .expect("system uptime exceeds two seconds");
        let policy = Arc::new(PauseAll(limits(Some(Duration::from_secs(1)))));
        let tracker =
            Tracker::started_at(TrackerConfig::default().with_pause_policy(policy), created);
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(tracker.finish(), Some(Stop::DeadlineExceeded));
    }

    #[test]
    fn a_lone_paused_thread_is_thrashed_free() {
        // The only live thread pauses: every live thread is stuck, so the
        // watchdog releases it long before the 500ms pause timeout.
        let policy = Arc::new(PauseAll(limits(None)));
        let obs = df_obs::Obs::default();
        let tracker = Tracker::new(
            TrackerConfig::default()
                .with_obs(obs.clone())
                .with_pause_policy(policy),
        );
        let m = TrackedMutex::with_tracker(&tracker, 0u32);
        let started = Instant::now();
        *m.lock().unwrap() += 1;
        assert!(started.elapsed() < Duration::from_millis(400));
        assert!(tracker.inner().state.lock().paused.is_empty());
        let counters = obs.counters().snapshot();
        assert_eq!(counters.threads_paused, 1);
        assert_eq!(counters.thrash_events, 1);
        assert_eq!(tracker.finish(), None);
    }
}
