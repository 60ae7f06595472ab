//! The token-passing controller: serializes virtual threads and consults
//! the strategy at every schedule point.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use df_events::{AcquireMode, EventKind, Label, ObjId, ObjKind, ThreadId};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::carrier::{self, Latch};
use crate::config::RunConfig;
use crate::ctx::TCtx;
use crate::fault::{FaultState, InjectedFault};
use crate::fiber::{self, Fiber};
use crate::pending::PendingOp;
use crate::result::{DeadlockWitness, Detector, Outcome, WitnessComponent};
use crate::state::{Global, ThreadState, ThreadStatus};
use crate::strategy::{Directive, Strategy};
use crate::view::StateView;
use crate::waitfor::WaitForGraph;

/// Panic payload used to unwind a virtual thread when the run is aborted.
pub(crate) struct AbortToken;

/// Error returned by controller operations once the run is shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Aborted;

/// Result of executing a pending operation.
pub(crate) enum OpOutcome {
    Unit,
    Created(ObjId),
    /// Saved monitor recursion count (from `WaitRelease` /
    /// `CondWaitRelease`).
    Count(u32),
    /// Whether a `TryAcquire` obtained the lock.
    Acquired(bool),
}

pub(crate) struct Inner {
    pub(crate) g: Global,
    pub(crate) strategy: Option<Box<dyn Strategy>>,
    /// One fiber per virtual thread, indexed by `ThreadId`. Grown only by
    /// [`Controller::launch`]. The executor takes a fiber out while it
    /// runs and puts it back once it is suspended or finished.
    fibers: Vec<Fiber>,
    /// The enabled set of the current schedule point, kept to reuse its
    /// allocation.
    enabled: Vec<ThreadId>,
    /// Set when the run has fully terminated (normally or by abort).
    pub(crate) done: bool,
    /// Resumptions of a fiber that found the token elsewhere while the run
    /// was still going: always zero when the executor resumes only the
    /// picked thread.
    #[cfg(test)]
    pub(crate) futile_wakeups: u64,
}

/// Shared controller for one run.
pub(crate) struct Controller {
    pub(crate) inner: Mutex<Inner>,
    /// The supervisor's own condvar (see `VirtualRuntime::run`), signalled
    /// only when the run ends.
    pub(crate) supervisor: Condvar,
    /// The run's outstanding carrier job (its executor); replaces joining
    /// an OS thread.
    pub(crate) latch: Arc<Latch>,
    pub(crate) config: RunConfig,
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" report for the runtime's internal [`AbortToken`]
/// unwinds, which are control flow rather than errors.
pub(crate) fn install_quiet_abort_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            // AbortToken unwinds are control flow; InjectedFault panics are
            // deliberate (reported via `Outcome::ProgramPanic`): neither is
            // an error worth a stderr report.
            if info.payload().downcast_ref::<AbortToken>().is_some()
                || info.payload().downcast_ref::<InjectedFault>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}

impl Controller {
    pub(crate) fn new(config: RunConfig, strategy: Box<dyn Strategy>) -> Arc<Self> {
        let mut g = Global::new(config.record_trace);
        g.faults = config.fault_plan.clone().map(FaultState::new);
        Arc::new(Controller {
            inner: Mutex::new(Inner {
                g,
                strategy: Some(strategy),
                fibers: Vec::new(),
                enabled: Vec::new(),
                done: false,
                #[cfg(test)]
                futile_wakeups: 0,
            }),
            supervisor: Condvar::new(),
            latch: Arc::default(),
            config,
        })
    }

    /// Records an event: appends to the trace (if recording), streams it
    /// to any attached sinks, and informs the strategy. The sequence
    /// number comes from a dedicated event counter so sinks observe the
    /// exact numbering a recorded trace would carry even when trace
    /// recording is off.
    fn record(&self, inner: &mut Inner, thread: ThreadId, kind: EventKind) {
        if inner.g.aborting {
            return;
        }
        let seq = inner.g.event_seq;
        inner.g.event_seq += 1;
        if inner.g.record_trace {
            let pushed = inner.g.trace.push(thread, kind.clone());
            debug_assert_eq!(pushed, seq, "trace and event counter agree");
        }
        let event = df_events::Event::new(seq, thread, kind);
        if self.config.sink.is_attached() {
            self.config.sink.emit(&event);
            self.config.obs.counters().add_events_streamed(1);
        }
        if let Some(mut strat) = inner.strategy.take() {
            strat.on_event(&event, &StateView { g: &inner.g });
            inner.strategy = Some(strat);
        }
    }

    /// Ends the run with `outcome` (first writer wins) and wakes the
    /// supervisor. The executor unwinds the remaining threads.
    pub(crate) fn abort(&self, inner: &mut Inner, outcome: Outcome) {
        if inner.g.final_outcome.is_none() {
            inner.g.final_outcome = Some(outcome);
        }
        inner.g.aborting = true;
        inner.done = true;
        self.supervisor.notify_one();
    }

    /// Registers virtual thread `ts` with the fiber that will run `f`; it
    /// first runs when the executor resumes it.
    pub(crate) fn launch<F>(self: &Arc<Self>, inner: &mut Inner, ts: ThreadState, f: F)
    where
        F: FnOnce(&TCtx) + Send + 'static,
    {
        let me = ts.id;
        debug_assert_eq!(me.as_usize(), inner.g.threads.len(), "ids are dense");
        let ctl = Arc::clone(self);
        inner.g.threads.push(ts);
        inner
            .fibers
            .push(Fiber::new(Box::new(move || ctl.thread_main(me, f))));
    }

    /// Hands the run's executor to a carrier OS thread.
    pub(crate) fn start_executor(self: &Arc<Self>) {
        let ctl = Arc::clone(self);
        carrier::launch(&self.latch, Box::new(move || ctl.executor()));
    }

    /// Runs every virtual thread of the run as a fiber on this OS thread:
    /// resumes `current` (the main thread before the first pick) until the
    /// run ends, then each unfinished fiber in id order so it unwinds.
    /// The controller mutex is never held across a switch.
    fn executor(&self) {
        let mut ran: Option<(usize, Fiber)> = None;
        loop {
            let mut inner = self.inner.lock();
            if let Some((t, fiber)) = ran.take() {
                inner.fibers[t] = fiber;
            }
            let next = if inner.g.aborting {
                match inner.fibers.iter().position(|f| !f.is_finished()) {
                    Some(t) => t,
                    None => return,
                }
            } else {
                let t = inner.g.current.map_or(0, |t| t.as_usize());
                if inner.fibers[t].is_finished() {
                    // Its exit path panicked (a sink or strategy callback)
                    // before handing the token on.
                    let msg = format!("thread {t} ended without handing the token on");
                    self.abort(&mut inner, Outcome::ProgramPanic(msg));
                    continue;
                }
                t
            };
            let mut fiber = std::mem::take(&mut inner.fibers[next]);
            drop(inner);
            fiber.resume();
            ran = Some((next, fiber));
        }
    }

    /// Picks the next thread to run. Called whenever the token is free
    /// (`current == None`). On success `current` is set; the executor
    /// resumes the picked thread — only it — once the caller suspends.
    /// Returns `Err(Aborted)` if the run ended instead.
    fn reschedule(&self, inner: &mut Inner) -> Result<(), Aborted> {
        if inner.g.aborting {
            return Err(Aborted);
        }
        self.inject_spurious_wakeup(inner);
        inner.g.enabled_into(&mut inner.enabled);
        if inner.enabled.is_empty() {
            if inner.g.threads.iter().any(ThreadState::is_alive) {
                let outcome = self.diagnose_stall(&inner.g, inner.g.alive());
                self.abort(inner, outcome);
            } else {
                self.abort(inner, Outcome::Completed);
            }
            return Err(Aborted);
        }
        let mut strat = inner.strategy.take().expect("strategy present");
        let directive = strat.pick(&StateView { g: &inner.g }, &inner.enabled);
        inner.strategy = Some(strat);
        match directive {
            Directive::Run(t) if inner.enabled.contains(&t) => {
                inner.g.current = Some(t);
                Ok(())
            }
            Directive::Run(t) => {
                self.abort(
                    inner,
                    Outcome::StrategyAbort(format!("strategy picked disabled thread {t}")),
                );
                Err(Aborted)
            }
            Directive::Deadlock(w) => {
                self.abort(inner, Outcome::Deadlock(w));
                Err(Aborted)
            }
            Directive::Abort(msg) => {
                self.abort(inner, Outcome::StrategyAbort(msg));
                Err(Aborted)
            }
        }
    }

    /// Fault injection: with the configured probability, wake one thread
    /// parked in a monitor or condvar wait set without a notify (a
    /// spurious wakeup). Candidates are visited in id order so the
    /// decision stream is deterministic despite `HashMap` iteration order.
    fn inject_spurious_wakeup(&self, inner: &mut Inner) {
        if inner.g.faults.is_none() {
            return;
        }
        // `false` marks a monitor wait set, `true` a condvar wait set;
        // monitor and condvar ids never collide (distinct objects).
        let mut candidates: Vec<(ObjId, bool)> = inner
            .g
            .locks
            .iter()
            .filter(|(_, s)| !s.wait_set.is_empty())
            .map(|(&l, _)| (l, false))
            .chain(
                inner
                    .g
                    .condvars
                    .iter()
                    .filter(|(_, ws)| !ws.is_empty())
                    .map(|(&c, _)| (c, true)),
            )
            .collect();
        if candidates.is_empty() {
            return;
        }
        candidates.sort_unstable();
        let fs = inner
            .g
            .faults
            .as_mut()
            .expect("fault state present: checked at function entry");
        if !fs.fire_spurious_wakeup() {
            return;
        }
        let (target, is_condvar) = candidates[fs.pick_index(candidates.len())];
        // Waking = removing from the wait set; the thread's
        // AwaitNotify/AwaitCondNotify op becomes enabled and it proceeds
        // to re-acquire the lock (the condvar path's spurious-wakeup
        // safety then falls to the program's predicate loop).
        let woken = if is_condvar {
            inner
                .g
                .condvars
                .get_mut(&target)
                .expect("candidate condvar has a wait set: it had waiters")
                .remove(0)
        } else {
            inner
                .g
                .locks
                .get_mut(&target)
                .expect("candidate monitor has a lock state: it had waiters")
                .wait_set
                .remove(0)
        };
        self.config.obs.emit(&df_obs::TraceEvent::FaultInjected {
            step: inner.g.steps,
            kind: "spurious_wakeup".to_string(),
            thread: woken,
        });
    }

    /// Classifies a state with no enabled threads: a lock cycle is a real
    /// deadlock; anything else is a stall.
    fn diagnose_stall(&self, g: &Global, alive: Vec<ThreadId>) -> Outcome {
        let mut wf = WaitForGraph::new();
        // Holds come from the lock states themselves so shared holds get
        // their mode (the per-thread lock stack does not record modes).
        for (&l, s) in &g.locks {
            if let Some(o) = s.owner {
                wf.add_holds(o, l);
            }
            let mut readers = s.readers.clone();
            readers.sort_unstable();
            readers.dedup();
            for r in readers {
                wf.add_holds_shared(r, l);
            }
        }
        for ts in &g.threads {
            match &ts.status {
                ThreadStatus::Announced(PendingOp::Acquire { lock, mode, .. }) => match mode {
                    AcquireMode::Exclusive => wf.add_waits(ts.id, *lock),
                    AcquireMode::Shared => wf.add_waits_shared(ts.id, *lock),
                },
                ThreadStatus::Announced(PendingOp::WaitReacquire { lock, .. }) => {
                    wf.add_waits(ts.id, *lock);
                }
                _ => {}
            }
        }
        match wf.find_cycle() {
            Some(cycle) => {
                let components = cycle
                    .iter()
                    .map(|&t| {
                        let ts = g.thread(t);
                        let (lock, site, mode) = match &ts.status {
                            ThreadStatus::Announced(PendingOp::Acquire { lock, site, mode }) => {
                                (*lock, *site, *mode)
                            }
                            ThreadStatus::Announced(PendingOp::WaitReacquire {
                                lock,
                                site,
                                ..
                            }) => (*lock, *site, AcquireMode::Exclusive),
                            _ => unreachable!("cycle thread must wait on a lock"),
                        };
                        let mut context = ts.context_stack.clone();
                        context.push(site);
                        let holding = ts.lock_stack.clone();
                        let holding_modes = holding
                            .iter()
                            .map(|&l| {
                                if g.lock_state(l).and_then(|s| s.owner) == Some(t) {
                                    AcquireMode::Exclusive
                                } else {
                                    AcquireMode::Shared
                                }
                            })
                            .collect();
                        WitnessComponent {
                            thread: t,
                            thread_obj: ts.obj,
                            thread_name: Some(ts.name.clone()),
                            holding,
                            holding_modes,
                            waiting_for: lock,
                            waiting_mode: mode,
                            context,
                        }
                    })
                    .collect();
                Outcome::Deadlock(DeadlockWitness {
                    components,
                    detected_by: Detector::WaitForGraph,
                })
            }
            None => {
                // No lock cycle: if threads are parked in monitor or
                // condvar wait sets this is a communication deadlock
                // (lost signal), otherwise a plain stall (e.g. a join
                // cycle).
                let waiting: Vec<ThreadId> = g
                    .threads
                    .iter()
                    .filter(|ts| {
                        matches!(
                            &ts.status,
                            ThreadStatus::Announced(PendingOp::AwaitNotify { .. })
                                | ThreadStatus::Announced(PendingOp::AwaitCondNotify { .. })
                        )
                    })
                    .map(|ts| ts.id)
                    .collect();
                if waiting.is_empty() {
                    Outcome::Stall { stuck: alive }
                } else {
                    Outcome::CommunicationStall {
                        stuck: alive,
                        waiting,
                    }
                }
            }
        }
    }

    /// Announces `op` for `me`, releases the token, and waits until the
    /// strategy picks `me` again.
    fn announce_and_wait(
        &self,
        inner: &mut MutexGuard<'_, Inner>,
        me: ThreadId,
        op: PendingOp,
    ) -> Result<(), Aborted> {
        inner.g.thread_mut(me).status = ThreadStatus::Announced(op);
        inner.g.steps += 1;
        inner.g.progress += 1;
        if inner.g.steps > self.config.max_steps {
            self.abort(inner, Outcome::StepLimit);
            return Err(Aborted);
        }
        // We hold the token (we were running user code): give it up so the
        // strategy takes a fresh decision for this schedule point.
        debug_assert_eq!(
            inner.g.current,
            Some(me),
            "announcing thread holds the token"
        );
        inner.g.current = None;
        self.reschedule(inner)?;
        self.wait_until_picked(inner, me)
    }

    /// Suspends `me`'s fiber to the executor, with the controller mutex
    /// released, until the strategy makes `me` current; then marks it
    /// running.
    fn wait_until_picked(
        &self,
        inner: &mut MutexGuard<'_, Inner>,
        me: ThreadId,
    ) -> Result<(), Aborted> {
        while !inner.g.aborting && inner.g.current != Some(me) {
            MutexGuard::unlocked(inner, fiber::suspend);
            #[cfg(test)]
            if !inner.g.aborting && inner.g.current != Some(me) {
                inner.futile_wakeups += 1;
            }
        }
        if inner.g.aborting {
            return Err(Aborted);
        }
        inner.g.thread_mut(me).status = ThreadStatus::Running;
        Ok(())
    }

    /// First schedule point of a thread. Unlike [`Self::op`], the thread
    /// does *not* announce here: it was registered as `Announced(Start)` by
    /// its spawner, and the executor first resumes its fiber once it is
    /// picked. Kicking the scheduler is only needed for the main thread,
    /// which starts with a free token.
    ///
    /// The start schedule point is accounted to `steps`/`progress` at
    /// *registration* (by the spawn entry points and the main-thread
    /// setup), not here, so the step numbering stays that of the
    /// schedule.
    pub(crate) fn start_point(&self, me: ThreadId) -> Result<(), Aborted> {
        let mut inner = self.inner.lock();
        if inner.g.current.is_none() && !inner.g.aborting {
            self.reschedule(&mut inner)?;
        }
        self.wait_until_picked(&mut inner, me)?;
        self.record(&mut inner, me, EventKind::ThreadStart);
        Ok(())
    }

    /// Executes one instrumented operation for `me`: schedule point, then
    /// the operation's semantics.
    pub(crate) fn op(&self, me: ThreadId, op: PendingOp) -> Result<OpOutcome, Aborted> {
        let mut inner = self.inner.lock();
        if inner.g.aborting {
            // The run is over (deadlock found, limits, …). Threads still
            // executing user code — e.g. guards releasing during an
            // unwind — must not touch the schedule.
            return Err(Aborted);
        }
        self.announce_and_wait(&mut inner, me, op.clone())?;
        // Fault injection: a first (non-re-entrant) acquisition may panic
        // instead of acquiring, modeling an exception thrown on entry to a
        // synchronized region. The panic unwinds the virtual thread outside
        // the controller lock and surfaces as `Outcome::ProgramPanic`.
        if let PendingOp::Acquire { lock, site, mode } = &op {
            let first = inner
                .g
                .locks
                .get(lock)
                .map(|s| match mode {
                    AcquireMode::Exclusive => s.owner != Some(me),
                    AcquireMode::Shared => !s.holds_shared(me),
                })
                .unwrap_or(true);
            if first
                && inner
                    .g
                    .faults
                    .as_mut()
                    .map(|f| f.fire_panic_on_acquire())
                    .unwrap_or(false)
            {
                let msg = format!("injected fault: panic on acquire at {site}");
                self.config.obs.emit(&df_obs::TraceEvent::FaultInjected {
                    step: inner.g.steps,
                    kind: "panic_on_acquire".to_string(),
                    thread: me,
                });
                drop(inner);
                panic::panic_any(InjectedFault(msg));
            }
        }
        self.execute(&mut inner, me, op)
    }

    fn execute(
        &self,
        inner: &mut Inner,
        me: ThreadId,
        op: PendingOp,
    ) -> Result<OpOutcome, Aborted> {
        match op {
            PendingOp::Start => {
                self.record(inner, me, EventKind::ThreadStart);
                Ok(OpOutcome::Unit)
            }
            PendingOp::Acquire { lock, site, mode } => {
                let state = inner.g.locks.entry(lock).or_default();
                match mode {
                    AcquireMode::Exclusive => {
                        if state.owner == Some(me) {
                            state.count += 1;
                            self.record(inner, me, EventKind::reacquire(lock, site));
                        } else {
                            debug_assert!(
                                state.owner.is_none() && state.readers.is_empty(),
                                "picked thread must not block"
                            );
                            state.owner = Some(me);
                            state.count = 1;
                            let ts = inner.g.thread_mut(me);
                            let held = ts.lock_stack.clone();
                            let mut context = ts.context_stack.clone();
                            context.push(site);
                            ts.lock_stack.push(lock);
                            ts.context_stack.push(site);
                            self.record(inner, me, EventKind::acquire(lock, site, held, context));
                            self.config.obs.counters().add_acquires_observed(1);
                        }
                    }
                    AcquireMode::Shared => {
                        debug_assert!(state.owner.is_none(), "picked thread must not block");
                        let reentrant = state.holds_shared(me);
                        state.readers.push(me);
                        if reentrant {
                            self.record(inner, me, EventKind::reacquire(lock, site));
                        } else {
                            let ts = inner.g.thread_mut(me);
                            let held = ts.lock_stack.clone();
                            let mut context = ts.context_stack.clone();
                            context.push(site);
                            ts.lock_stack.push(lock);
                            ts.context_stack.push(site);
                            self.record(
                                inner,
                                me,
                                EventKind::acquire(lock, site, held, context).shared(),
                            );
                            self.config.obs.counters().add_acquires_observed(1);
                        }
                    }
                }
                Ok(OpOutcome::Unit)
            }
            PendingOp::TryAcquire { lock, site, mode } => {
                let state = inner.g.locks.entry(lock).or_default();
                let acquired = state.can_acquire(me, mode);
                if acquired {
                    match mode {
                        AcquireMode::Exclusive => {
                            if state.owner == Some(me) {
                                state.count += 1;
                            } else {
                                state.owner = Some(me);
                                state.count = 1;
                                let ts = inner.g.thread_mut(me);
                                ts.lock_stack.push(lock);
                                ts.context_stack.push(site);
                            }
                        }
                        AcquireMode::Shared => {
                            let reentrant = state.holds_shared(me);
                            state.readers.push(me);
                            if !reentrant {
                                let ts = inner.g.thread_mut(me);
                                ts.lock_stack.push(lock);
                                ts.context_stack.push(site);
                            }
                        }
                    }
                    self.config.obs.counters().add_acquires_observed(1);
                }
                self.record(
                    inner,
                    me,
                    EventKind::try_acquire(lock, site, acquired).with_mode(mode),
                );
                Ok(OpOutcome::Acquired(acquired))
            }
            PendingOp::Release { lock, site } => {
                // A shared hold is released by retiring one reader entry;
                // the thread itself knows only "release", the mode is
                // derived from what it actually holds.
                let shared_hold = inner
                    .g
                    .locks
                    .get(&lock)
                    .map(|s| s.owner != Some(me) && s.holds_shared(me))
                    .unwrap_or(false);
                if shared_hold {
                    let state = inner
                        .g
                        .locks
                        .get_mut(&lock)
                        .expect("lock state present: shared hold was checked above");
                    let pos = state
                        .readers
                        .iter()
                        .rposition(|&r| r == me)
                        .expect("reader entry present: shared hold was checked above");
                    state.readers.remove(pos);
                    if state.readers.contains(&me) {
                        self.record(inner, me, EventKind::rerelease(lock, site));
                    } else {
                        let ts = inner.g.thread_mut(me);
                        if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
                            ts.lock_stack.remove(pos);
                            ts.context_stack.remove(pos);
                        }
                        self.record(inner, me, EventKind::release(lock, site).shared());
                    }
                    return Ok(OpOutcome::Unit);
                }
                let state = match inner.g.locks.get_mut(&lock) {
                    Some(s) if s.owner == Some(me) => s,
                    _ => panic!("thread {me} released lock {lock} it does not hold"),
                };
                if state.count > 1 {
                    state.count -= 1;
                    self.record(inner, me, EventKind::rerelease(lock, site));
                } else if inner
                    .g
                    .faults
                    .as_mut()
                    .map(|f| f.fire_leak_release())
                    .unwrap_or(false)
                {
                    // Fault injection: the outermost release is silently
                    // dropped — the lock stays owned and the thread's lock
                    // stack keeps the hold, so later contenders block
                    // forever and the stall detector must classify it.
                    self.config.obs.emit(&df_obs::TraceEvent::FaultInjected {
                        step: inner.g.steps,
                        kind: "leak_release".to_string(),
                        thread: me,
                    });
                } else {
                    let state = inner
                        .g
                        .locks
                        .get_mut(&lock)
                        .expect("lock state present: ownership was checked above");
                    state.count = 0;
                    state.owner = None;
                    let ts = inner.g.thread_mut(me);
                    if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
                        ts.lock_stack.remove(pos);
                        ts.context_stack.remove(pos);
                    }
                    self.record(inner, me, EventKind::release(lock, site));
                }
                Ok(OpOutcome::Unit)
            }
            PendingOp::Call { site, receiver } => {
                inner.g.thread_mut(me).enter_call(site, receiver);
                self.record(inner, me, EventKind::Call { site });
                Ok(OpOutcome::Unit)
            }
            PendingOp::Return => {
                inner.g.thread_mut(me).exit_call();
                self.record(inner, me, EventKind::Return);
                Ok(OpOutcome::Unit)
            }
            PendingOp::New { site, kind } => {
                let owner = inner.g.thread(me).current_receiver();
                let index = inner.g.thread_mut(me).alloc_index(site);
                let obj = inner.g.trace.objects_mut().create(kind, site, owner, index);
                self.record(inner, me, EventKind::New { obj });
                Ok(OpOutcome::Created(obj))
            }
            PendingOp::Join { target } => {
                self.record(inner, me, EventKind::Join { target });
                Ok(OpOutcome::Unit)
            }
            PendingOp::Yield => {
                self.record(inner, me, EventKind::Yield);
                Ok(OpOutcome::Unit)
            }
            PendingOp::Work { units } => {
                self.record(inner, me, EventKind::Work { units });
                Ok(OpOutcome::Unit)
            }
            PendingOp::WaitRelease { lock, site } => {
                let state = match inner.g.locks.get_mut(&lock) {
                    Some(s) if s.owner == Some(me) => s,
                    _ => panic!("thread {me} called wait on monitor {lock} it does not hold"),
                };
                let count = state.count;
                state.count = 0;
                state.owner = None;
                state.wait_set.push(me);
                let ts = inner.g.thread_mut(me);
                if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
                    ts.lock_stack.remove(pos);
                    ts.context_stack.remove(pos);
                }
                self.record(inner, me, EventKind::wait(lock, site));
                Ok(OpOutcome::Count(count))
            }
            PendingOp::CondWaitRelease {
                condvar,
                lock,
                site,
            } => {
                let state = match inner.g.locks.get_mut(&lock) {
                    Some(s) if s.owner == Some(me) => s,
                    _ => panic!(
                        "thread {me} waited on condvar {condvar} without holding lock {lock}"
                    ),
                };
                let count = state.count;
                state.count = 0;
                state.owner = None;
                inner.g.condvars.entry(condvar).or_default().push(me);
                let ts = inner.g.thread_mut(me);
                if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
                    ts.lock_stack.remove(pos);
                    ts.context_stack.remove(pos);
                }
                self.record(inner, me, EventKind::cond_wait(condvar, lock, site));
                Ok(OpOutcome::Count(count))
            }
            PendingOp::AwaitCondNotify { .. } => {
                // Enabled-ness already required the notify (or an injected
                // spurious wakeup); nothing to execute.
                Ok(OpOutcome::Unit)
            }
            PendingOp::CondNotify { condvar, site, all } => {
                // Unlike a monitor notify, the notifier need not hold the
                // associated lock (Rust `Condvar` semantics).
                let ws = inner.g.condvars.entry(condvar).or_default();
                if all {
                    ws.clear();
                } else if !ws.is_empty() {
                    ws.remove(0);
                }
                self.record(inner, me, EventKind::cond_notify(condvar, site, all));
                Ok(OpOutcome::Unit)
            }
            PendingOp::AwaitNotify { .. } => {
                // Enabled-ness already required the notify to have
                // happened; nothing to execute.
                Ok(OpOutcome::Unit)
            }
            PendingOp::WaitReacquire { lock, count, site } => {
                let state = inner.g.locks.entry(lock).or_default();
                debug_assert!(state.owner.is_none(), "picked thread must not block");
                state.owner = Some(me);
                state.count = count;
                // Reacquisition restores the monitor silently (Java wait
                // semantics); the original Acquire event already carries
                // the lock dependency. The held stack is restored with
                // the wait site as context.
                let ts = inner.g.thread_mut(me);
                ts.lock_stack.push(lock);
                ts.context_stack.push(site);
                Ok(OpOutcome::Unit)
            }
            PendingOp::AtomicBegin { site } => {
                self.record(inner, me, EventKind::AtomicBegin { site });
                Ok(OpOutcome::Unit)
            }
            PendingOp::AtomicEnd => {
                self.record(inner, me, EventKind::AtomicEnd);
                Ok(OpOutcome::Unit)
            }
            PendingOp::Access { var, site, write } => {
                let held = inner.g.thread(me).lock_stack.clone();
                self.record(
                    inner,
                    me,
                    EventKind::Access {
                        var,
                        site,
                        write,
                        held,
                    },
                );
                Ok(OpOutcome::Unit)
            }
            PendingOp::Notify { lock, site, all } => {
                let state = inner.g.locks.entry(lock).or_default();
                if state.owner != Some(me) {
                    panic!("thread {me} called notify on monitor {lock} it does not hold");
                }
                if all {
                    state.wait_set.clear();
                } else if !state.wait_set.is_empty() {
                    state.wait_set.remove(0);
                }
                self.record(inner, me, EventKind::notify(lock, site, all));
                Ok(OpOutcome::Unit)
            }
            PendingOp::Spawn { .. } | PendingOp::Exit => {
                unreachable!("spawn/exit use dedicated entry points")
            }
        }
    }

    /// Spawn entry point: registers the child, and the fiber that runs it,
    /// under the schedule point of the parent.
    pub(crate) fn spawn<F>(
        self: &Arc<Self>,
        me: ThreadId,
        site: Label,
        name: String,
        f: F,
    ) -> Result<(ThreadId, ObjId), Aborted>
    where
        F: FnOnce(&TCtx) + Send + 'static,
    {
        let mut inner = self.inner.lock();
        if inner.g.aborting {
            return Err(Aborted);
        }
        self.announce_and_wait(&mut inner, me, PendingOp::Spawn { site })?;
        // Create the thread object (threads are objects, §2.2) in the
        // parent's allocation context.
        let owner = inner.g.thread(me).current_receiver();
        let index = inner.g.thread_mut(me).alloc_index(site);
        let child_obj = inner.g.trace.objects_mut().create_named(
            ObjKind::Thread,
            site,
            owner,
            index,
            Some(name.clone()),
        );
        let child = ThreadId::new(u32::try_from(inner.g.threads.len()).expect("thread overflow"));
        // The child is Announced(Start); the strategy may pick it at any
        // later schedule point.
        self.launch(&mut inner, ThreadState::new(child, name, child_obj), f);
        inner.g.trace.bind_thread(child, child_obj);
        self.config.sink.thread_bound(child, child_obj);
        // Account the child's start schedule point now, while we hold the
        // parent's critical section (see `start_point`).
        inner.g.steps += 1;
        inner.g.progress += 1;
        self.record(&mut inner, me, EventKind::Spawn { child, child_obj });
        // Fault injection: a program spawn may fan out one extra busy
        // thread the program never asked for (bounded by the plan's cap).
        if inner
            .g
            .faults
            .as_mut()
            .map(|f| f.fire_runaway_spawn())
            .unwrap_or(false)
        {
            self.config.obs.emit(&df_obs::TraceEvent::FaultInjected {
                step: inner.g.steps,
                kind: "runaway_spawn".to_string(),
                thread: me,
            });
            self.spawn_runaway(&mut inner, me);
        }
        Ok((child, child_obj))
    }

    /// Registers and launches one injected runaway thread: it burns a few
    /// schedule points with yields and exits, competing with program
    /// threads for the scheduler's attention.
    fn spawn_runaway(self: &Arc<Self>, inner: &mut Inner, parent: ThreadId) {
        let site = Label::new("<fault:runaway-spawn>");
        let n = inner.g.fault_log().runaway_spawns;
        let name = format!("fault-runaway-{n}");
        let child_obj = inner.g.trace.objects_mut().create_named(
            ObjKind::Thread,
            site,
            None,
            Vec::new(),
            Some(name.clone()),
        );
        let child = ThreadId::new(u32::try_from(inner.g.threads.len()).expect("thread overflow"));
        self.launch(
            inner,
            ThreadState::new(child, name, child_obj),
            |ctx: &TCtx| {
                for _ in 0..16 {
                    ctx.yield_now();
                }
            },
        );
        inner.g.trace.bind_thread(child, child_obj);
        self.config.sink.thread_bound(child, child_obj);
        inner.g.steps += 1;
        inner.g.progress += 1;
        self.record(inner, parent, EventKind::Spawn { child, child_obj });
    }

    /// Body of every virtual thread's fiber.
    fn thread_main<F>(self: Arc<Self>, me: ThreadId, f: F)
    where
        F: FnOnce(&TCtx),
    {
        let ctx = TCtx::new(Arc::clone(&self), me);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            // First schedule point: wait to be picked before running any
            // program code.
            if self.start_point(me).is_err() {
                return;
            }
            f(&ctx);
        }));
        match result {
            Ok(()) => {}
            Err(payload) => {
                if payload.downcast_ref::<AbortToken>().is_none() {
                    let msg = payload
                        .downcast_ref::<InjectedFault>()
                        .map(|f| f.0.clone())
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_string());
                    let mut inner = self.inner.lock();
                    self.abort(&mut inner, Outcome::ProgramPanic(msg));
                }
            }
        }
        self.thread_exit(me);
    }

    /// Marks `me` finished and hands the token onward (to the next
    /// thread, or to the executor's unwinding if the run ends here).
    fn thread_exit(&self, me: ThreadId) {
        let mut inner = self.inner.lock();
        if !matches!(inner.g.thread(me).status, ThreadStatus::Finished) {
            self.record(&mut inner, me, EventKind::ThreadExit);
            inner.g.thread_mut(me).status = ThreadStatus::Finished;
            inner.g.progress += 1;
        }
        if inner.g.current == Some(me) {
            inner.g.current = None;
        }
        if !inner.g.aborting {
            let _ = self.reschedule(&mut inner);
        }
    }
}
