//! The tracker: the shared registry behind the drop-in lock types.
//!
//! Every [`crate::TrackedMutex`] / [`crate::TrackedRwLock`] created
//! under a tracker reports its lifecycle here. The tracker assigns
//! [`ThreadId`]s to native threads (lazily, on first contact), emits the
//! same event stream the virtual runtime would — `New`, `Acquire` with
//! held-set and context, `Release`, `Blocked`/`Unblocked`, spawn and
//! exit events — into the attached [`SinkHandle`], and maintains the
//! live holds/waits registry the online wait-for-graph detector walks.
//!
//! ## Why detection cannot miss and cannot lie
//!
//! All bookkeeping happens under one internal mutex, and the protocol
//! orders updates around the native lock operations:
//!
//! * ownership is recorded *before* a thread's next wait edge is
//!   registered (program order), and every thread of a forming cycle
//!   registers its wait edge before parking — so the last thread to
//!   register sees the complete cycle and reports it;
//! * ownership is cleared *before* the native unlock and the wait edge
//!   of a contended acquire is cleared (with ownership recorded) in the
//!   same critical section after the native lock is obtained — so the
//!   registry never claims a hold that has been given up, and a stale
//!   wait edge always points at a lock whose registry holder entry is
//!   already cleared. False cycles cannot form.
//!
//! A tracker configured with a [`PausePolicy`] additionally runs Phase
//! II on its threads (see [`crate::pause`]): every blocking acquisition
//! passes a pre-acquire hook that may pause it, and a cycle aborts the
//! run instead of letting its last thread park.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use df_events::{
    AcquireMode, Event, EventKind, IndexFrame, Label, ObjId, ObjKind, ObjectTable, SinkHandle,
    ThreadId, Trace,
};
use df_obs::Obs;
use df_runtime::{DeadlockWitness, Detector, WitnessComponent};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::handler::{DeadlockHandler, LIVE_DEADLOCK_EXIT_CODE};
use crate::pause::{self, PausePolicy, Stop};
use crate::tls;
use crate::wfg::WfGraph;

/// Configuration of a [`Tracker`], built with `with_*` chaining.
#[derive(Debug, Default)]
pub struct TrackerConfig {
    /// Policy invoked when the online detector closes a cycle.
    pub handler: DeadlockHandler,
    /// Streaming observers of the emitted event stream (a spill writer,
    /// a relation builder, …). Sinks run on program threads and must
    /// not acquire tracked locks.
    pub sink: SinkHandle,
    /// Observability handle for the `wfg_*`/`lock_timeouts`/
    /// `poisoned_recovered` counters.
    pub obs: Obs,
    /// Also materialize the event vector in memory (the trace handed to
    /// sinks on [`Tracker::seal`] then carries events, not just the
    /// object table). Off by default: streaming sinks don't need it.
    pub record_events: bool,
    /// Phase II policy consulted before every blocking acquisition.
    /// When set, a cycle aborts the run (unwinding its threads) instead
    /// of invoking `handler`, and a watchdog enforces the policy's
    /// [`crate::Timeouts`]. `None` (the default) records and detects
    /// only.
    pub pause_policy: Option<Arc<dyn PausePolicy>>,
}

impl TrackerConfig {
    /// Sets the deadlock handler.
    pub fn with_handler(mut self, handler: DeadlockHandler) -> Self {
        self.handler = handler;
        self
    }

    /// Attaches the streaming sinks.
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = sink;
        self
    }

    /// Uses `obs` for counters.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Also records the in-memory event trace.
    pub fn with_record_events(mut self, record: bool) -> Self {
        self.record_events = record;
        self
    }

    /// Runs Phase II under `policy`.
    pub fn with_pause_policy(mut self, policy: Arc<dyn PausePolicy>) -> Self {
        self.pause_policy = Some(policy);
        self
    }

    /// Attaches a spill sink writing to `out` with the given
    /// [`df_events::SpillConfig`] (format + optional ring buffering) and
    /// returns both the updated config and a handle to the sink, which
    /// the caller must [`df_events::AnySpillSink::close`] after
    /// [`Tracker::seal`] to harvest the event/byte counts.
    ///
    /// # Errors
    ///
    /// Returns the [`df_events::SpillError`] of writing the artifact
    /// preamble.
    #[allow(clippy::type_complexity)]
    pub fn with_spill<W: std::io::Write + Send + 'static>(
        mut self,
        out: W,
        config: &df_events::SpillConfig,
    ) -> Result<(Self, Arc<std::sync::Mutex<df_events::AnySpillSink<W>>>), df_events::SpillError>
    {
        let sink = Arc::new(std::sync::Mutex::new(df_events::AnySpillSink::new(
            out, config,
        )?));
        self.sink = self.sink.with(sink.clone());
        Ok((self, sink))
    }
}

/// Which threads hold a lock right now. Absent from the registry means
/// the lock is free.
#[derive(Debug)]
enum Holders {
    /// Exclusive: a mutex owner or an rwlock writer.
    Writer(ThreadId),
    /// Shared: rwlock readers, possibly several, possibly repeated.
    Readers(Vec<ThreadId>),
}

#[derive(Debug)]
pub(crate) struct ThreadState {
    pub(crate) obj: ObjId,
    pub(crate) name: String,
    /// Locks held, outermost first (repeats on re-entrant tries).
    lock_stack: Vec<ObjId>,
    /// Acquisition sites parallel to `lock_stack`.
    pub(crate) context_stack: Vec<Label>,
    /// Open [`Tracker::scope`] frames, outermost first (§2.4.2
    /// execution indexing).
    call_stack: Vec<IndexFrame>,
    /// Per-depth, per-site occurrence counts; depth `d` counts the
    /// statements run inside `call_stack[..d]`.
    counters: Vec<HashMap<Label, u32>>,
    /// The thread body returned or unwound.
    pub(crate) exited: bool,
}

impl ThreadState {
    /// Counts one more occurrence of `site` at the current call depth.
    fn bump(&mut self, site: Label) -> u32 {
        let depth = self.call_stack.len();
        if self.counters.len() <= depth {
            self.counters.resize_with(depth + 1, HashMap::new);
        }
        let q = self.counters[depth].entry(site).or_insert(0);
        *q += 1;
        *q
    }
}

#[derive(Default)]
pub(crate) struct State {
    /// Object table + thread bindings (+ events when `record_events`).
    pub(crate) trace: Trace,
    /// Sequence number of the next event — also the watchdog's progress
    /// measure.
    pub(crate) event_seq: u64,
    next_thread: u32,
    pub(crate) threads: HashMap<ThreadId, ThreadState>,
    locks: HashMap<ObjId, Holders>,
    /// Blocked contended acquires, parked condvar waiters and paused
    /// acquires: thread → (awaited lock, site, mode).
    pub(crate) waits: HashMap<ThreadId, (ObjId, Label, AcquireMode)>,
    /// Sorted lock sets (held ∪ awaited across the cycle) of deadlocks
    /// already reported, so a persisting deadlock is not re-reported by
    /// every thread that bumps into it.
    reported: HashSet<Vec<ObjId>>,
    sealed: bool,
    /// Threads spawned through the tracker that have not exited yet.
    pub(crate) running: usize,
    /// Number of condvar notifies so far; a polling waiter that sees it
    /// move returns instead of missing the wakeup.
    notifies: u64,
    /// Paused threads, with when they were paused.
    pub(crate) paused: HashMap<ThreadId, Instant>,
    /// Set once the run is over: every later acquisition unwinds.
    pub(crate) aborting: bool,
    /// What aborted the run, first cause wins.
    pub(crate) stop: Option<Stop>,
    /// The first panic message of a tracked thread, other than an abort.
    pub(crate) program_panic: Option<String>,
}

/// Shared guts of a [`Tracker`]; lock types hold an `Arc` to this.
pub struct TrackerInner {
    pub(crate) state: Mutex<State>,
    sink: SinkHandle,
    pub(crate) obs: Obs,
    handler: DeadlockHandler,
    record_events: bool,
    /// The Phase II policy, if any — the pre-acquire hook's only branch.
    pub(crate) policy: Option<Arc<dyn PausePolicy>>,
    /// Wakes paused threads and a draining [`Tracker::finish`].
    pub(crate) wake: Condvar,
}

/// Exclusive (write) or shared (read) acquisition, for the registry.
/// The registry speaks the same mode vocabulary as the event stream.
pub(crate) type Access = AcquireMode;

/// Tracks native threads and locks, detects deadlocks online.
///
/// Cheap to clone (an `Arc`); every tracked object created through a
/// clone shares the same registry, event stream and detector.
#[derive(Clone)]
pub struct Tracker {
    inner: Arc<TrackerInner>,
}

static GLOBAL: OnceLock<Tracker> = OnceLock::new();

impl Default for Tracker {
    fn default() -> Self {
        Tracker::new(TrackerConfig::default())
    }
}

impl Tracker {
    /// Creates a tracker with `config`. With a pause policy this also
    /// starts the watchdog thread.
    pub fn new(config: TrackerConfig) -> Self {
        Tracker::started_at(config, Instant::now())
    }

    /// [`Tracker::new`] with the watchdog's deadline anchored at
    /// `created`.
    pub(crate) fn started_at(config: TrackerConfig, created: Instant) -> Self {
        let inner = Arc::new(TrackerInner {
            state: Mutex::new(State::default()),
            sink: config.sink,
            obs: config.obs,
            handler: config.handler,
            record_events: config.record_events,
            policy: config.pause_policy,
            wake: Condvar::new(),
        });
        if let Some(policy) = &inner.policy {
            pause::start_watchdog(Arc::downgrade(&inner), policy.timeouts(), created);
        }
        Tracker { inner }
    }

    /// Installs `config` as the process-wide tracker used by
    /// [`crate::TrackedMutex::new`] and friends, and returns it.
    ///
    /// # Panics
    ///
    /// Panics if a global tracker already exists (a default one is
    /// created lazily by the first drop-in constructor — install before
    /// creating tracked objects).
    pub fn install(config: TrackerConfig) -> &'static Tracker {
        if GLOBAL.set(Tracker::new(config)).is_err() {
            panic!("a global df-lock tracker is already installed");
        }
        GLOBAL.get().expect("just installed")
    }

    /// The process-wide tracker (installing a default-configured one —
    /// log-only handler, no sinks — on first use).
    pub fn global() -> &'static Tracker {
        GLOBAL.get_or_init(Tracker::default)
    }

    /// The observability handle counters are reported through.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Seals the run: records the trace high-water mark and delivers
    /// `on_finish` (with the object table and thread bindings) to every
    /// sink, so an attached [`df_events::SpillSink`] writes its footer
    /// and the artifact becomes analyzable. Idempotent; also invoked by
    /// the [`DeadlockHandler::SealAndExit`] handler before exiting.
    pub fn seal(&self) {
        seal(&self.inner);
    }

    /// Spawns a tracked thread under this tracker. See
    /// [`crate::TrackedThread::spawn`] for the drop-in variant.
    #[track_caller]
    pub fn spawn<F, T>(&self, name: &str, f: F) -> crate::thread::TrackedJoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        crate::thread::spawn_impl(&self.inner, name.to_string(), df_events::caller_site(), f)
    }

    /// Enters a method scope at the caller's location for §2.4.2
    /// execution indexing: objects allocated inside `f` carry the call
    /// frame in their index, so loop iterations and distinct call paths
    /// stay distinguishable under the execution-index abstraction.
    /// Emits `Call` and `Return` around `f`. Outside any scope the index
    /// is the allocating statement with its per-thread count.
    ///
    /// # Example
    ///
    /// ```
    /// use df_lock::{TrackedMutex, Tracker, TrackerConfig};
    ///
    /// let tracker = Tracker::new(TrackerConfig::default());
    /// let locks: Vec<_> = (0..2)
    ///     .map(|_| tracker.scope(|| TrackedMutex::with_tracker(&tracker, 0u32)))
    ///     .collect();
    /// let objects = tracker.trace();
    /// let index = |m: &TrackedMutex<u32>| objects.objects().get(m.id()).index.clone();
    /// assert_eq!(index(&locks[0]).len(), 2); // scope frame + allocation
    /// assert_ne!(index(&locks[0]), index(&locks[1]));
    /// ```
    #[track_caller]
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        let site = df_events::caller_site();
        let me = current_thread(&self.inner);
        {
            let mut st = self.inner.state.lock();
            emit(&self.inner, &mut st, me, EventKind::Call { site });
            let ts = st.threads.get_mut(&me).expect("scoping thread registered");
            let q = ts.bump(site);
            ts.call_stack.push(IndexFrame::new(site, q));
            let depth = ts.call_stack.len();
            if let Some(inner_counts) = ts.counters.get_mut(depth) {
                inner_counts.clear();
            }
        }
        let r = f();
        let mut st = self.inner.state.lock();
        emit(&self.inner, &mut st, me, EventKind::Return);
        if let Some(ts) = st.threads.get_mut(&me) {
            ts.call_stack.pop();
        }
        r
    }

    /// A snapshot of the trace: the object table and thread bindings,
    /// plus the events when [`TrackerConfig::record_events`] is on.
    pub fn trace(&self) -> Trace {
        self.inner.state.lock().trace.clone()
    }

    /// Ends a run under a pause policy: every later tracked acquisition
    /// unwinds, the threads spawned through this tracker get up to the
    /// policy's hang timeout to finish, and the watchdog stops. Returns
    /// what ended the run early, in precedence order — a witnessed
    /// deadlock, then a program panic, then the deadline, then the hang
    /// timeout — or `None` if the program completed. Without a policy
    /// this does nothing and returns `None`.
    pub fn finish(&self) -> Option<Stop> {
        pause::finish(&self.inner)
    }

    pub(crate) fn inner(&self) -> &Arc<TrackerInner> {
        &self.inner
    }
}

impl std::fmt::Debug for Tracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Tracker")
            .field("threads", &st.threads.len())
            .field("locks_held", &st.locks.len())
            .field("sealed", &st.sealed)
            .finish()
    }
}

/// Locks the registry for an acquisition-side operation. Under an
/// aborted run the calling thread unwinds instead — dropping any native
/// guard it just obtained, before the registry records the hold.
pub(crate) fn live_state(inner: &TrackerInner) -> MutexGuard<'_, State> {
    let st = inner.state.lock();
    if st.aborting {
        pause::unwind(st);
    }
    st
}

/// Assigns the next sequence number and delivers one event.
fn emit(inner: &TrackerInner, st: &mut State, thread: ThreadId, kind: EventKind) {
    let seq = st.event_seq;
    st.event_seq += 1;
    let event = Event::new(seq, thread, kind);
    if inner.record_events {
        let s = st.trace.push(event.thread, event.kind.clone());
        debug_assert_eq!(s, seq, "recorded trace stays in sequence order");
    }
    if inner.sink.is_attached() {
        inner.sink.emit(&event);
        inner.obs.counters().add_events_streamed(1);
    }
}

/// The execution index of an allocation: the open scope frames, then
/// the allocating statement with its occurrence count at that depth —
/// what the `absI_k` abstraction keys on.
fn alloc_index(st: &mut State, by: ThreadId, site: Label) -> Vec<IndexFrame> {
    let Some(ts) = st.threads.get_mut(&by) else {
        return vec![IndexFrame::new(site, 1)];
    };
    let q = ts.bump(site);
    let mut index = ts.call_stack.clone();
    index.push(IndexFrame::new(site, q));
    index
}

/// Registers a thread: assigns an id, creates its thread object, binds
/// it in the trace and announces the binding to sinks (always before
/// any event of the thread can be emitted).
pub(crate) fn register_thread(
    inner: &Arc<TrackerInner>,
    name: String,
    site: Label,
    spawner: Option<ThreadId>,
) -> ThreadId {
    let (id, obj) = {
        let mut st = inner.state.lock();
        let id = ThreadId::new(st.next_thread);
        st.next_thread += 1;
        let index = match spawner {
            Some(parent) => alloc_index(&mut st, parent, site),
            None => vec![IndexFrame::new(site, 1)],
        };
        let obj = st.trace.objects_mut().create_named(
            ObjKind::Thread,
            site,
            None,
            index,
            Some(name.clone()),
        );
        st.trace.bind_thread(id, obj);
        st.threads.insert(
            id,
            ThreadState {
                obj,
                name,
                lock_stack: Vec::new(),
                context_stack: Vec::new(),
                call_stack: Vec::new(),
                counters: Vec::new(),
                exited: false,
            },
        );
        if let Some(parent) = spawner {
            st.running += 1;
            emit(
                inner,
                &mut st,
                parent,
                EventKind::Spawn {
                    child: id,
                    child_obj: obj,
                },
            );
        }
        (id, obj)
    };
    inner.sink.thread_bound(id, obj);
    id
}

/// The calling thread's id under `inner`, auto-registering it (with its
/// OS thread name, when set) on first contact — this is what makes the
/// lock types drop-in for threads the tracker did not spawn.
pub(crate) fn current_thread(inner: &Arc<TrackerInner>) -> ThreadId {
    if let Some(id) = tls::lookup(inner) {
        return id;
    }
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| "<unnamed>".to_string());
    let id = register_thread(inner, name, Label::new("<native thread>"), None);
    tls::bind(inner, id);
    id
}

/// Registers a lock object at its allocation site and emits `New`.
pub(crate) fn register_lock(inner: &Arc<TrackerInner>, site: Label) -> ObjId {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    let index = alloc_index(&mut st, me, site);
    let obj = st
        .trace
        .objects_mut()
        .create(ObjKind::Lock, site, None, index);
    emit(inner, &mut st, me, EventKind::New { obj });
    obj
}

/// Registers a condition variable object (an [`ObjKind::Plain`] object,
/// like the virtual runtime's condvars) at its allocation site and
/// emits `New`.
pub(crate) fn register_condvar(inner: &Arc<TrackerInner>, site: Label) -> ObjId {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    let index = alloc_index(&mut st, me, site);
    let obj = st
        .trace
        .objects_mut()
        .create(ObjKind::Plain, site, None, index);
    emit(inner, &mut st, me, EventKind::New { obj });
    obj
}

/// Records ownership of a completed acquisition — registry holder
/// entry, then the held-lock and context stacks — and emits `event`,
/// built from the held locks and sites *before* this acquisition, or
/// `Reacquire` for a re-entrant hold. Must be called with the native
/// lock already held.
fn record_hold(
    inner: &TrackerInner,
    st: &mut State,
    me: ThreadId,
    lock: ObjId,
    site: Label,
    access: Access,
    event: impl FnOnce(&[ObjId], &[Label]) -> EventKind,
) {
    match access {
        Access::Exclusive => {
            st.locks.insert(lock, Holders::Writer(me));
        }
        Access::Shared => match st
            .locks
            .entry(lock)
            .or_insert_with(|| Holders::Readers(vec![]))
        {
            Holders::Readers(rs) => rs.push(me),
            // A writer entry here would mean std handed out a read
            // guard while a write guard exists; keep the stronger claim.
            Holders::Writer(_) => {}
        },
    }
    let ts = st
        .threads
        .get_mut(&me)
        .expect("acquiring thread registered");
    let re_entrant = ts.lock_stack.contains(&lock);
    let kind = if re_entrant {
        EventKind::reacquire(lock, site)
    } else {
        event(&ts.lock_stack, &ts.context_stack)
    };
    ts.lock_stack.push(lock);
    ts.context_stack.push(site);
    emit(inner, st, me, kind);
    if !re_entrant {
        inner.obs.counters().add_acquires_observed(1);
    }
}

/// The `Acquire` event of a blocking acquisition: the held locks and the
/// context (held sites, then `site`).
fn acquire_event(
    lock: ObjId,
    site: Label,
    access: Access,
) -> impl FnOnce(&[ObjId], &[Label]) -> EventKind {
    move |held, sites| {
        let mut context = Vec::with_capacity(sites.len() + 1);
        context.extend_from_slice(sites);
        context.push(site);
        EventKind::acquire(lock, site, held.to_vec(), context).with_mode(access)
    }
}

/// Bookkeeping for a non-blocking `try_*` attempt. A successful try
/// joins the registry and the held stack exactly like an acquisition,
/// but the stream records it as `TryAcquire { acquired: true }` — a try
/// never blocks, so Phase I must not treat it as a blockable edge. A
/// failed try leaves all state untouched and records
/// `TryAcquire { acquired: false }`.
pub(crate) fn try_acquired(
    inner: &Arc<TrackerInner>,
    lock: ObjId,
    site: Label,
    access: Access,
    acquired: bool,
) {
    let me = current_thread(inner);
    let mut st = live_state(inner);
    if acquired {
        record_hold(inner, &mut st, me, lock, site, access, |_, _| {
            EventKind::try_acquire(lock, site, true).with_mode(access)
        });
    } else {
        emit(
            inner,
            &mut st,
            me,
            EventKind::try_acquire(lock, site, false).with_mode(access),
        );
    }
}

/// The pre-acquire hook, run before every blocking acquisition attempt.
/// Without a pause policy this is a single branch.
#[inline]
pub(crate) fn before_acquire(inner: &Arc<TrackerInner>, lock: ObjId, site: Label, access: Access) {
    if let Some(policy) = &inner.policy {
        pause::pause_point(inner, policy.as_ref(), lock, site, access);
    }
}

/// Bookkeeping for an acquisition that succeeded without blocking.
pub(crate) fn acquired_uncontended(
    inner: &Arc<TrackerInner>,
    lock: ObjId,
    site: Label,
    access: Access,
) {
    let me = current_thread(inner);
    let mut st = live_state(inner);
    record_hold(
        inner,
        &mut st,
        me,
        lock,
        site,
        access,
        acquire_event(lock, site, access),
    );
}

/// Registers the wait edge of a contended acquisition *before* the
/// caller parks on the native lock, and runs cycle detection from the
/// blocking thread. This is the detector's single entry point: a cycle
/// exists exactly when its last wait edge is registered, and that
/// registration happens here, under the registry lock.
pub(crate) fn begin_wait(inner: &Arc<TrackerInner>, lock: ObjId, site: Label, access: Access) {
    let me = current_thread(inner);
    let mut st = live_state(inner);
    st.waits.insert(me, (lock, site, access));
    inner.obs.counters().add_wfg_edges(1);
    emit(
        inner,
        &mut st,
        me,
        EventKind::blocked(lock).with_mode(access),
    );
    check_wait(inner, st, me);
}

/// Runs detection from `me` right after it registered a wait edge. Under
/// a pause policy a cycle aborts the run and unwinds `me` instead of
/// letting it park. Otherwise the handler is dispatched after the
/// registry lock is dropped, so a SealAndExit (which seals sinks) or a
/// callback cannot deadlock against other program threads touching the
/// tracker.
fn check_wait(inner: &Arc<TrackerInner>, mut st: MutexGuard<'_, State>, me: ThreadId) {
    let Some((witness, rendered)) = detect(&mut st, me, Detector::WaitForGraph) else {
        return;
    };
    inner.obs.counters().add_wfg_cycles_detected(1);
    if inner.policy.is_some() {
        pause::abort_on_deadlock(inner, st, witness);
    }
    drop(st);
    dispatch(inner, &witness, &rendered);
}

/// The blocked acquisition of `lock` succeeded: clears the wait edge,
/// emits `Unblocked`, records ownership.
pub(crate) fn acquired_contended(
    inner: &Arc<TrackerInner>,
    lock: ObjId,
    site: Label,
    access: Access,
) {
    let me = current_thread(inner);
    let mut st = live_state(inner);
    st.waits.remove(&me);
    emit(inner, &mut st, me, EventKind::unblocked(lock));
    record_hold(
        inner,
        &mut st,
        me,
        lock,
        site,
        access,
        acquire_event(lock, site, access),
    );
}

/// A timed acquisition gave up: clears the wait edge and counts the
/// timeout. No `Unblocked` is emitted — that event means "acquired".
pub(crate) fn wait_timed_out(inner: &Arc<TrackerInner>, _lock: ObjId) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    st.waits.remove(&me);
    inner.obs.counters().add_lock_timeouts(1);
}

/// Release bookkeeping, called by guard drops *before* the native
/// unlock so the registry never claims a hold the thread gave up.
/// Emitted even during a panic unwind, which keeps the relation
/// balanced after poisoning.
pub(crate) fn release(inner: &Arc<TrackerInner>, lock: ObjId, site: Label) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    // The guard doesn't know its own mode; the registry does — a
    // read-guard drop finds this thread among the lock's readers.
    let mut mode = Access::Exclusive;
    match st.locks.get_mut(&lock) {
        Some(Holders::Writer(t)) if *t == me => {
            st.locks.remove(&lock);
        }
        Some(Holders::Readers(rs)) => {
            mode = Access::Shared;
            if let Some(pos) = rs.iter().rposition(|&t| t == me) {
                rs.remove(pos);
            }
            if rs.is_empty() {
                st.locks.remove(&lock);
            }
        }
        _ => {}
    }
    let ts = st
        .threads
        .get_mut(&me)
        .expect("releasing thread registered");
    if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
        ts.lock_stack.remove(pos);
        ts.context_stack.remove(pos);
    }
    let still_held = ts.lock_stack.contains(&lock);
    if still_held {
        emit(inner, &mut st, me, EventKind::rerelease(lock, site));
    } else {
        emit(
            inner,
            &mut st,
            me,
            EventKind::release(lock, site).with_mode(mode),
        );
    }
}

/// The release half of a condvar wait, run *before* the native
/// `Condvar::wait` parks (which atomically gives the lock up): clears
/// this thread's write hold, emits the `CondWait` communication event,
/// and registers the eventual-reacquire wait edge — a parked waiter is
/// one notify away from blocking on the lock, so cycles running through
/// it are real deadlocks and must be visible to other threads'
/// detection passes.
///
/// Returns the notify count seen before parking, for
/// [`cond_wait_poll`].
pub(crate) fn cond_wait_begin(
    inner: &Arc<TrackerInner>,
    condvar: ObjId,
    lock: ObjId,
    site: Label,
) -> u64 {
    let me = current_thread(inner);
    let mut st = live_state(inner);
    if matches!(st.locks.get(&lock), Some(Holders::Writer(t)) if *t == me) {
        st.locks.remove(&lock);
    }
    let ts = st.threads.get_mut(&me).expect("waiting thread registered");
    if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
        ts.lock_stack.remove(pos);
        ts.context_stack.remove(pos);
    }
    emit(
        inner,
        &mut st,
        me,
        EventKind::cond_wait(condvar, lock, site),
    );
    st.waits.insert(me, (lock, site, Access::Exclusive));
    inner.obs.counters().add_wfg_edges(1);
    let notifies = st.notifies;
    check_wait(inner, st, me);
    notifies
}

/// Under a pause policy a condvar wait parks in bounded slices so an
/// aborted run can unwind it; after a slice times out this decides
/// whether the wait is over. It unwinds if the run aborted, and returns
/// `true` if some notify happened since `notifies` (the waiter returns,
/// possibly spuriously) or `false` to park again.
pub(crate) fn cond_wait_poll(inner: &Arc<TrackerInner>, notifies: u64) -> bool {
    let st = live_state(inner);
    st.notifies != notifies
}

/// The reacquire half of a condvar wait, run after the native wait
/// returned with the lock re-held: clears the wait edge and restores
/// ownership *silently* — matching the virtual runtime, where the
/// original `Acquire` already carries the lock dependency and the
/// reacquisition emits nothing.
pub(crate) fn cond_wait_end(inner: &Arc<TrackerInner>, lock: ObjId, site: Label) {
    let me = current_thread(inner);
    let mut st = live_state(inner);
    st.waits.remove(&me);
    st.locks.insert(lock, Holders::Writer(me));
    let ts = st.threads.get_mut(&me).expect("waiting thread registered");
    ts.lock_stack.push(lock);
    ts.context_stack.push(site);
}

/// Emits the `CondNotify` communication event. Rust `Condvar` semantics:
/// the notifier need not hold any lock.
pub(crate) fn cond_notify(inner: &Arc<TrackerInner>, condvar: ObjId, site: Label, all: bool) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    st.notifies += 1;
    emit(
        inner,
        &mut st,
        me,
        EventKind::cond_notify(condvar, site, all),
    );
}

/// Counts a poisoned-lock recovery (`PoisonError::into_inner`).
pub(crate) fn note_poison_recovered(inner: &Arc<TrackerInner>) {
    inner.obs.counters().add_poisoned_recovered(1);
}

/// Emits `ThreadStart` for a freshly spawned tracked thread.
pub(crate) fn thread_started(inner: &Arc<TrackerInner>, id: ThreadId) {
    let mut st = inner.state.lock();
    emit(inner, &mut st, id, EventKind::ThreadStart);
}

/// Emits `ThreadExit` once the thread body returned or unwound, and
/// remembers the first genuine program panic (not an abort unwind) for
/// [`Tracker::finish`].
pub(crate) fn thread_exited(
    inner: &Arc<TrackerInner>,
    id: ThreadId,
    panic: Option<&(dyn std::any::Any + Send)>,
) {
    let mut st = inner.state.lock();
    if let Some(payload) = panic {
        if !pause::is_abort(payload) && st.program_panic.is_none() {
            st.program_panic = Some(pause::panic_message(payload));
        }
    }
    if let Some(ts) = st.threads.get_mut(&id) {
        ts.exited = true;
    }
    st.running -= 1;
    emit(inner, &mut st, id, EventKind::ThreadExit);
    inner.wake.notify_all();
}

/// Emits `Join` after a tracked join completes.
pub(crate) fn thread_joined(inner: &Arc<TrackerInner>, joiner: ThreadId, target: ThreadId) {
    let mut st = inner.state.lock();
    emit(inner, &mut st, joiner, EventKind::Join { target });
}

/// Walks the wait-for graph from `me`; on a new cycle builds the
/// witness and its rendered report (both under the registry lock, so
/// the snapshot is consistent), for dispatch after unlock.
pub(crate) fn detect(
    st: &mut State,
    me: ThreadId,
    detected_by: Detector,
) -> Option<(DeadlockWitness, String)> {
    let mut g = WfGraph::new();
    for (&lock, holders) in &st.locks {
        match holders {
            Holders::Writer(t) => g.add_holds(*t, lock),
            Holders::Readers(rs) => {
                for &t in rs {
                    g.add_holds_shared(t, lock);
                }
            }
        }
    }
    for (&t, &(lock, _, mode)) in &st.waits {
        match mode {
            Access::Exclusive => g.add_waits(t, lock),
            Access::Shared => g.add_waits_shared(t, lock),
        }
    }
    let cycle = g.find_cycle_from(me)?;

    // Dedup on the deadlock's full lock set — held ∪ awaited across the
    // cycle's threads. Keying on awaited locks alone reports a
    // reader-heavy cycle once per reader: each reader that bumps into
    // the same stuck writer closes a cycle with a different awaited
    // set, but the union of locks involved is identical.
    let mut key: Vec<ObjId> = cycle
        .iter()
        .flat_map(|t| {
            st.threads[t]
                .lock_stack
                .iter()
                .copied()
                .chain(std::iter::once(
                    st.waits.get(t).expect("cycle thread waits").0,
                ))
        })
        .collect();
    key.sort();
    key.dedup();
    if !st.reported.insert(key) {
        return None;
    }

    let components: Vec<WitnessComponent> = cycle
        .iter()
        .map(|t| {
            let ts = &st.threads[t];
            let &(waiting_for, site, waiting_mode) = st.waits.get(t).expect("cycle thread waits");
            let mut context = ts.context_stack.clone();
            context.push(site);
            let holding = ts.lock_stack.clone();
            let holding_modes = holding
                .iter()
                .map(|l| match st.locks.get(l) {
                    Some(Holders::Writer(w)) if w == t => Access::Exclusive,
                    _ => Access::Shared,
                })
                .collect();
            WitnessComponent {
                thread: *t,
                thread_obj: ts.obj,
                thread_name: Some(ts.name.clone()),
                holding,
                holding_modes,
                waiting_for,
                waiting_mode,
                context,
            }
        })
        .collect();
    let witness = DeadlockWitness {
        components,
        detected_by,
    };
    let rendered = render_report(&witness, st.trace.objects());
    Some((witness, rendered))
}

/// Names a lock by id and allocation site, e.g.
/// `o5 (allocated at examples/native_deadlock.rs:31:37)`.
pub(crate) fn lock_name(objects: &ObjectTable, id: ObjId) -> String {
    match objects.try_get(id) {
        Some(meta) => format!("{id} (allocated at {})", meta.site),
        None => id.to_string(),
    }
}

/// The human-readable witness report: names every thread, the locks it
/// holds (with allocation sites) and the blocked acquisition site —
/// enough to line the live cycle up against `dfz analyze` output.
fn render_report(witness: &DeadlockWitness, objects: &ObjectTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "df-lock: real deadlock among {} thread(s) (detected by {}):",
        witness.len(),
        witness.detected_by
    );
    for c in &witness.components {
        let name = c.thread_name.as_deref().unwrap_or("?");
        let holding = if c.holding.is_empty() {
            "nothing".to_string()
        } else {
            c.holding
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    let read = c
                        .holding_modes
                        .get(i)
                        .map(|m| m.is_shared())
                        .unwrap_or(false);
                    if read {
                        format!("{} (read)", lock_name(objects, l))
                    } else {
                        lock_name(objects, l)
                    }
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let blocked_at = c.context.last().map(|s| s.to_string()).unwrap_or_default();
        let want = if c.waiting_mode.is_shared() {
            "read of "
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  thread {} '{}' holds {holding}, blocked acquiring {want}{} at {blocked_at}",
            c.thread,
            name,
            lock_name(objects, c.waiting_for),
        );
    }
    out
}

/// Invokes the configured handler with a finished witness.
fn dispatch(inner: &Arc<TrackerInner>, witness: &DeadlockWitness, rendered: &str) {
    match &inner.handler {
        DeadlockHandler::Log => eprint!("{rendered}"),
        DeadlockHandler::SealAndExit => {
            eprint!("{rendered}");
            eprintln!("df-lock: sealing spill and exiting with code {LIVE_DEADLOCK_EXIT_CODE}");
            seal(inner);
            std::process::exit(LIVE_DEADLOCK_EXIT_CODE);
        }
        DeadlockHandler::Callback(f) => f(witness),
    }
}

/// Seals the run (idempotent): peak-trace-bytes high-water mark, then
/// `on_finish` to every sink with the trace skeleton.
pub(crate) fn seal(inner: &Arc<TrackerInner>) {
    let st = {
        let mut st = inner.state.lock();
        if st.sealed {
            return;
        }
        st.sealed = true;
        inner
            .obs
            .counters()
            .record_peak_trace_bytes(st.trace.approx_event_bytes());
        st
    };
    inner.sink.finish(&st.trace);
}
