//! Real-thread sessions: DeadlockFuzzer on ordinary OS threads.
//!
//! The virtual-thread pipeline ([`crate::DeadlockFuzzer`]) controls every
//! schedule point. This module runs the same two phases on a program
//! written against `df-lock`'s tracked locks instead — the Rust analogue
//! of CalFuzzer's bytecode instrumentation, since `std::sync` locks
//! cannot be intercepted. The program takes a [`Tracker`], creates its
//! locks with [`df_lock::TrackedMutex::with_tracker`] (and the rwlock and
//! condvar equivalents), and spawns through [`Tracker::spawn`]; it must
//! be the same code in both phases, since acquisition and allocation
//! sites correlate the runs.
//!
//! * **Phase I** is a tracker with
//!   [`df_lock::TrackerConfig::record_events`] on; [`analyze`] runs
//!   iGoodlock on what it recorded. Attach a sink instead to stream.
//! * **Phase II** is [`fuzz`]: the tracker's pre-acquire hook pauses an
//!   acquisition whose `(abs(t), abs(l), C)` is a component of the
//!   target cycle (Algorithm 3), `checkRealDeadlock` runs before every
//!   pause, and a created deadlock unwinds the program's threads instead
//!   of wedging the process.
//! * [`noise`] is the ConTest-style baseline the paper argues against
//!   (§6): random short sleeps before acquisitions, no steering.
//!
//! This module holds the policy; `df-lock` holds the mechanism (pausing,
//! the watchdog, abort and unwind).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use deadlock_fuzzer::igoodlock::IGoodlockOptions;
//! use deadlock_fuzzer::lock::{TrackedMutex, Tracker, TrackerConfig};
//! use deadlock_fuzzer::session::analyze;
//!
//! // Phase I: record an execution of a two-lock program.
//! let tracker = Tracker::new(TrackerConfig::default().with_record_events(true));
//! let a = Arc::new(TrackedMutex::with_tracker(&tracker, 0u32));
//! let b = Arc::new(TrackedMutex::with_tracker(&tracker, 0u32));
//! let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
//! tracker
//!     .spawn("t", move || {
//!         let ga = a2.lock().unwrap();
//!         let gb = b2.lock().unwrap();
//!         drop((gb, ga));
//!     })
//!     .join()
//!     .unwrap();
//! let gb = b.lock().unwrap();
//! let ga = a.lock().unwrap();
//! drop((ga, gb));
//! let report = analyze(&tracker, &IGoodlockOptions::default());
//! assert_eq!(report.cycles.len(), 1); // opposite lock orders
//! ```

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use df_abstraction::{AbstractionMode, Abstractor};
use df_events::{ThreadId, Trace};
use df_igoodlock::{igoodlock, AbstractCycle, Cycle, IGoodlockOptions, LockDependencyRelation};
use df_lock::{AcquireRequest, Decision, PausePolicy, Stop, Timeouts, Tracker, TrackerConfig};
use df_runtime::DeadlockWitness;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of the noise-injection baseline.
#[derive(Clone, Debug)]
pub struct NoiseConfig {
    /// RNG seed.
    pub seed: u64,
    /// Probability of injecting a sleep before an acquisition.
    pub probability: f64,
    /// Maximum injected sleep.
    pub max_sleep: Duration,
    /// Abort the run after this long without progress (a noise run
    /// that deadlocks for real must still terminate).
    pub hang_timeout: Duration,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            seed: 0,
            probability: 0.3,
            max_sleep: Duration::from_millis(8),
            hang_timeout: Duration::from_secs(2),
        }
    }
}

impl NoiseConfig {
    /// Checks the knobs for nonsense, returning the reason a run must not
    /// be started with them. Rejecting an out-of-range probability up
    /// front keeps a typo'd `1.3` from quietly running as `1.0`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.probability.is_finite() || !(0.0..=1.0).contains(&self.probability) {
            return Err(format!(
                "noise probability must be within [0, 1], got {}",
                self.probability
            ));
        }
        if self.max_sleep.is_zero() {
            return Err("noise max_sleep must be positive".to_string());
        }
        if self.hang_timeout.is_zero() {
            return Err("noise hang_timeout must be positive".to_string());
        }
        Ok(())
    }
}

/// Phase II configuration for real threads.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// The target cycle (from [`RecordReport::abstract_cycles`]).
    pub cycle: AbstractCycle,
    /// Abstraction mode the cycle was abstracted with.
    pub mode: AbstractionMode,
    /// RNG seed for thrash victim selection.
    pub seed: u64,
    /// Honor acquisition contexts in the membership test.
    pub use_context: bool,
    /// §5 monitor: un-pause a thread paused longer than this.
    pub pause_timeout: Duration,
    /// Abort the run after this long without progress.
    pub hang_timeout: Duration,
    /// Hard wall-clock deadline for the whole run, enforced even while
    /// the program makes steady progress (unlike `hang_timeout`, which
    /// only fires when progress stops). `None` (the default) means
    /// unbounded. Exceeding it unwinds the program threads and [`fuzz`]
    /// reports [`FuzzOutcome::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Observability handle: acquire/pause/thrash counters and the
    /// optional scheduler-decision trace for this run.
    pub obs: df_obs::Obs,
}

impl FuzzConfig {
    /// Default knobs for a target cycle (exec-indexing abstraction,
    /// contexts honored).
    pub fn new(cycle: AbstractCycle) -> Self {
        FuzzConfig {
            cycle,
            mode: AbstractionMode::default(),
            seed: 0,
            use_context: true,
            pause_timeout: Duration::from_millis(500),
            hang_timeout: Duration::from_secs(5),
            deadline: None,
            obs: df_obs::Obs::default(),
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the abstraction mode.
    pub fn with_mode(mut self, mode: AbstractionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the hard run deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches an observability handle.
    pub fn with_obs(mut self, obs: df_obs::Obs) -> Self {
        self.obs = obs;
        self
    }
}

/// Terminal outcome of a [`fuzz`] or [`noise`] run.
#[derive(Clone, Debug, PartialEq)]
pub enum FuzzOutcome {
    /// Program finished without creating the deadlock.
    Completed,
    /// A real deadlock was created and witnessed; the program's threads
    /// were unwound instead of leaving the process stuck.
    Deadlock(DeadlockWitness),
    /// The watchdog aborted the run (no progress).
    Timeout,
    /// The run's hard wall-clock deadline ([`FuzzConfig::deadline`])
    /// elapsed while the program was still making progress.
    DeadlineExceeded,
    /// A program thread panicked for a reason other than the abort — a
    /// bug in the program under test, not a deadlock. Carries the panic
    /// message.
    ProgramPanic(String),
}

impl FuzzOutcome {
    /// The witness, if a deadlock was created.
    pub fn deadlock(&self) -> Option<&DeadlockWitness> {
        match self {
            FuzzOutcome::Deadlock(w) => Some(w),
            _ => None,
        }
    }

    /// Whether the run ended without a verdict about the target cycle
    /// (timed out, hit the deadline, or the program broke) — the caller
    /// may want to retry with a different seed.
    pub fn is_degraded(&self) -> bool {
        matches!(
            self,
            FuzzOutcome::Timeout | FuzzOutcome::DeadlineExceeded | FuzzOutcome::ProgramPanic(_)
        )
    }
}

impl From<Option<Stop>> for FuzzOutcome {
    fn from(stop: Option<Stop>) -> Self {
        match stop {
            None => FuzzOutcome::Completed,
            Some(Stop::Deadlock(w)) => FuzzOutcome::Deadlock(w),
            Some(Stop::ProgramPanic(m)) => FuzzOutcome::ProgramPanic(m),
            Some(Stop::DeadlineExceeded) => FuzzOutcome::DeadlineExceeded,
            Some(Stop::Timeout) => FuzzOutcome::Timeout,
        }
    }
}

/// Result of analyzing a recorded run.
#[derive(Clone, Debug)]
pub struct RecordReport {
    /// The recorded trace (owning the object table).
    pub trace: Trace,
    /// Size of the deduplicated lock dependency relation.
    pub relation_size: usize,
    /// Potential deadlock cycles.
    pub cycles: Vec<Cycle>,
}

impl RecordReport {
    /// The cycles in abstract, execution-independent form under `mode`.
    pub fn abstract_cycles(&self, mode: AbstractionMode) -> Vec<AbstractCycle> {
        let abstractor = Abstractor::new(mode);
        self.cycles
            .iter()
            .map(|c| c.abstract_with(self.trace.objects(), &abstractor))
            .collect()
    }
}

/// Phase I over a recording tracker: seals it (delivering the end of run
/// to any sinks) and runs iGoodlock on its trace. The tracker must record
/// events ([`TrackerConfig::with_record_events`]); call after joining the
/// program's threads.
pub fn analyze(tracker: &Tracker, options: &IGoodlockOptions) -> RecordReport {
    tracker.seal();
    let trace = tracker.trace();
    let relation = LockDependencyRelation::from_trace(&trace);
    let cycles = igoodlock(&relation, options);
    RecordReport {
        trace,
        relation_size: relation.len(),
        cycles,
    }
}

/// Phase II: runs `program` once on the calling thread under a tracker
/// steered toward `config.cycle`, and classifies the run. A witnessed
/// deadlock beats everything, then a program panic, then the deadline,
/// then the hang timeout.
///
/// # Panics
///
/// Re-raises a panic of `program` itself on the calling thread (other
/// than the abort of a created deadlock), after the run is wound down.
pub fn fuzz(config: FuzzConfig, program: impl FnOnce(&Tracker)) -> FuzzOutcome {
    let obs = config.obs.clone();
    let policy = CyclePolicy {
        abstractor: Abstractor::new(config.mode),
        rng: Mutex::new(ChaCha8Rng::seed_from_u64(config.seed)),
        config,
    };
    run(Arc::new(policy), obs, program)
}

/// The noise-injection baseline: runs `program` once with random sleeps
/// before acquisitions and no steering. Real deadlocks it stumbles into
/// are still witnessed and unwound.
///
/// # Panics
///
/// Panics if `config` fails [`NoiseConfig::validate`] — check first when
/// the knobs come from user input — and re-raises panics of `program`
/// like [`fuzz`].
pub fn noise(config: NoiseConfig, program: impl FnOnce(&Tracker)) -> FuzzOutcome {
    if let Err(reason) = config.validate() {
        panic!("invalid NoiseConfig: {reason}");
    }
    let policy = NoisePolicy {
        rng: Mutex::new(ChaCha8Rng::seed_from_u64(config.seed)),
        config,
    };
    run(Arc::new(policy), df_obs::Obs::default(), program)
}

fn run(
    policy: Arc<dyn PausePolicy>,
    obs: df_obs::Obs,
    program: impl FnOnce(&Tracker),
) -> FuzzOutcome {
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_obs(obs)
            .with_pause_policy(policy),
    );
    let ran = panic::catch_unwind(AssertUnwindSafe(|| program(&tracker)));
    let stop = tracker.finish();
    if let Err(payload) = ran {
        if !df_lock::is_abort(payload.as_ref()) {
            panic::resume_unwind(payload);
        }
    }
    stop.into()
}

/// Algorithm 3's policy: pause an acquisition whose
/// `(abs(t), abs(l), C)` is a component of the target cycle, and thrash
/// a seeded-random paused thread.
#[derive(Debug)]
struct CyclePolicy {
    config: FuzzConfig,
    abstractor: Abstractor,
    rng: Mutex<ChaCha8Rng>,
}

impl PausePolicy for CyclePolicy {
    fn before_acquire(&self, request: &AcquireRequest<'_>) -> Decision {
        let thread = self.abstractor.abs(request.objects, request.thread_obj);
        let lock = self.abstractor.abs(request.objects, request.lock);
        let member = self.config.cycle.find_component(
            &thread,
            &lock,
            request.held_sites,
            request.site,
            self.config.use_context,
        );
        if member.is_some() {
            Decision::Pause
        } else {
            Decision::Proceed
        }
    }

    fn thrash_victim(&self, paused: &[ThreadId]) -> ThreadId {
        let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
        paused[rng.gen_range(0..paused.len())]
    }

    fn timeouts(&self) -> Timeouts {
        Timeouts {
            pause: self.config.pause_timeout,
            hang: self.config.hang_timeout,
            deadline: self.config.deadline,
        }
    }
}

/// The noise baseline's policy: never pauses, sometimes sleeps.
#[derive(Debug)]
struct NoisePolicy {
    config: NoiseConfig,
    rng: Mutex<ChaCha8Rng>,
}

impl PausePolicy for NoisePolicy {
    fn before_acquire(&self, _: &AcquireRequest<'_>) -> Decision {
        let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
        noise_sleep(&mut rng, &self.config).map_or(Decision::Proceed, Decision::Sleep)
    }

    fn thrash_victim(&self, paused: &[ThreadId]) -> ThreadId {
        paused[0]
    }

    fn timeouts(&self) -> Timeouts {
        Timeouts {
            pause: self.config.hang_timeout,
            hang: self.config.hang_timeout,
            deadline: None,
        }
    }
}

/// Samples the noise injector's pre-acquisition sleep: `None` when the
/// probability coin says no noise, otherwise a duration uniform over the
/// full `0..=max_sleep` range at microsecond resolution, so
/// sub-millisecond budgets still sleep and the maximum itself can be
/// drawn.
fn noise_sleep(rng: &mut ChaCha8Rng, cfg: &NoiseConfig) -> Option<Duration> {
    if !rng.gen_bool(cfg.probability) {
        return None;
    }
    let max_us = cfg.max_sleep.as_micros().min(u64::MAX as u128) as u64;
    Some(Duration::from_micros(rng.gen_range(0..=max_us)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_events::{EventKind, ObjId};
    use df_lock::TrackedMutex;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn noise_sleep_covers_the_full_range_at_microsecond_resolution() {
        let cfg = NoiseConfig {
            probability: 1.0,
            max_sleep: Duration::from_micros(2_500),
            ..NoiseConfig::default()
        };
        let mut r = rng(7);
        let samples: Vec<Duration> = (0..4_000)
            .map(|_| noise_sleep(&mut r, &cfg).expect("probability 1.0 always sleeps"))
            .collect();
        let max = samples.iter().max().expect("non-empty");
        assert!(samples.iter().all(|d| *d <= cfg.max_sleep));
        // A sampler truncated to whole milliseconds with an exclusive
        // bound quantizes every draw and never reaches the top of the
        // range. At microsecond resolution the empirical max gets close
        // to the budget...
        assert!(
            *max > cfg.max_sleep.mul_f64(0.9),
            "max sample {max:?} never approaches the {:?} budget",
            cfg.max_sleep
        );
        // ...and draws do not all sit on millisecond boundaries.
        assert!(
            samples.iter().any(|d| d.subsec_micros() % 1_000 != 0),
            "samples are still millisecond-quantized"
        );
    }

    #[test]
    fn noise_sleep_honors_sub_millisecond_budgets() {
        // A 300µs budget truncated to milliseconds collapses to
        // `gen_range(0..1ms) = 0`: the baseline would never sleep.
        let cfg = NoiseConfig {
            probability: 1.0,
            max_sleep: Duration::from_micros(300),
            ..NoiseConfig::default()
        };
        let mut r = rng(11);
        let samples: Vec<Duration> = (0..500)
            .map(|_| noise_sleep(&mut r, &cfg).expect("always sleeps"))
            .collect();
        assert!(samples.iter().all(|d| *d <= cfg.max_sleep));
        assert!(samples.iter().any(|d| !d.is_zero()));
    }

    #[test]
    fn noise_sleep_upper_bound_is_inclusive() {
        let cfg = NoiseConfig {
            probability: 1.0,
            max_sleep: Duration::from_micros(3),
            ..NoiseConfig::default()
        };
        let mut r = rng(13);
        let hit_max =
            (0..200).any(|_| noise_sleep(&mut r, &cfg).expect("always sleeps") == cfg.max_sleep);
        assert!(hit_max, "the configured maximum is never drawn");
    }

    #[test]
    fn noise_sleep_probability_zero_never_sleeps() {
        let cfg = NoiseConfig {
            probability: 0.0,
            ..NoiseConfig::default()
        };
        let mut r = rng(17);
        assert!((0..100).all(|_| noise_sleep(&mut r, &cfg).is_none()));
    }

    #[test]
    fn noise_config_validation_rejects_nonsense() {
        let bad_probability = NoiseConfig {
            probability: 1.3,
            ..NoiseConfig::default()
        };
        assert!(bad_probability.validate().is_err());
        let nan = NoiseConfig {
            probability: f64::NAN,
            ..NoiseConfig::default()
        };
        assert!(nan.validate().is_err());
        let zero_sleep = NoiseConfig {
            max_sleep: Duration::ZERO,
            ..NoiseConfig::default()
        };
        assert!(zero_sleep.validate().is_err());
        let zero_watchdog = NoiseConfig {
            hang_timeout: Duration::ZERO,
            ..NoiseConfig::default()
        };
        assert!(zero_watchdog.validate().is_err());
        assert!(NoiseConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid NoiseConfig")]
    fn noise_session_refuses_an_invalid_config() {
        let config = NoiseConfig {
            probability: 2.0,
            ..NoiseConfig::default()
        };
        noise(config, |_| unreachable!("an invalid config never runs"));
    }

    #[derive(Default)]
    struct CapturingSink {
        events: Vec<df_events::Event>,
        bindings: Vec<(ThreadId, ObjId)>,
        finished: bool,
    }

    impl df_events::EventSink for CapturingSink {
        fn on_event(&mut self, event: &df_events::Event) {
            self.events.push(event.clone());
        }

        fn on_thread_bound(&mut self, thread: ThreadId, obj: ObjId) {
            self.bindings.push((thread, obj));
        }

        fn on_finish(&mut self, _trace: &Trace) {
            self.finished = true;
        }
    }

    fn capturing_handle() -> (Arc<Mutex<CapturingSink>>, df_events::SinkHandle) {
        let cap = Arc::new(Mutex::new(CapturingSink::default()));
        let handle = df_events::SinkHandle::single(cap.clone());
        (cap, handle)
    }

    /// A `Write` target the test can read back after the spill sink
    /// (which owns its writer) is done with it.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buffer mutex").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A deterministic single-threaded locking program (no interleaving
    /// nondeterminism, so two trackers running it produce identical
    /// streams).
    fn run_locking_program(tracker: &Tracker) {
        let a = TrackedMutex::with_tracker(tracker, 0u8);
        let b = TrackedMutex::with_tracker(tracker, 0u8);
        tracker.scope(|| {
            let ga = a.lock().unwrap();
            let gb = b.lock().unwrap();
            drop(gb);
            drop(ga);
        });
    }

    fn recording(sink: df_events::SinkHandle, obs: df_obs::Obs) -> Tracker {
        Tracker::new(
            TrackerConfig::default()
                .with_sink(sink)
                .with_obs(obs)
                .with_record_events(true),
        )
    }

    #[test]
    fn sink_observes_the_exact_recorded_stream() {
        let (cap, handle) = capturing_handle();
        let obs = df_obs::Obs::default();
        let tracker = recording(handle, obs.clone());
        run_locking_program(&tracker);
        tracker.seal();
        let trace = tracker.trace();
        let cap = cap.lock().expect("sink mutex");
        assert!(!trace.events().is_empty());
        assert_eq!(cap.events.as_slice(), trace.events());
        assert!(cap.finished);
        for (thread, obj) in trace.thread_objs() {
            assert!(cap.bindings.contains(&(thread, obj)));
        }
        let snap = obs.counters().snapshot();
        assert_eq!(snap.events_streamed, trace.events().len() as u64);
        assert_eq!(snap.peak_trace_bytes, trace.approx_event_bytes());
        assert!(snap.peak_trace_bytes > 0);
    }

    /// Regression for the sink-poisoning hazard: a sink whose callback
    /// panics mid-trial poisons its own `std::sync::Mutex`, but the
    /// fan-out handle recovers the guard — so a [`df_events::SpillSink`]
    /// sharing the handle still receives the rest of the stream and the
    /// end-of-run seal, and the panicking trial leaves an *analyzable*
    /// trace behind instead of a truncated one.
    #[test]
    fn panicking_sink_trial_still_seals_an_analyzable_spill() {
        /// Panics on the first `Release` it sees, once.
        #[derive(Default)]
        struct ExplodingSink {
            exploded: bool,
        }
        impl df_events::EventSink for ExplodingSink {
            fn on_event(&mut self, event: &df_events::Event) {
                if !self.exploded && matches!(event.kind, EventKind::Release { .. }) {
                    self.exploded = true;
                    panic!("sink exploded on first release");
                }
            }
        }

        let buf = SharedBuf::default();
        let spill = Arc::new(Mutex::new(
            df_events::SpillSink::new(buf.clone()).expect("start spill"),
        ));
        let exploder: Arc<Mutex<dyn df_events::EventSink>> =
            Arc::new(Mutex::new(ExplodingSink::default()));
        // Spill first: it must see each event before the exploder gets
        // a chance to panic the emitting thread.
        let handle = df_events::SinkHandle::single(spill.clone()).with(exploder);

        let tracker = recording(handle, df_obs::Obs::default());
        let trial = panic::catch_unwind(AssertUnwindSafe(|| run_locking_program(&tracker)));
        assert!(trial.is_err(), "the exploding sink panicked the trial");

        tracker.seal();
        let (events, _bytes) = spill
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .close()
            .expect("panicking trial still seals the spill");
        assert!(events > 0);

        let bytes = buf.0.lock().expect("buffer mutex").clone();
        let trace = df_events::read_trace(std::io::BufReader::new(bytes.as_slice()))
            .expect("sealed spill parses as a df-trace artifact");
        assert_eq!(trace.events().len() as u64, events);
        // Both releases made it out: the one that blew up the sink and
        // the one emitted while unwinding the outer guard.
        let releases = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Release { .. }))
            .count();
        assert_eq!(releases, 2);
    }

    /// The ring-buffered binary spill path survives a panicking trial:
    /// encoded frames cross the SPSC ring to the writer thread, the seal
    /// frame lands after the panic, and the artifact decodes to the
    /// events the run emitted.
    #[test]
    fn panicking_trial_seals_a_ring_buffered_binary_spill() {
        let buf = SharedBuf::default();
        let config =
            df_events::SpillConfig::with_format(df_events::TraceFormat::Binary).with_ring(128);
        let (config, spill) = TrackerConfig::default()
            .with_spill(buf.clone(), &config)
            .expect("start spill");
        let tracker = Tracker::new(config);
        let trial = panic::catch_unwind(AssertUnwindSafe(|| {
            run_locking_program(&tracker);
            panic!("trial dies after the program ran");
        }));
        assert!(trial.is_err());

        tracker.seal();
        let (events, bytes_written) = spill
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .close()
            .expect("panicking trial still seals the ring spill");
        assert!(events > 0);

        let bytes = buf.0.lock().expect("buffer mutex").clone();
        assert_eq!(bytes.len() as u64, bytes_written);
        assert!(bytes.starts_with(&df_events::TRACE_BINARY_MAGIC));
        let trace = df_events::read_trace_bytes(&bytes)
            .expect("sealed ring spill parses as a binary trace");
        assert_eq!(trace.events().len() as u64, events);
        assert!(trace.thread_objs().count() > 0, "bindings survive the seal");
    }

    #[test]
    fn streaming_session_sees_the_same_events_at_zero_peak() {
        let (recorded_cap, recorded_handle) = capturing_handle();
        let recorded = recording(recorded_handle, df_obs::Obs::default());
        run_locking_program(&recorded);
        recorded.seal();
        drop(recorded);

        let (cap, handle) = capturing_handle();
        let obs = df_obs::Obs::default();
        let tracker = Tracker::new(
            TrackerConfig::default()
                .with_sink(handle)
                .with_obs(obs.clone()),
        );
        run_locking_program(&tracker);
        tracker.seal();
        assert!(
            tracker.trace().events().is_empty(),
            "a streaming tracker must not materialize the event vector"
        );
        let cap = cap.lock().expect("sink mutex");
        let recorded_cap = recorded_cap.lock().expect("sink mutex");
        assert_eq!(cap.events, recorded_cap.events);
        let snap = obs.counters().snapshot();
        assert_eq!(snap.events_streamed, cap.events.len() as u64);
        assert_eq!(snap.peak_trace_bytes, 0);
    }
}
