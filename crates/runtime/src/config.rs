//! Run configuration.

use std::time::Duration;

use crate::fault::FaultPlan;

/// Configuration for one execution of a program under the virtual runtime.
///
/// Construct with [`RunConfig::default`] and adjust with the builder-style
/// setters.
///
/// # Example
///
/// ```
/// use df_runtime::RunConfig;
/// let cfg = RunConfig::default().with_max_steps(10_000).with_record_trace(false);
/// assert_eq!(cfg.max_steps, 10_000);
/// assert!(!cfg.record_trace);
/// ```
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Maximum number of schedule points before the run is aborted with
    /// [`crate::Outcome::StepLimit`]. Guards against livelocks in program
    /// models.
    pub max_steps: u64,
    /// Wall-clock watchdog: if no schedule point occurs for this long the
    /// run is aborted with [`crate::Outcome::Hang`]. Guards against program
    /// closures that spin without instrumented operations.
    pub hang_timeout: Duration,
    /// Whether to keep the run's events in memory, in the event vector
    /// of [`crate::RunResult::trace`]. Off, the runtime still builds the
    /// object table and thread bindings, numbers every event, streams it
    /// to `sink` and shows it to the strategy: only the vector is
    /// skipped, so schedules and verdicts do not change. Phase I and
    /// schedule replay read the events; Phase II confirmation campaigns
    /// keep only tallies and run with recording off.
    pub record_trace: bool,
    /// Hard wall-clock deadline for the whole run, enforced even while the
    /// program makes steady progress (unlike `hang_timeout`, which only
    /// fires when progress stops). `None` (the default) means unbounded.
    /// Exceeding it aborts with [`crate::Outcome::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Faults to inject into the run for adversarial self-testing; `None`
    /// (the default) runs the program faithfully.
    pub fault_plan: Option<FaultPlan>,
    /// Seed exposed to the program under test via
    /// [`crate::TCtx::run_seed`]. Program models that want run-to-run
    /// variation (e.g. which worker arrives first) must derive it from
    /// this value rather than ambient state, so that the same seed always
    /// replays the same program — the property the parallel trial pool
    /// relies on to make `jobs = 1` and `jobs = N` campaigns agree.
    pub program_seed: u64,
    /// Observability handle: the runtime counts observed acquisitions and
    /// rolls the strategy's pause/thrash/yield statistics and injected
    /// faults into it, and streams fault-injection trace events to its
    /// sink. The default handle counts into a private registry and traces
    /// nothing.
    pub obs: df_obs::Obs,
    /// Streaming event observers. Every recorded event is delivered to
    /// the attached [`df_events::EventSink`]s in trace order with the
    /// sequence numbers the trace would carry, whether or not
    /// `record_trace` keeps the events in memory — which is what lets
    /// Phase I consume an execution online instead of materializing the
    /// full event vector. The default handle has no sinks and costs one
    /// emptiness check per event.
    pub sink: df_events::SinkHandle,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_steps: 1_000_000,
            hang_timeout: Duration::from_secs(10),
            record_trace: true,
            deadline: None,
            fault_plan: None,
            program_seed: 0,
            obs: df_obs::Obs::default(),
            sink: df_events::SinkHandle::none(),
        }
    }
}

impl RunConfig {
    /// Creates the default configuration (same as [`Default::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the schedule-point budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the wall-clock watchdog timeout.
    pub fn with_hang_timeout(mut self, timeout: Duration) -> Self {
        self.hang_timeout = timeout;
        self
    }

    /// Enables or disables trace recording.
    pub fn with_record_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Sets the hard wall-clock deadline for the run.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Injects the given fault plan into the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the seed the program observes through [`crate::TCtx::run_seed`].
    pub fn with_program_seed(mut self, seed: u64) -> Self {
        self.program_seed = seed;
        self
    }

    /// Attaches an observability handle.
    pub fn with_obs(mut self, obs: df_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches streaming event sinks. Combine with
    /// [`RunConfig::with_record_trace`]`(false)` to observe an execution
    /// without ever materializing its event vector.
    pub fn with_event_sink(mut self, sink: df_events::SinkHandle) -> Self {
        self.sink = sink;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = RunConfig::default();
        assert!(c.max_steps > 0);
        assert!(c.record_trace);
        assert!(c.hang_timeout > Duration::from_millis(1));
    }

    #[test]
    fn builders_apply() {
        let c = RunConfig::new()
            .with_max_steps(5)
            .with_hang_timeout(Duration::from_millis(7))
            .with_record_trace(false);
        assert_eq!(c.max_steps, 5);
        assert_eq!(c.hang_timeout, Duration::from_millis(7));
        assert!(!c.record_trace);
        assert!(c.fault_plan.is_none());
    }

    #[test]
    fn program_seed_defaults_to_zero_and_is_settable() {
        assert_eq!(RunConfig::default().program_seed, 0);
        assert_eq!(RunConfig::new().with_program_seed(9).program_seed, 9);
    }

    #[test]
    fn fault_plan_builder_applies() {
        let c = RunConfig::new().with_fault_plan(FaultPlan::new(3).with_leak_release(0.5));
        let plan = c.fault_plan.expect("plan set");
        assert_eq!(plan.seed, 3);
        assert!(!plan.is_noop());
    }
}
