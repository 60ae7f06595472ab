//! Algorithm 3: the DEADLOCKFUZZER active random scheduler.

use std::collections::HashMap;

use df_abstraction::{AbstractionMode, Abstractor};
use df_events::{Event, EventKind, Label, ObjId, ObjectTable, ThreadId};
use df_igoodlock::AbstractCycle;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use df_runtime::{Directive, PendingOp, StateView, Strategy, StrategyStats, ThreadView};

use crate::check::check_real_deadlock;

/// Configuration of the active scheduler — one knob per experimental
/// variant in the paper's Figure 2.
#[derive(Clone, Debug)]
pub struct ActiveConfig {
    /// The potential deadlock cycle to create (from Phase I).
    pub cycle: AbstractCycle,
    /// Abstraction mode — must be the mode the cycle was abstracted with.
    /// `Trivial` reproduces the paper's "ignore abstraction" variant.
    pub mode: AbstractionMode,
    /// RNG seed; same seed + same program = same schedule.
    pub seed: u64,
    /// Honor acquisition contexts in the membership test
    /// `(abs(t), abs(l), C) ∈ Cycle`. `false` reproduces the "ignore
    /// context" variant (compare abstractions only).
    pub use_context: bool,
    /// Enable the §4 optimization: threads matching a cycle component
    /// yield once before the *outermost* acquire of the component's
    /// context. `false` reproduces the "no yields" variant.
    pub yield_optimization: bool,
    /// Livelock monitor (§5): un-pause a thread that has stayed paused for
    /// this many scheduling decisions.
    pub pause_budget: u64,
    /// How many scheduling decisions a thread may be deferred by the §4
    /// yield gate (per gated site). One decision is rarely enough for the
    /// partner thread to pass its leading lock section; the budget lets
    /// the yield span several of the partner's operations while never
    /// starving the gated thread.
    pub yield_budget: u32,
    /// Observability handle: the strategy streams its scheduling
    /// decisions (pause/unpause/thrash/yield and `checkRealDeadlock`
    /// verdicts) to its trace sink. Counters are rolled up by the runtime
    /// from [`StrategyStats`], so the default no-sink handle costs
    /// nothing here.
    pub obs: df_obs::Obs,
}

impl ActiveConfig {
    /// The paper's best variant (execution indexing, context, yields) for
    /// a given target cycle.
    pub fn new(cycle: AbstractCycle) -> Self {
        ActiveConfig {
            cycle,
            mode: AbstractionMode::default(),
            seed: 0,
            use_context: true,
            yield_optimization: true,
            pause_budget: 5_000,
            yield_budget: 8,
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

    /// Enables/disables context matching.
    pub fn with_context(mut self, use_context: bool) -> Self {
        self.use_context = use_context;
        self
    }

    /// Enables/disables the §4 yield optimization.
    pub fn with_yields(mut self, yields: bool) -> Self {
        self.yield_optimization = yields;
        self
    }

    /// Attaches an observability handle.
    pub fn with_obs(mut self, obs: df_obs::Obs) -> Self {
        self.obs = obs;
        self
    }
}

/// The DEADLOCKFUZZER scheduling strategy (Algorithm 3).
///
/// At every schedule point it picks a random enabled, un-paused thread. A
/// thread about to acquire a lock is first run through `checkRealDeadlock`
/// (Algorithm 4) — if the acquire closes a cycle, the run stops with a
/// real deadlock witness. Otherwise, if `(abs(t), abs(l), Context[t])`
/// matches a component of the target cycle, the thread is *paused* instead
/// of run. If every enabled thread ends up paused the strategy *thrashes*:
/// it un-pauses a uniformly random thread, which then proceeds *through*
/// its pause point (as CalFuzzer's parked threads do — it is not re-caught
/// at the same acquire).
#[derive(Debug)]
pub struct ActiveStrategy {
    config: ActiveConfig,
    abstractor: Abstractor,
    rng: ChaCha8Rng,
    /// Paused threads, each with the pick count at which it was paused.
    /// Only threads at a cycle acquire are paused, a handful at a time,
    /// so a scan beats hashing.
    paused: Vec<(ThreadId, u64)>,
    /// Threads released from `Paused` (by thrashing or the monitor): they
    /// proceed through their current acquire without being re-paused.
    released: Vec<ThreadId>,
    /// Deferral counts per `(thread, site)` for the §4 yield gate.
    yielded: HashMap<(ThreadId, Label), u32>,
    stats: StrategyStats,
    monitor_releases: u64,
    /// Which cycle components each object's abstraction equals.
    membership: Membership,
    /// Buffers reused by every [`Strategy::pick`], so a scheduling decision
    /// allocates nothing once they have grown.
    scratch: PickScratch,
}

/// Per-object cache of the abstraction half of the membership tests:
/// which target-cycle components an object's abstraction equals, as a
/// thread and as a lock.
///
/// An object's abstraction is fixed once the object is created (its
/// site, owner chain and execution index never change), so one
/// [`Abstractor::abs`] per object and run answers every later test, and
/// a pick compares only sites and contexts. Masks hold one bit per
/// component in as many `u64` words as the cycle needs.
#[derive(Debug)]
struct Membership {
    /// Words per mask.
    words: usize,
    /// Per object id: whether its masks in `masks` are computed.
    known: Vec<bool>,
    /// Per object id, `2 * words` words: the thread mask, then the lock
    /// mask. Bit `i` is set when component `i`'s thread (lock)
    /// abstraction equals the object's.
    masks: Vec<u64>,
}

impl Membership {
    fn new(components: usize) -> Self {
        Membership {
            words: components.div_ceil(64),
            known: Vec::new(),
            masks: Vec::new(),
        }
    }

    /// Computes `obj`'s masks unless they are known already.
    fn learn(
        &mut self,
        cycle: &AbstractCycle,
        abstractor: &Abstractor,
        objects: &ObjectTable,
        obj: ObjId,
    ) {
        let i = obj.as_usize();
        if i >= self.known.len() {
            self.known.resize(i + 1, false);
            self.masks.resize((i + 1) * 2 * self.words, 0);
        }
        if self.known[i] {
            return;
        }
        self.known[i] = true;
        let abs = abstractor.abs(objects, obj);
        let w = self.words;
        let slot = &mut self.masks[i * 2 * w..(i + 1) * 2 * w];
        for (c, component) in cycle.components().iter().enumerate() {
            let bit = 1u64 << (c % 64);
            if component.thread == abs {
                slot[c / 64] |= bit;
            }
            if component.lock == abs {
                slot[w + c / 64] |= bit;
            }
        }
    }

    /// The thread mask of a learned object.
    fn as_thread(&self, obj: ObjId) -> &[u64] {
        let start = obj.as_usize() * 2 * self.words;
        &self.masks[start..start + self.words]
    }

    /// The lock mask of a learned object.
    fn as_lock(&self, obj: ObjId) -> &[u64] {
        let start = (obj.as_usize() * 2 + 1) * self.words;
        &self.masks[start..start + self.words]
    }
}

/// Whether bit `i` of `mask` is set.
fn has(mask: &[u64], i: usize) -> bool {
    mask[i / 64] >> (i % 64) & 1 == 1
}

/// Per-decision working sets of [`ActiveStrategy::pick`].
#[derive(Debug, Default)]
struct PickScratch {
    /// Threads the §4 yield gate deferred within this decision.
    deferred: Vec<ThreadId>,
    /// The threads one draw of the decision chooses among.
    choices: Vec<ThreadId>,
}

impl ActiveStrategy {
    /// Creates the strategy.
    pub fn new(config: ActiveConfig) -> Self {
        let abstractor = Abstractor::new(config.mode);
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        let membership = Membership::new(config.cycle.len());
        ActiveStrategy {
            config,
            abstractor,
            rng,
            paused: Vec::new(),
            released: Vec::new(),
            yielded: HashMap::new(),
            stats: StrategyStats::default(),
            monitor_releases: 0,
            membership,
            scratch: PickScratch::default(),
        }
    }

    /// The membership test of Algorithm 3 line 12:
    /// `(abs(t), abs(l), Context[t]) ∈ Cycle`.
    fn matches_component(
        &mut self,
        view: &StateView<'_>,
        t: &ThreadView<'_>,
        lock: ObjId,
        site: Label,
    ) -> bool {
        let cycle = &self.config.cycle;
        self.membership
            .learn(cycle, &self.abstractor, view.objects(), t.obj);
        self.membership
            .learn(cycle, &self.abstractor, view.objects(), lock);
        let thread_mask = self.membership.as_thread(t.obj);
        let lock_mask = self.membership.as_lock(lock);
        let use_context = self.config.use_context;
        let verdict = cycle.components().iter().enumerate().any(|(i, c)| {
            has(thread_mask, i)
                && has(lock_mask, i)
                && (!use_context || c.context_is(t.context_stack, site))
        });
        #[cfg(debug_assertions)]
        {
            let thread_abs = self.abstractor.abs(view.objects(), t.obj);
            let lock_abs = self.abstractor.abs(view.objects(), lock);
            let uncached = cycle
                .find_component(&thread_abs, &lock_abs, t.context_stack, site, use_context)
                .is_some();
            debug_assert_eq!(verdict, uncached, "cached component membership");
        }
        verdict
    }

    /// The §4 test: is `t` about to perform the *outermost* acquire of a
    /// cycle component it belongs to (by thread abstraction)?
    fn matches_yield_gate(
        &mut self,
        view: &StateView<'_>,
        t: &ThreadView<'_>,
        site: Label,
    ) -> bool {
        let cycle = &self.config.cycle;
        self.membership
            .learn(cycle, &self.abstractor, view.objects(), t.obj);
        let thread_mask = self.membership.as_thread(t.obj);
        let verdict = cycle
            .components()
            .iter()
            .enumerate()
            .any(|(i, c)| has(thread_mask, i) && c.outermost_site() == site);
        #[cfg(debug_assertions)]
        {
            let thread_abs = self.abstractor.abs(view.objects(), t.obj);
            let uncached = cycle
                .components()
                .iter()
                .any(|c| c.thread == thread_abs && c.outermost_site() == site);
            debug_assert_eq!(verdict, uncached, "cached yield-gate membership");
        }
        verdict
    }

    /// Whether `t` is paused.
    fn is_paused(&self, t: ThreadId) -> bool {
        self.paused.iter().any(|&(p, _)| p == t)
    }

    /// Moves `t` from `paused` to `released`.
    fn unpause(&mut self, t: ThreadId) {
        self.paused.retain(|&(p, _)| p != t);
        if !self.released.contains(&t) {
            self.released.push(t);
        }
    }

    /// Un-pauses threads that exceeded the pause budget (the livelock
    /// monitor of §5), returning the released threads so the caller can
    /// stream `Unpause` decisions with their names attached.
    fn run_monitor(&mut self) -> Vec<ThreadId> {
        let now = self.stats.picks;
        let budget = self.config.pause_budget;
        let mut expired: Vec<ThreadId> = self
            .paused
            .iter()
            .filter(|&&(_, at)| now.saturating_sub(at) > budget)
            .map(|&(t, _)| t)
            .collect();
        expired.sort();
        for &t in &expired {
            self.unpause(t);
            self.monitor_releases += 1;
        }
        expired
    }

    /// Algorithm 3's decision, drawing on buffers owned by the strategy.
    fn pick_with(
        &mut self,
        view: &StateView<'_>,
        enabled: &[ThreadId],
        scratch: &mut PickScratch,
    ) -> Directive {
        self.stats.picks += 1;
        for t in self.run_monitor() {
            if self.config.obs.traces() {
                self.config.obs.emit(&df_obs::TraceEvent::Unpause {
                    step: view.steps(),
                    thread: t,
                    name: view.thread(t).name.to_string(),
                });
            }
        }
        // Per-call yield memory: a thread deferred by the §4 gate is only
        // skipped within this decision, not paused.
        let PickScratch { deferred, choices } = scratch;
        deferred.clear();
        loop {
            // Candidates, in `enabled` order.
            choices.clear();
            choices.extend(
                enabled
                    .iter()
                    .copied()
                    .filter(|&t| !self.is_paused(t) && !deferred.contains(&t)),
            );
            if choices.is_empty() {
                if !deferred.is_empty() {
                    // Only deferred threads remain: run one of them (the
                    // yield gave others their chance already).
                    choices.extend(enabled.iter().copied().filter(|t| deferred.contains(t)));
                    let t = choices[self.rng.gen_range(0..choices.len())];
                    return Directive::Run(t);
                }
                // Thrashing (§2.3): every enabled thread is paused; remove
                // a random one from Paused. It will run through its pause
                // point.
                choices.extend(enabled.iter().copied().filter(|&t| self.is_paused(t)));
                choices.sort_unstable();
                if choices.is_empty() {
                    // Defensive: enabled threads exist but none is paused,
                    // deferred, or pickable — cannot happen, but never
                    // wedge the runtime.
                    return Directive::Run(enabled[0]);
                }
                let victim = choices[self.rng.gen_range(0..choices.len())];
                self.unpause(victim);
                self.stats.thrashes += 1;
                if self.config.obs.traces() {
                    self.config.obs.emit(&df_obs::TraceEvent::Thrash {
                        step: view.steps(),
                        thread: victim,
                        name: view.thread(victim).name.to_string(),
                    });
                }
                continue;
            }
            let t_id = choices[self.rng.gen_range(0..choices.len())];
            let t = view.thread(t_id);
            let (lock, site, mode) = match t.pending {
                Some(PendingOp::Acquire { lock, site, mode }) => (*lock, *site, *mode),
                _ => return Directive::Run(t_id),
            };
            // Algorithm 3 line 11: checkRealDeadlock with the candidate's
            // lock pushed (in the candidate's acquisition mode).
            let verdict = check_real_deadlock(view, t_id, lock, mode);
            if self.config.obs.traces() {
                self.config
                    .obs
                    .emit(&df_obs::TraceEvent::CheckRealDeadlock {
                        step: view.steps(),
                        verdict: verdict.is_some(),
                        cycle_len: verdict.as_ref().map(|w| w.len()).unwrap_or(0),
                    });
            }
            if let Some(witness) = verdict {
                return Directive::Deadlock(witness);
            }
            if self.released.contains(&t_id) {
                // Ran through a thrash/monitor release: commit the acquire.
                return Directive::Run(t_id);
            }
            // §4 yield optimization: defer the outermost acquire of a
            // cycle component once, letting other threads pass the
            // prefix of the cycle first.
            if self.config.yield_optimization && self.matches_yield_gate(view, &t, site) {
                let count = self.yielded.entry((t_id, site)).or_insert(0);
                if *count < self.config.yield_budget {
                    *count += 1;
                    self.stats.yields += 1;
                    if self.config.obs.traces() {
                        self.config.obs.emit(&df_obs::TraceEvent::Yield {
                            step: view.steps(),
                            thread: t_id,
                            name: t.name.to_string(),
                            site: site.to_string(),
                        });
                    }
                    deferred.push(t_id);
                    continue;
                }
            }
            // Algorithm 3 line 12: pause before an acquire that belongs to
            // the target cycle.
            if self.matches_component(view, &t, lock, site) {
                self.paused.push((t_id, self.stats.picks));
                self.stats.pauses += 1;
                if self.config.obs.traces() {
                    self.config.obs.emit(&df_obs::TraceEvent::Pause {
                        step: view.steps(),
                        thread: t_id,
                        name: t.name.to_string(),
                        lock: self.abstractor.abs(view.objects(), lock).to_string(),
                        site: site.to_string(),
                    });
                }
                continue;
            }
            return Directive::Run(t_id);
        }
    }
}

impl Strategy for ActiveStrategy {
    fn pick(&mut self, view: &StateView<'_>, enabled: &[ThreadId]) -> Directive {
        let mut scratch = std::mem::take(&mut self.scratch);
        let directive = self.pick_with(view, enabled, &mut scratch);
        self.scratch = scratch;
        directive
    }

    fn on_event(&mut self, event: &Event, _view: &StateView<'_>) {
        // A released thread consumed its exemption once its acquire
        // actually executed.
        if matches!(
            event.kind,
            EventKind::Acquire { .. } | EventKind::Reacquire { .. }
        ) {
            self.released.retain(|&t| t != event.thread);
        }
    }

    fn finish(&mut self) -> StrategyStats {
        let mut stats = self.stats.clone();
        stats
            .extra
            .insert("monitor_releases".to_string(), self.monitor_releases as f64);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_abstraction::Abstraction;
    use df_events::site;
    use df_igoodlock::{igoodlock, IGoodlockOptions, LockDependencyRelation};
    use df_runtime::{LockRef, RunConfig, RunResult, TCtx, VirtualRuntime};

    use crate::simple::SimpleRandomChecker;

    /// The paper's Figure 1 program: thread 1 runs long methods, then
    /// acquires (l1, l2); thread 2 acquires (l2, l1) immediately. With
    /// `third_thread` (lines 24/27 uncommented), a third thread acquires
    /// (l2, l3) through the same `run` body — the §3 example for why
    /// abstractions matter.
    fn figure1(third_thread: bool) -> impl Fn(&TCtx) + Send + Clone + 'static {
        move |ctx: &TCtx| {
            let o1 = ctx.new_lock(site!("main:22 new o1"));
            let o2 = ctx.new_lock(site!("main:23 new o2"));
            let o3 = if third_thread {
                Some(ctx.new_lock(site!("main:24 new o3")))
            } else {
                None
            };
            let run_body = |l1: LockRef, l2: LockRef, flag: bool| {
                move |ctx: &TCtx| {
                    if flag {
                        ctx.work(8); // f1()..f4(): long running methods
                    }
                    ctx.acquire(&l1, site!("run:15 sync l1"));
                    ctx.acquire(&l2, site!("run:16 sync l2"));
                    ctx.release(&l2, site!("run:17"));
                    ctx.release(&l1, site!("run:18"));
                }
            };
            let t1 = ctx.spawn(site!("main:25 start"), "t1", run_body(o1, o2, true));
            let t2 = ctx.spawn(site!("main:26 start"), "t2", run_body(o2, o1, false));
            let t3 = o3.map(|o3| ctx.spawn(site!("main:27 start"), "t3", run_body(o2, o3, false)));
            ctx.join(&t1, site!());
            ctx.join(&t2, site!());
            if let Some(t3) = t3 {
                ctx.join(&t3, site!());
            }
        }
    }

    /// Phase I helper: run under the simple random scheduler, extract the
    /// abstract cycles.
    fn phase1(
        program: impl Fn(&TCtx) + Send + Clone + 'static,
        mode: AbstractionMode,
        seed: u64,
    ) -> Vec<AbstractCycle> {
        let r = VirtualRuntime::new(RunConfig::default()).run(
            Box::new(SimpleRandomChecker::with_seed(seed)),
            {
                let p = program.clone();
                move |ctx| p(ctx)
            },
        );
        let rel = LockDependencyRelation::from_trace(&r.trace);
        let abstractor = Abstractor::new(mode);
        igoodlock(&rel, &IGoodlockOptions::default())
            .iter()
            .map(|c| c.abstract_with(r.trace.objects(), &abstractor))
            .collect()
    }

    fn phase2(program: impl Fn(&TCtx) + Send + Clone + 'static, config: ActiveConfig) -> RunResult {
        VirtualRuntime::new(RunConfig::default()).run(Box::new(ActiveStrategy::new(config)), {
            move |ctx| program(ctx)
        })
    }

    #[test]
    fn figure1_phase1_finds_the_cycle() {
        let cycles = phase1(figure1(false), AbstractionMode::default(), 3);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
        // The report names the sites of Figure 1.
        let text = cycles[0].to_string();
        assert!(text.contains("run:16"), "report: {text}");
    }

    #[test]
    fn figure1_simple_random_rarely_deadlocks() {
        // The long-running prefix makes the deadlock rare under plain
        // random scheduling (the paper's motivation).
        let mut deadlocks = 0;
        for seed in 0..20 {
            let r = VirtualRuntime::new(RunConfig::default()).run(
                Box::new(SimpleRandomChecker::with_seed(seed)),
                {
                    let p = figure1(false);
                    move |ctx| p(ctx)
                },
            );
            if r.outcome.is_deadlock() {
                deadlocks += 1;
            }
        }
        assert!(
            deadlocks <= 6,
            "plain random should rarely hit the rare deadlock, got {deadlocks}/20"
        );
    }

    #[test]
    fn figure1_active_creates_deadlock_with_probability_one() {
        let mode = AbstractionMode::default();
        let cycles = phase1(figure1(false), mode, 3);
        let cycle = cycles[0].clone();
        for seed in 0..20 {
            let r = phase2(
                figure1(false),
                ActiveConfig::new(cycle.clone())
                    .with_seed(seed)
                    .with_mode(mode),
            );
            assert!(
                r.outcome.is_deadlock(),
                "seed {seed} must deadlock, got {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn figure1_witness_matches_target_cycle() {
        let mode = AbstractionMode::default();
        let cycle = phase1(figure1(false), mode, 3).remove(0);
        let r = phase2(
            figure1(false),
            ActiveConfig::new(cycle.clone())
                .with_seed(1)
                .with_mode(mode),
        );
        let w = r.deadlock().expect("deadlock created");
        assert_eq!(w.len(), 2);
        // Rebuild the witness's abstract cycle and compare (up to
        // rotation) with the target.
        let abstractor = Abstractor::new(mode);
        let witness_cycle = AbstractCycle::new(
            w.components
                .iter()
                .map(|c| df_igoodlock::AbstractComponent {
                    thread: abstractor.abs(r.trace.objects(), c.thread_obj),
                    lock: abstractor.abs(r.trace.objects(), c.waiting_for),
                    context: c.context.clone(),
                    mode: c.waiting_mode,
                })
                .collect(),
        );
        assert!(cycle.matches(&witness_cycle));
    }

    #[test]
    fn three_thread_variant_exact_abstraction_still_probability_one() {
        // §3: with thread/lock abstractions the third thread is never
        // paused at run:16, so the real deadlock is still certain.
        let mode = AbstractionMode::default();
        let cycles = phase1(figure1(true), mode, 3);
        // iGoodlock reports the same (o1,o2) cycle; o3 is only ever nested
        // under o2 in one order so no second cycle.
        assert_eq!(cycles.len(), 1);
        let cycle = cycles[0].clone();
        for seed in 0..15 {
            let r = phase2(
                figure1(true),
                ActiveConfig::new(cycle.clone())
                    .with_seed(seed)
                    .with_mode(mode),
            );
            assert!(r.outcome.is_deadlock(), "seed {seed}: {:?}", r.outcome);
            assert_eq!(r.stats.thrashes, 0, "exact abstraction must not thrash");
        }
    }

    #[test]
    fn three_thread_variant_trivial_abstraction_thrashes_and_can_miss() {
        // §3: without abstractions (trivial mode) the third thread gets
        // paused at the same context, causing thrashing and occasional
        // misses (paper: miss probability ≈ 0.25).
        let exact = phase1(figure1(true), AbstractionMode::default(), 3).remove(0);
        let _ = exact; // the trivial run re-abstracts its own cycle:
        let trivial_cycle = phase1(figure1(true), AbstractionMode::Trivial, 3).remove(0);
        let mut misses = 0;
        let mut thrashes = 0u64;
        let trials = 40;
        for seed in 0..trials {
            let r = phase2(
                figure1(true),
                ActiveConfig::new(trivial_cycle.clone())
                    .with_seed(seed)
                    .with_mode(AbstractionMode::Trivial),
            );
            if !r.outcome.is_deadlock() {
                misses += 1;
            }
            thrashes += r.stats.thrashes;
        }
        assert!(
            thrashes > 0,
            "trivial abstraction should cause thrashing on the 3-thread example"
        );
        // Misses are possible but should not dominate.
        assert!(misses < trials, "some trials must still deadlock");
    }

    #[test]
    fn no_deadlock_program_completes_under_active_schedule() {
        // A consistent lock order: Phase I reports nothing; feeding an
        // unrelated cycle to Phase II must not wedge the program.
        let program = |ctx: &TCtx| {
            let a = ctx.new_lock(site!("na"));
            let b = ctx.new_lock(site!("nb"));
            let t = ctx.spawn(site!(), "w", move |ctx| {
                let _ga = ctx.lock(&a, site!("w a"));
                let _gb = ctx.lock(&b, site!("w b"));
            });
            let _ga = ctx.lock(&a, site!("m a"));
            let _gb = ctx.lock(&b, site!("m b"));
            drop(_gb);
            drop(_ga);
            ctx.join(&t, site!());
        };
        let cycles = phase1(program, AbstractionMode::default(), 5);
        assert!(cycles.is_empty());
        // Fabricate a cycle that never matches.
        let bogus = AbstractCycle::new(vec![]);
        let r = phase2(program, ActiveConfig::new(bogus).with_seed(1));
        assert!(r.outcome.is_completed());
    }

    #[test]
    fn paused_threads_are_released_by_monitor() {
        // One thread matches a cycle component; its partner never shows
        // up, so only the monitor (or completion of others) lets the run
        // finish.
        let mode = AbstractionMode::default();
        let cycles = phase1(figure1(false), mode, 3);
        let cycle = cycles[0].clone();
        // Program where only t1 exists: the pause cannot complete a cycle.
        let half_program = |ctx: &TCtx| {
            let o1 = ctx.new_lock(site!("main:22 new o1"));
            let o2 = ctx.new_lock(site!("main:23 new o2"));
            let t1 = ctx.spawn(site!("main:25 start"), "t1", move |ctx| {
                ctx.work(8);
                ctx.acquire(&o1, site!("run:15 sync l1"));
                ctx.acquire(&o2, site!("run:16 sync l2"));
                ctx.release(&o2, site!("run:17"));
                ctx.release(&o1, site!("run:18"));
            });
            ctx.join(&t1, site!());
        };
        let mut config = ActiveConfig::new(cycle).with_seed(2).with_mode(mode);
        config.pause_budget = 10;
        let r = phase2(half_program, config);
        assert!(
            r.outcome.is_completed(),
            "monitor must release the paused thread: {:?}",
            r.outcome
        );
    }

    #[test]
    fn stats_report_pauses_and_monitor_releases() {
        let mode = AbstractionMode::default();
        let cycle = phase1(figure1(false), mode, 3).remove(0);
        let r = phase2(
            figure1(false),
            ActiveConfig::new(cycle).with_seed(0).with_mode(mode),
        );
        assert!(r.outcome.is_deadlock());
        assert!(r.stats.pauses >= 1, "at least one thread must be paused");
        assert!(r.stats.extra.contains_key("monitor_releases"));
    }

    #[test]
    fn membership_masks_cover_cycles_longer_than_one_word() {
        // A 70-component ring over 70 objects with distinct sites: object
        // `k` is component `k`'s thread and component `k - 1`'s lock, so
        // its bits straddle the first mask word for k = 64.
        let n = 70;
        let mut objects = ObjectTable::new();
        let sites: Vec<Label> = (0..n).map(|k| Label::new(&format!("ring:{k}"))).collect();
        let objs: Vec<ObjId> = sites
            .iter()
            .map(|&s| objects.create(df_events::ObjKind::Lock, s, None, Vec::new()))
            .collect();
        let abs = |k: usize| Abstraction::Site(sites[k % n]);
        let cycle = AbstractCycle::new(
            (0..n)
                .map(|k| {
                    df_igoodlock::AbstractComponent::exclusive(abs(k), abs(k + 1), vec![sites[k]])
                })
                .collect(),
        );
        let abstractor = Abstractor::new(AbstractionMode::Site);
        let mut membership = Membership::new(cycle.len());
        for (k, &obj) in objs.iter().enumerate() {
            membership.learn(&cycle, &abstractor, &objects, obj);
            let as_thread: Vec<usize> = (0..n)
                .filter(|&i| has(membership.as_thread(obj), i))
                .collect();
            let as_lock: Vec<usize> = (0..n)
                .filter(|&i| has(membership.as_lock(obj), i))
                .collect();
            assert_eq!(as_thread, [k], "object {k} as a thread");
            assert_eq!(as_lock, [(k + n - 1) % n], "object {k} as a lock");
        }
    }

    #[test]
    fn config_builders() {
        let c = ActiveConfig::new(AbstractCycle::new(vec![]))
            .with_seed(9)
            .with_mode(AbstractionMode::Site)
            .with_context(false)
            .with_yields(false);
        assert_eq!(c.seed, 9);
        assert_eq!(c.mode, AbstractionMode::Site);
        assert!(!c.use_context);
        assert!(!c.yield_optimization);
    }
}
