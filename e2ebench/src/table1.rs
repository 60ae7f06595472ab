//! `table1-uniform` and `table1-adaptive`: the ten Table 1 models, each
//! through a full campaign (Phase I, then Phase II confirmation of every
//! predicted cycle) at `jobs = 1`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use deadlock_fuzzer::{
    allocate_trials, trials_saved, BatchResult, Config, CycleBudget, DeadlockFuzzer, Report,
    TrialOutcome,
};
use df_abstraction::Abstractor;
use df_benchmarks::{table1_suite, Benchmark};
use df_fuzzer::{ActiveConfig, ActiveStrategy, SimpleRandomChecker};
use df_igoodlock::{
    igoodlock_parallel, AbstractComponent, AbstractCycle, FeasibilityAnalysis, FeasibilityVerdict,
    HbFilter, LockDependencyRelation,
};
use df_runtime::{RunResult, Strategy, VirtualRuntime};

use crate::trace::{SpanId, StrategyTally, TimedStrategy, Tracer};
use crate::{derive_seed, Expected, PassOut, TracedTally};

/// Mirrors the pipeline's retry seed rotation (trial `i`, attempt `a`
/// runs seed `base + i + a * STRIDE`); the traced decomposition must
/// pick the same seeds for its verdicts to match the untraced run.
const RETRY_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Phase I seeds the workload seed picks from. A single random Phase I
/// run predicts only the cycles its schedule exercised: over Phase I
/// seeds 0..=40, Java Logging showed 0-3 of its 3 cycles and Jigsaw 1
/// or 7, which would change a campaign's answers and its work (up to
/// 180 of 1,200 trials) with the seed. At these seeds Phase I observes
/// every Table 1 cycle, so each campaign has the same answers and size.
const PHASE1_SEEDS: [u64; 8] = [0, 1, 3, 4, 5, 6, 7, 8];

pub struct Table1 {
    programs: Vec<Benchmark>,
    /// One campaign configuration per round of a pass.
    configs: Vec<Config>,
}

impl Table1 {
    /// Builds the suite and the campaign configurations for `seed`,
    /// then warms every model up with one Phase I run.
    pub fn setup(seed: u64, adaptive: bool) -> Self {
        let base = |round: u64| derive_seed(seed, 16 + round) >> 16;
        let configs: Vec<Config> = if adaptive {
            // An adaptive campaign stops each cycle at its first match,
            // so its size depends on the seeds. One round per Phase I
            // seed of the pool, each with its own Phase II seed base,
            // keeps a pass's size steady across workload seeds.
            PHASE1_SEEDS
                .iter()
                .zip(0..)
                .map(|(&p1, round)| {
                    Config::default()
                        .with_jobs(1)
                        .with_phase1_seed(p1)
                        .with_phase2_seed_base(base(round))
                        .with_feasibility(true)
                        .with_adaptive_trials(true)
                })
                .collect()
        } else {
            let p1 = PHASE1_SEEDS[(derive_seed(seed, 1) % PHASE1_SEEDS.len() as u64) as usize];
            vec![Config::default()
                .with_jobs(1)
                .with_phase1_seed(p1)
                .with_phase2_seed_base(base(0))]
        };
        let programs = table1_suite();
        for b in &programs {
            std::hint::black_box(
                DeadlockFuzzer::from_ref(b.program.clone(), configs[0].clone()).phase1(),
            );
        }
        Table1 { programs, configs }
    }

    /// Largest virtual-thread count any model's Phase I run used.
    pub fn thread_count(&self) -> usize {
        self.programs
            .iter()
            .map(|b| {
                DeadlockFuzzer::from_ref(b.program.clone(), self.configs[0].clone())
                    .phase1()
                    .trace
                    .thread_objs()
                    .count()
            })
            .max()
            .unwrap_or(1)
    }

    /// One untraced campaign per round over the ten models through
    /// `DeadlockFuzzer::run`.
    pub fn pass(&self, expected: &Expected) -> PassOut {
        let start = Instant::now();
        let reports: Vec<(&Benchmark, Report)> = self
            .configs
            .iter()
            .flat_map(|config| {
                self.programs.iter().map(move |b| {
                    (
                        b,
                        DeadlockFuzzer::from_ref(b.program.clone(), config.clone()).run(),
                    )
                })
            })
            .collect();
        let wall = start.elapsed().as_secs_f64();
        let mut out = PassOut::new(wall);
        for (b, r) in &reports {
            let potential = r.potential_count();
            let confirmed = r.confirmed_count();
            let trials: u32 = r.confirmations.iter().map(|c| c.probability.trials).sum();
            out.work += f64::from(trials);
            out.check(
                expected.table1(b.name) == Some((potential, confirmed))
                    && !r.phase1.stats.truncated
                    && r.failed_count() == 0,
                format!("{}: {potential} potential / {confirmed} confirmed", b.name),
            );
            let verdicts: Vec<Verdict> = r
                .confirmations
                .iter()
                .map(|c| Verdict {
                    trials: c.probability.trials,
                    matched: c.probability.matched,
                    deadlocks: c.probability.deadlocks,
                    confirmed: c.confirmed,
                })
                .collect();
            digest_program(
                &mut out.digest,
                &r.program,
                &r.phase1.abstract_cycles,
                &verdicts,
            );
        }
        out
    }

    /// The same campaign decomposed into the public calls the pipeline
    /// makes, each wrapped in a span.
    pub fn traced_pass(&self, tracer: &Tracer, tally: &mut TracedTally) -> PassOut {
        let start = Instant::now();
        let mut digest = String::new();
        let mut trials = 0u32;
        for cfg in &self.configs {
            for b in &self.programs {
                let name = b.program.name().to_string();
                let (cycles, verdicts) = tracer.span("deadlock-fuzzer.program", None, |root| {
                    traced_program(cfg, b, tracer, root, tally)
                });
                trials += verdicts.iter().map(|v| v.trials).sum::<u32>();
                digest_program(&mut digest, &name, &cycles, &verdicts);
            }
        }
        let mut out = PassOut::new(start.elapsed().as_secs_f64());
        out.work = f64::from(trials);
        out.digest = digest;
        out
    }
}

fn traced_program(
    cfg: &Config,
    b: &Benchmark,
    tracer: &Tracer,
    root: SpanId,
    tally: &mut TracedTally,
) -> (Vec<AbstractCycle>, Vec<Verdict>) {
    let program = b.program.clone();
    let (cycles, feasibility) = tracer.span("deadlock-fuzzer.phase1", Some(root), |p1| {
        let seed = cfg.phase1_seed;
        let result = traced_run(
            cfg,
            tracer,
            p1,
            "df-runtime.record",
            Box::new(SimpleRandomChecker::with_seed(seed)),
            seed,
            tally,
            &program,
        );
        let relation = tracer.span("df-igoodlock.relation", Some(p1), |_| {
            LockDependencyRelation::from_trace(&result.trace)
        });
        tally.acquires += relation.raw_count as f64;
        tally.tuples += relation.len() as f64;
        let hb = cfg.hb_filter.then(|| {
            tracer.span("df-igoodlock.hb", Some(p1), |_| {
                HbFilter::from_trace(&result.trace)
            })
        });
        let (cycles, stats, _) = tracer.span("df-igoodlock.join", Some(p1), |_| {
            igoodlock_parallel(&relation, hb.as_ref(), &cfg.igoodlock, cfg.phase1_jobs)
        });
        tally.join(&stats);
        let abstractor = Abstractor::new(cfg.mode);
        let abstract_cycles: Vec<AbstractCycle> =
            tracer.span("df-abstraction.abstract", Some(p1), |_| {
                cycles
                    .iter()
                    .map(|c| c.abstract_with(result.trace.objects(), &abstractor))
                    .collect()
            });
        let feasibility = if cfg.feasibility {
            tracer.span("df-igoodlock.feasibility", Some(p1), |_| {
                FeasibilityAnalysis::new(&result.trace, &relation).score_cycles(&cycles)
            })
        } else {
            Vec::new()
        };
        (abstract_cycles, feasibility)
    });
    let verdicts = tracer.span("deadlock-fuzzer.confirm", Some(root), |c| {
        let mut run_trial = |cycle: &AbstractCycle, trial: u32| {
            traced_trial(cfg, tracer, c, &program, cycle, trial, tally)
        };
        if !cfg.adaptive_trials {
            return cycles
                .iter()
                .map(|cycle| {
                    let mut v = Verdict::default();
                    for i in 0..cfg.confirm_trials {
                        v.add(run_trial(cycle, i));
                    }
                    v
                })
                .collect();
        }
        let budgets: Vec<CycleBudget> = (0..cycles.len())
            .map(|i| match feasibility.get(i) {
                Some(f) => CycleBudget {
                    cycle_index: i,
                    score: f.score,
                    infeasible: f.verdict == FeasibilityVerdict::Infeasible,
                },
                None => CycleBudget {
                    cycle_index: i,
                    score: 0.5,
                    infeasible: false,
                },
            })
            .collect();
        let mut verdicts = vec![Verdict::default(); cycles.len()];
        let outcomes = allocate_trials(
            &budgets,
            cfg.confirm_trials,
            cfg.trial_budget,
            |slot, start, len| {
                let mut ran = 0;
                let mut matched = 0;
                for i in start..start + len {
                    let t = run_trial(&cycles[slot], i);
                    ran += 1;
                    verdicts[slot].add(t);
                    if t.matched {
                        matched += 1;
                        break;
                    }
                }
                BatchResult { ran, matched }
            },
        );
        tally.trials_saved += trials_saved(&outcomes, cfg.confirm_trials) as f64;
        tally.cycles_pruned += outcomes.iter().filter(|o| o.pruned_infeasible).count() as f64;
        verdicts
    });
    (cycles, verdicts)
}

/// One confirmation trial (with the pipeline's retry loop) under a
/// timed `ActiveStrategy`.
fn traced_trial(
    cfg: &Config,
    tracer: &Tracer,
    parent: SpanId,
    program: &deadlock_fuzzer::ProgramRef,
    cycle: &AbstractCycle,
    trial: u32,
    tally: &mut TracedTally,
) -> TrialVerdict {
    let base = cfg.phase2_seed_base + u64::from(trial);
    let mut attempt = 0u32;
    loop {
        let seed = base.wrapping_add(u64::from(attempt).wrapping_mul(RETRY_SEED_STRIDE));
        let active = ActiveConfig {
            cycle: cycle.clone(),
            mode: cfg.mode,
            seed,
            use_context: cfg.use_context,
            yield_optimization: cfg.yield_optimization,
            pause_budget: cfg.pause_budget,
            yield_budget: cfg.yield_budget,
            obs: cfg.obs().clone(),
        };
        let start = Instant::now();
        let result = traced_run(
            cfg,
            tracer,
            parent,
            "df-runtime.trial",
            Box::new(ActiveStrategy::new(active)),
            seed,
            tally,
            program,
        );
        tally.trial_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tally.pauses += result.stats.pauses as f64;
        tally.thrashes += result.stats.thrashes as f64;
        tally.yields += result.stats.yields as f64;
        if TrialOutcome::classify(&result.outcome).is_retryable() && attempt < cfg.trial_retries {
            tally.retries += 1.0;
            attempt += 1;
            continue;
        }
        let witness = result.outcome.deadlock();
        let matched = witness.is_some_and(|w| {
            let abstractor = Abstractor::new(cfg.mode);
            let objects = result.trace.objects();
            cycle.matches(&AbstractCycle::new(
                w.components
                    .iter()
                    .map(|c| AbstractComponent {
                        thread: abstractor.abs(objects, c.thread_obj),
                        lock: abstractor.abs(objects, c.waiting_for),
                        context: c.context.clone(),
                        mode: c.waiting_mode,
                    })
                    .collect(),
            ))
        });
        tally.trials += 1.0;
        if matched {
            tally.matched += 1.0;
        }
        return TrialVerdict {
            deadlocked: witness.is_some(),
            matched,
        };
    }
}

/// One execution of `program` under a timed `strategy`, as the
/// pipeline's `execute` sets it up.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    cfg: &Config,
    tracer: &Tracer,
    parent: SpanId,
    name: &'static str,
    strategy: Box<dyn Strategy>,
    seed: u64,
    tally: &mut TracedTally,
    program: &deadlock_fuzzer::ProgramRef,
) -> RunResult {
    let strategy_tally = Arc::new(StrategyTally::default());
    let mut run = cfg.run.clone().with_program_seed(seed);
    if run.deadline.is_none() {
        run.deadline = cfg.trial_deadline;
    }
    let program = Arc::clone(program);
    let timed = TimedStrategy::new(strategy, Arc::clone(&strategy_tally));
    let result = tracer.span_folded(name, Some(parent), |_| {
        let r = VirtualRuntime::new(run).run(Box::new(timed), move |ctx| program.run(ctx));
        (r, strategy_tally.folded())
    });
    tally.strategy(&strategy_tally);
    tally.steps += result.steps as f64;
    result
}

#[derive(Clone, Copy, Default)]
struct TrialVerdict {
    deadlocked: bool,
    matched: bool,
}

/// Per-cycle campaign verdict: what the consistency check compares.
#[derive(Clone, Copy, Default)]
struct Verdict {
    trials: u32,
    matched: u32,
    deadlocks: u32,
    confirmed: bool,
}

impl Verdict {
    fn add(&mut self, t: TrialVerdict) {
        self.trials += 1;
        self.matched += u32::from(t.matched);
        self.deadlocks += u32::from(t.deadlocked);
        self.confirmed |= t.matched;
    }
}

fn digest_program(out: &mut String, name: &str, cycles: &[AbstractCycle], verdicts: &[Verdict]) {
    let cycles = serde_json::to_string(cycles).expect("cycles serialize");
    let _ = writeln!(out, "{name} {cycles}");
    for (i, v) in verdicts.iter().enumerate() {
        let _ = writeln!(
            out,
            "  cycle {i}: trials {} matched {} deadlocks {} confirmed {}",
            v.trials, v.matched, v.deadlocks, v.confirmed
        );
    }
}
