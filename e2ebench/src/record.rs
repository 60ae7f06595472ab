//! `record-analyze`: `dfz record --stream --format binary` of a seeded
//! many-thread model into an in-memory spill, then `dfz analyze --hb`
//! over those bytes.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use deadlock_fuzzer::{Config, DeadlockFuzzer};
use df_abstraction::Abstractor;
use df_cli::{cmd_analyze, CliOptions};
use df_events::{site, AnySpillSink, SinkHandle, SpillConfig, TraceFormat};
use df_fuzzer::SimpleRandomChecker;
use df_igoodlock::{
    igoodlock_parallel, AbstractCycle, HbFilter, IGoodlockOptions, LockDependencyRelation,
};
use df_runtime::{Shared, TCtx, VirtualRuntime};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::trace::{StrategyTally, TimedSink, TimedStrategy, Tracer};
use crate::{derive_seed, Expected, PassOut, TracedTally};

/// Worker threads (the main thread makes one more).
pub const WORKERS: usize = 8;
/// Locks taken in one global order by the nested sections.
const ORDERED_LOCKS: usize = 24;
/// Distinct ordered (outer, inner) pairs each worker nests.
const PAIRS_PER_WORKER: usize = 42;
/// Nested sections per worker; each of its pairs gets an equal share.
const ROUNDS: usize = 1_000;
/// Lock-order inversions between two workers, ordered only by a
/// monitor hand-off (which happens-before ignores): each is one cycle
/// that survives `--hb`.
const INVERSIONS: usize = 6;
/// Inversions whose second half runs in the main thread after it joined
/// every worker: each is one cycle that `--hb` prunes.
const JOIN_ORDERED_INVERSIONS: usize = 3;
/// Seed of the pair sets. It is fixed so that every workload seed
/// yields nearly the same lock dependency relation, and so about the
/// same join work (the join's chain canonicalization depends on object
/// ids, so even relabeling locks or threads changes it by a fifth); the
/// workload seed orders each worker's rounds and places the inversions.
const SHAPE_SEED: u64 = 0x005E_ED0F_0DE5;

/// The seeded model: which pairs each worker nests and where the
/// inversions sit.
#[derive(Clone)]
pub struct Model {
    /// Per worker, the ordered (outer, inner) lock pair of each round.
    rounds: Vec<Vec<(usize, usize)>>,
    /// Per inversion: (first worker, its round, second worker).
    inversions: Vec<(usize, usize, usize)>,
    /// Per join-ordered inversion: the worker taking it first, its round.
    join_ordered: Vec<(usize, usize)>,
}

fn shuffle<T>(v: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

impl Model {
    pub fn new(seed: u64) -> Self {
        let mut shape = ChaCha8Rng::seed_from_u64(SHAPE_SEED);
        let pair_sets: Vec<Vec<(usize, usize)>> = (0..WORKERS)
            .map(|_| {
                let mut pairs = Vec::with_capacity(PAIRS_PER_WORKER);
                while pairs.len() < PAIRS_PER_WORKER {
                    let a = shape.gen_range(0..ORDERED_LOCKS - 1);
                    let p = (a, shape.gen_range(a + 1..ORDERED_LOCKS));
                    if !pairs.contains(&p) {
                        pairs.push(p);
                    }
                }
                pairs
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rounds = pair_sets
            .iter()
            .map(|pairs| {
                let mut r: Vec<(usize, usize)> =
                    (0..ROUNDS).map(|i| pairs[i % pairs.len()]).collect();
                shuffle(&mut r, &mut rng);
                r
            })
            .collect();
        let inversions = (0..INVERSIONS)
            .map(|_| {
                let first = rng.gen_range(0..WORKERS);
                let second = (first + rng.gen_range(1..WORKERS)) % WORKERS;
                (first, rng.gen_range(0..ROUNDS), second)
            })
            .collect();
        let join_ordered = (0..JOIN_ORDERED_INVERSIONS)
            .map(|_| (rng.gen_range(0..WORKERS), rng.gen_range(0..ROUNDS)))
            .collect();
        Model {
            rounds,
            inversions,
            join_ordered,
        }
    }

    /// The program. A worker that takes an inversion's first half does
    /// it mid-run and signals; the partner waits for the signal only
    /// after all its own rounds, so no wait ever precedes a signal a
    /// partner needs and the recording never deadlocks.
    fn run(&self, ctx: &TCtx) {
        let ordered: Vec<_> = (0..ORDERED_LOCKS).map(|_| ctx.new_lock(site!())).collect();
        let pair = || (ctx.new_lock(site!()), ctx.new_lock(site!()));
        let inv: Vec<_> = (0..INVERSIONS)
            .map(|_| (pair(), ctx.new_lock(site!()), Shared::new(false)))
            .collect();
        let joined: Vec<_> = (0..JOIN_ORDERED_INVERSIONS).map(|_| pair()).collect();
        let mut workers = Vec::with_capacity(WORKERS);
        for w in 0..WORKERS {
            let model = self.clone();
            let ordered = ordered.clone();
            let inv = inv.clone();
            let joined = joined.clone();
            workers.push(ctx.spawn(site!(), &format!("w{w}"), move |ctx| {
                for (r, &(a, b)) in model.rounds[w].iter().enumerate() {
                    {
                        let _ga = ctx.lock(&ordered[a], site!());
                        let _gb = ctx.lock(&ordered[b], site!());
                    }
                    for (k, &(first, round, _)) in model.inversions.iter().enumerate() {
                        if first == w && round == r {
                            let ((x, y), monitor, done) = &inv[k];
                            {
                                let _gx = ctx.lock(x, site!());
                                let _gy = ctx.lock(y, site!());
                            }
                            let _g = ctx.lock(monitor, site!());
                            done.with(|d| *d = true);
                            ctx.notify_all(monitor, site!());
                        }
                    }
                    for (k, &(first, round)) in model.join_ordered.iter().enumerate() {
                        if first == w && round == r {
                            let (x, y) = &joined[k];
                            let _gx = ctx.lock(x, site!());
                            let _gy = ctx.lock(y, site!());
                        }
                    }
                }
                for (k, &(_, _, second)) in model.inversions.iter().enumerate() {
                    if second == w {
                        let ((x, y), monitor, done) = &inv[k];
                        {
                            let _g = ctx.lock(monitor, site!());
                            while !done.get() {
                                ctx.wait(monitor, site!());
                            }
                        }
                        let _gy = ctx.lock(y, site!());
                        let _gx = ctx.lock(x, site!());
                    }
                }
            }));
        }
        for t in &workers {
            ctx.join(t, site!());
        }
        for (x, y) in &joined {
            let _gy = ctx.lock(y, site!());
            let _gx = ctx.lock(x, site!());
        }
    }
}

/// A `Write` into a shared in-memory buffer, so the spilled bytes can
/// be read back after the sink is sealed.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().expect("spill buffer"))
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("spill buffer").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub struct RecordAnalyze {
    fuzzer: DeadlockFuzzer,
    model: Arc<Model>,
    config: Config,
    opts: CliOptions,
}

impl RecordAnalyze {
    /// Builds the model and the fuzzer for `seed`, then warms up with
    /// one record + analyze.
    pub fn setup(seed: u64) -> Self {
        let model = Arc::new(Model::new(derive_seed(seed, 3)));
        let config = Config::default().with_phase1_seed(derive_seed(seed, 1));
        let m = Arc::clone(&model);
        let fuzzer = DeadlockFuzzer::with_config(move |ctx: &TCtx| m.run(ctx), config.clone());
        let opts = CliOptions {
            hb: true,
            json: true,
            jobs: 1,
            spill: SpillConfig::with_format(TraceFormat::Binary),
            ..CliOptions::default()
        };
        let w = RecordAnalyze {
            fuzzer,
            model,
            config,
            opts,
        };
        // Warm-up: one record + analyze, untimed and unchecked.
        let (bytes, _) = w.record();
        std::hint::black_box(cmd_analyze(&bytes, "warm-up", &w.opts).is_ok());
        w
    }

    /// `dfz record --stream --format binary`: the spilled bytes and the
    /// event count.
    fn record(&self) -> (Vec<u8>, u64) {
        let buf = SharedBuf::default();
        let sink = Arc::new(Mutex::new(
            AnySpillSink::new(buf.clone(), &self.opts.spill).expect("in-memory spill"),
        ));
        self.fuzzer.observe(SinkHandle::single(sink.clone()), false);
        let (events, _) = sink
            .lock()
            .expect("spill sink")
            .close()
            .expect("seal spill");
        (buf.take(), events)
    }

    /// One untraced record + analyze. Work items are trace events.
    pub fn pass(&self, expected: &Expected) -> PassOut {
        let (want, _) = expected.record();
        let start = Instant::now();
        let (bytes, events) = self.record();
        let analysis = cmd_analyze(&bytes, "record-analyze", &self.opts);
        let mut out = PassOut::new(start.elapsed().as_secs_f64());
        out.work = events as f64;
        let cycles = analysis
            .ok()
            .and_then(|o| serde_json::from_str::<Vec<AbstractCycle>>(&o.text).ok());
        let found = cycles.as_ref().map(Vec::len);
        out.check(
            found == Some(want),
            format!("record-analyze: {found:?} cycles with --hb, expected {want}"),
        );
        out.digest = serde_json::to_string(&cycles).expect("cycles serialize");
        out.bytes = bytes;
        out
    }

    /// The join's statistics for a spilled trace: run outside any
    /// timing to check that the analysis was not truncated and that
    /// happens-before pruned exactly the join-ordered inversions.
    pub fn check_join(&self, expected: &Expected, bytes: &[u8], out: &mut PassOut) {
        let (with_hb_want, without_hb_want) = expected.record();
        let trace = df_events::read_trace_bytes(bytes).expect("spill decodes");
        let relation = LockDependencyRelation::from_trace(&trace);
        let hb = HbFilter::from_trace(&trace);
        let options = IGoodlockOptions::default();
        let (pruned, with_hb, _) = igoodlock_parallel(&relation, Some(&hb), &options, 1);
        let (all, without_hb, _) = igoodlock_parallel(&relation, None, &options, 1);
        out.check(
            !with_hb.truncated && !without_hb.truncated,
            "record-analyze: join truncated".to_string(),
        );
        out.check(
            pruned.len() == with_hb_want && all.len() == without_hb_want,
            format!(
                "record-analyze: {} / {} cycles with / without --hb, expected {with_hb_want} / {without_hb_want}",
                pruned.len(),
                all.len(),
            ),
        );
    }

    /// The same record + analyze decomposed into spans: the runtime run
    /// under a timed random checker with a timed spill sink, then decode,
    /// relation, happens-before, join and abstraction.
    pub fn traced_pass(&self, tracer: &Tracer, tally: &mut TracedTally) -> PassOut {
        let start = Instant::now();
        let seed = self.config.phase1_seed;
        let buf = SharedBuf::default();
        let sink = Arc::new(Mutex::new(TimedSink::new(
            AnySpillSink::new(buf.clone(), &self.opts.spill).expect("in-memory spill"),
            true,
        )));
        let strategy_tally = Arc::new(StrategyTally::default());
        let record_start = Instant::now();
        let (events, bytes_len) = tracer.span_folded("df-runtime.record", None, |_| {
            let mut run = self
                .config
                .run
                .clone()
                .with_program_seed(seed)
                .with_record_trace(false)
                .with_event_sink(SinkHandle::single(sink.clone()));
            if run.deadline.is_none() {
                run.deadline = self.config.trial_deadline;
            }
            let model = Arc::clone(&self.model);
            let timed = TimedStrategy::new(
                Box::new(SimpleRandomChecker::with_seed(seed)),
                Arc::clone(&strategy_tally),
            );
            let result = VirtualRuntime::new(run).run(Box::new(timed), move |ctx| model.run(ctx));
            tally.steps += result.steps as f64;
            let mut guard = sink.lock().expect("spill sink");
            let seal = Instant::now();
            let (events, bytes) = guard.inner.close().expect("seal spill");
            let encode_ns = guard.ns + crate::trace::elapsed_ns(seal);
            tally.backpressure_waits += guard.inner.backpressure_waits() as f64;
            let mut folded = strategy_tally.folded();
            folded.push(("df-events.encode", encode_ns));
            ((events, bytes), folded)
        });
        tally
            .trial_ms
            .push(record_start.elapsed().as_secs_f64() * 1e3);
        tally.strategy(&strategy_tally);
        tally.events += events as f64;
        tally.spill_bytes += bytes_len as f64;
        let bytes = buf.take();
        let cycles = tracer.span("df-cli.analyze", None, |a| {
            let trace = tracer.span("df-events.decode", Some(a), |_| {
                df_events::read_trace_bytes(&bytes).expect("spill decodes")
            });
            let relation = tracer.span("df-igoodlock.relation", Some(a), |_| {
                LockDependencyRelation::from_trace(&trace)
            });
            tally.acquires += relation.raw_count as f64;
            tally.tuples += relation.len() as f64;
            let hb = tracer.span("df-igoodlock.hb", Some(a), |_| HbFilter::from_trace(&trace));
            let (cycles, stats, _) = tracer.span("df-igoodlock.join", Some(a), |_| {
                igoodlock_parallel(&relation, Some(&hb), &IGoodlockOptions::default(), 1)
            });
            tally.join(&stats);
            let abstractor = Abstractor::new(self.config.mode);
            let cycles = tracer.span("df-abstraction.abstract", Some(a), |_| {
                cycles
                    .iter()
                    .map(|c| c.abstract_with(trace.objects(), &abstractor))
                    .collect::<Vec<AbstractCycle>>()
            });
            // `dfz analyze --json` prints the cycles; that formatting is
            // the CLI layer's own work.
            std::hint::black_box(serde_json::to_string_pretty(&cycles).expect("cycles serialize"));
            cycles
        });
        let mut out = PassOut::new(start.elapsed().as_secs_f64());
        out.work = events as f64;
        out.digest = serde_json::to_string(&Some(cycles)).expect("cycles serialize");
        out
    }
}
