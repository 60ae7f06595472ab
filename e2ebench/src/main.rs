//! End-to-end and per-layer benchmark of the deadlock-fuzzer workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `e2ebench/README.md` for why each exists):
//! `table1-uniform`, `table1-adaptive`, `record-analyze`, `native-locks`.
//!
//! With `--trace 0` the run sets the workload up several times (the
//! median is `setup_s`), then repeats untraced passes for `--seconds`
//! and reports the end-to-end metrics, with stolen CPU time removed and
//! scaled to a nominal machine speed. With `--trace 1` it alternates
//! untraced passes with traced ones (the same work decomposed into the
//! public calls of each layer, wrapped in spans), checks that both give
//! byte-identical answers, writes the spans to
//! `e2ebench/out/spans-<workload>-<seed>.jsonl` and reports the
//! per-layer metrics. Every answer is checked against `expected.txt`;
//! the last line of standard output is one JSON object, and the exit
//! code is 1 when any check failed.

mod locks;
mod record;
mod stats;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use df_fuzzer::SimpleRandomChecker;
use df_igoodlock::IGoodlockStats;
use df_runtime::{RunConfig, VirtualRuntime};

use crate::stats::{median, quantile, quartiles, sorted, tail_percentile};
use crate::trace::{layer_self_ns, total_ns, StrategyTally, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest passes a run measures, however long they take.
const MIN_PASSES: usize = 3;
/// Traced runs fail when the layer spans cover less of the traced wall
/// time than this.
const MIN_ACCOUNTED_SHARE: f64 = 0.95;
/// Empty-program runs behind `df-runtime.run_overhead_us`.
const OVERHEAD_PROBE_RUNS: usize = 40;
/// Iterations of the reference kernel (see [`reference_s`]).
const REFERENCE_ITERS: u64 = 2_000_000;
/// Reference probes before every set-up and every pass.
const REFERENCE_PROBES: usize = 3;
/// The reference kernel's time on the nominal machine that end-to-end
/// times are scaled to.
const REFERENCE_NOMINAL_S: f64 = 0.004;

/// SplitMix64 of `seed` mixed with `salt`: the benchmark derives every
/// seed it hands the program (Phase I, Phase II base, model shape, op
/// sequences) from the workload seed this way.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hand-written expected answers (`expected.txt`).
pub struct Expected {
    /// (key, numbers, name) per line.
    lines: Vec<(String, Vec<usize>, String)>,
}

impl Expected {
    fn load() -> Self {
        let lines = include_str!("../expected.txt")
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| {
                let mut words = l.split_whitespace();
                let key = words.next().expect("key").to_string();
                let rest: Vec<&str> = words.collect();
                let n = rest
                    .iter()
                    .take_while(|w| w.parse::<usize>().is_ok())
                    .count();
                let numbers = rest[..n]
                    .iter()
                    .map(|w| w.parse().expect("number"))
                    .collect();
                (key, numbers, rest[n..].join(" "))
            })
            .collect();
        Expected { lines }
    }

    fn find(&self, key: &str, name: &str) -> Option<&[usize]> {
        self.lines
            .iter()
            .find(|(k, _, n)| k == key && n == name)
            .map(|(_, v, _)| v.as_slice())
    }

    /// (potential, confirmed) cycles of a Table 1 model.
    pub fn table1(&self, program: &str) -> Option<(usize, usize)> {
        let v = self.find("table1", program)?;
        Some((v[0], v[1]))
    }

    /// Cycles of the `record-analyze` model with and without `--hb`.
    pub fn record(&self) -> (usize, usize) {
        let v = self
            .find("record-analyze", "")
            .expect("expected.txt: record-analyze");
        (v[0], v[1])
    }
}

/// What one pass did and whether its answers were right.
#[derive(Default)]
pub struct PassOut {
    pub wall: f64,
    /// Work items completed (trials, trace events or lock acquisitions).
    pub work: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The answers in a canonical form, for the traced/untraced
    /// comparison.
    pub digest: String,
    /// The spilled trace, when the pass produced one.
    pub bytes: Vec<u8>,
}

impl PassOut {
    pub fn new(wall: f64) -> Self {
        PassOut {
            wall,
            ..PassOut::default()
        }
    }

    /// Counts one checked answer; a wrong one is a failed operation.
    pub fn check(&mut self, ok: bool, what: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what);
        }
    }
}

/// Counts the traced passes gather at the layer boundaries.
#[derive(Default)]
pub struct TracedTally {
    pub steps: f64,
    pub trial_ms: Vec<f64>,
    pub pick_calls: f64,
    pub pauses: f64,
    pub thrashes: f64,
    pub yields: f64,
    pub trials: f64,
    pub matched: f64,
    pub retries: f64,
    pub trials_saved: f64,
    pub cycles_pruned: f64,
    pub acquires: f64,
    pub tuples: f64,
    pub chains_built: f64,
    pub candidates: f64,
    pub peak_open_chains: f64,
    pub pruned_by_hb: f64,
    pub events: f64,
    pub spill_bytes: f64,
    pub backpressure_waits: f64,
    pub lock_ops: f64,
    pub wfg_edges: f64,
    pub acquire_ns: Vec<f64>,
}

impl TracedTally {
    pub fn strategy(&mut self, t: &StrategyTally) {
        self.pick_calls += t.pick_calls.load(Ordering::Relaxed) as f64;
    }

    pub fn join(&mut self, stats: &IGoodlockStats) {
        self.chains_built += stats.chains_built as f64;
        self.candidates += stats.join_candidates_examined as f64;
        self.peak_open_chains = self.peak_open_chains.max(stats.peak_open_chains as f64);
        self.pruned_by_hb += stats.pruned_by_hb as f64;
    }
}

enum Workload {
    Table1(table1::Table1),
    Record(Box<record::RecordAnalyze>),
    Locks(locks::NativeLocks),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "table1-uniform" => Workload::Table1(table1::Table1::setup(seed, false)),
            "table1-adaptive" => Workload::Table1(table1::Table1::setup(seed, true)),
            "record-analyze" => Workload::Record(Box::new(record::RecordAnalyze::setup(seed))),
            "native-locks" => Workload::Locks(locks::NativeLocks::setup(seed)),
            _ => return None,
        })
    }

    fn pass(&self, expected: &Expected) -> PassOut {
        match self {
            Workload::Table1(w) => w.pass(expected),
            Workload::Record(w) => w.pass(expected),
            Workload::Locks(w) => w.pass(),
        }
    }

    fn traced_pass(&self, tracer: &Arc<Tracer>, tally: &mut TracedTally) -> PassOut {
        match self {
            Workload::Table1(w) => w.traced_pass(tracer, tally),
            Workload::Record(w) => w.traced_pass(tracer, tally),
            Workload::Locks(w) => w.traced_pass(tracer, tally),
        }
    }

    /// Checks made once per run, outside any timing.
    fn check_once(&self, expected: &Expected, first: &PassOut, out: &mut PassOut) {
        if let Workload::Record(w) = self {
            w.check_join(expected, &first.bytes, out);
        }
    }

    /// Virtual threads one execution of the workload runs (the main
    /// thread included).
    fn thread_count(&self) -> usize {
        match self {
            Workload::Table1(w) => w.thread_count(),
            Workload::Record(_) => record::WORKERS + 1,
            Workload::Locks(_) => locks::THREADS + 1,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 120"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Wall time of a fixed single-threaded kernel (xorshift updates into a
/// 512 KiB table) that uses none of the repository's code: a probe of how
/// fast the machine's cores run right now. On the shared virtual machine
/// this benchmark was built on, their speed moved by up to 1.5x over
/// minutes without any stolen time to show for it, and the workloads
/// moved with the kernel. A run takes the median of its probes.
fn reference_s() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut table = vec![0u64; 1 << 16];
    for i in 0..REFERENCE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let from = (i as usize) & 0xffff;
        table[(x as usize) & 0xffff] = table[from].wrapping_add(x);
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64()
}

/// The machine's stolen and total CPU time so far, in ticks, from the
/// first line of `/proc/stat`; `None` where it is unavailable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Runs `f` and returns its result with its wall time minus the share
/// the hypervisor stole from the machine's CPUs meanwhile: on a virtual
/// machine the program makes no progress while its CPUs are stolen.
/// `wall` extracts the wall time `f` measured itself.
fn unstolen<R>(f: impl FnOnce() -> R, wall: impl Fn(&R) -> f64) -> (R, f64) {
    let before = cpu_ticks();
    let result = f();
    let stolen = match (before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let w = wall(&result);
    (result, w * (1.0 - stolen))
}

/// Median wall time of an empty program with `threads` virtual threads
/// through `VirtualRuntime::run`, in µs: the per-run spawn and teardown
/// cost, apart from any per-step handoff.
fn run_overhead_us(threads: usize) -> f64 {
    let times: Vec<f64> = (0..OVERHEAD_PROBE_RUNS)
        .map(|i| {
            let start = Instant::now();
            VirtualRuntime::new(RunConfig::default()).run(
                Box::new(SimpleRandomChecker::with_seed(i as u64)),
                move |ctx| {
                    let children: Vec<_> = (1..threads)
                        .map(|t| ctx.spawn(df_events::site!(), &format!("t{t}"), |_| {}))
                        .collect();
                    for c in &children {
                        ctx.join(c, df_events::site!());
                    }
                },
            );
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

fn metric(
    out: &mut BTreeMap<String, (f64, &'static str)>,
    name: &str,
    value: f64,
    unit: &'static str,
) {
    out.insert(name.to_string(), (value, unit));
}

/// The result line. Values print with every digit Rust's shortest
/// round-trip formatting gives; a non-finite value prints as `null`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    m: &BTreeMap<String, (f64, &str)>,
) -> String {
    let metrics: Vec<String> = m
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let expected = Expected::load();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut reference = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        reference.extend((0..REFERENCE_PROBES).map(|_| reference_s()));
        let ((w, _), t) = unstolen(
            || {
                let start = Instant::now();
                (
                    Workload::setup(&args.workload, args.seed),
                    start.elapsed().as_secs_f64(),
                )
            },
            |r| r.1,
        );
        workload = w;
        setup_s.push(t);
    }
    let Some(workload) = workload else {
        eprintln!("e2ebench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };

    let mut total = PassOut::default();
    let mut metrics = BTreeMap::new();
    let start = Instant::now();
    let mut first: Option<PassOut> = None;
    let mut walls = Vec::new();
    let mut times = Vec::new();
    let mut work = 0.0;
    let absorb = |total: &mut PassOut, p: &PassOut| {
        total.attempted += p.attempted;
        total.failed += p.failed;
        total.failures.extend(p.failures.iter().cloned());
    };
    if !args.trace {
        while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
            reference.extend((0..REFERENCE_PROBES).map(|_| reference_s()));
            let (p, t) = unstolen(|| workload.pass(&expected), |p| p.wall);
            absorb(&mut total, &p);
            walls.push(p.wall);
            times.push(t);
            work += p.work;
            first.get_or_insert(p);
        }
        let (q1, q3) = quartiles(&walls);
        let s = sorted(&walls);
        let tail = tail_percentile(s.len(), &[99, 90, 50])
            .map_or("none with 10 samples beyond".to_string(), |p| {
                format!("p{p} {:.4}", quantile(&s, f64::from(p) / 100.0))
            });
        eprintln!(
            "measured: pass_s over {} passes: median {:.4}, quartiles {q1:.4}..{q3:.4}, {tail}; \
             work_per_s {:.1}",
            walls.len(),
            median(&walls),
            work / walls.iter().sum::<f64>(),
        );
        let scale = REFERENCE_NOMINAL_S / median(&reference);
        eprintln!(
            "unstolen: pass_s median {:.4}, setup_s median {:.4}; \
             reference {:.5} s (median of {}), times scaled by {scale:.4}",
            median(&times),
            median(&setup_s),
            median(&reference),
            reference.len()
        );
        metric(&mut metrics, "setup_s", median(&setup_s) * scale, "s");
        metric(&mut metrics, "pass_s", median(&times) * scale, "s");
        metric(
            &mut metrics,
            "work_per_s",
            work / times.iter().sum::<f64>() / scale,
            "1/s",
        );
        metric(&mut metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        let tracer = Arc::new(Tracer::new());
        let mut tally = TracedTally::default();
        let mut traced_walls = Vec::new();
        let mut pass = 0u32;
        while traced_walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
            let p = workload.pass(&expected);
            tracer.set_pass(pass);
            let t = workload.traced_pass(&tracer, &mut tally);
            pass += 1;
            absorb(&mut total, &p);
            total.check(
                p.digest == t.digest,
                format!("traced pass {pass} disagrees with the untraced one"),
            );
            walls.push(p.wall);
            traced_walls.push(t.wall);
            first.get_or_insert(p);
        }
        let spans = tracer.spans();
        let dir = std::path::Path::new("e2ebench/out");
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_spans(&path, &spans) {
            eprintln!("e2ebench: writing {}: {e}", path.display());
        }
        let traced_total: f64 = traced_walls.iter().sum();
        let accounted = trace::root_cover_ns(&spans) as f64 / 1e9 / traced_total;
        total.check(
            accounted >= MIN_ACCOUNTED_SHARE,
            format!("layer spans cover {accounted:.3} of the traced wall time"),
        );
        let per_layer = layer_self_ns(&spans);
        print_layer_split(&format!("all {pass} traced passes"), &per_layer);
        for (root, group) in trace::by_root(&spans) {
            print_layer_split(&format!("under {root}"), &layer_self_ns(&group));
        }
        layer_metrics(
            &mut metrics,
            &spans,
            &per_layer,
            &tally,
            f64::from(pass),
            run_overhead_us(workload.thread_count()),
        );
        metric(
            &mut metrics,
            "df-obs.trace_overhead_share",
            median(&traced_walls) / median(&walls) - 1.0,
            "ratio",
        );
        metric(&mut metrics, "df-obs.accounted_share", accounted, "ratio");
    }
    if let Some(p) = &first {
        workload.check_once(&expected, p, &mut total);
    }
    for f in &total.failures {
        eprintln!("e2ebench: wrong answer: {f}");
    }
    let correct = total.failed == 0;
    println!(
        "{}",
        result_json(correct, total.attempted, total.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints each layer's self time and share to standard error.
fn print_layer_split(title: &str, per_layer: &BTreeMap<String, u64>) {
    eprintln!("layer self time, {title}:");
    let total: u64 = per_layer.values().sum();
    for (layer, ns) in per_layer {
        eprintln!(
            "  {layer:<16} {:>10.1} ms  {:>5.1}%",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
}

/// The per-layer metrics of a traced run, per traced pass unless named
/// otherwise.
fn layer_metrics(
    m: &mut BTreeMap<String, (f64, &'static str)>,
    spans: &[trace::Span],
    per_layer: &BTreeMap<String, u64>,
    t: &TracedTally,
    passes: f64,
    run_overhead_us: f64,
) {
    let ms = |ns: u64| ns as f64 / 1e6 / passes;
    let self_ms = |layer: &str| ms(per_layer.get(layer).copied().unwrap_or(0));
    let span_ms = |name: &str| ms(total_ns(spans, name));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let tail = |samples: &[f64]| {
        let s = sorted(samples);
        let p = tail_percentile(s.len(), &[99, 90, 50]);
        let at = |q: f64| if s.is_empty() { 0.0 } else { quantile(&s, q) };
        (
            at(0.5),
            p.map_or(0.0, |p| at(f64::from(p) / 100.0)),
            p.unwrap_or(0),
        )
    };
    let runtime_ns = per_layer.get("df-runtime").copied().unwrap_or(0) as f64;
    let (trial_p50, trial_tail, trial_pct) = tail(&t.trial_ms);
    let (acq_p50, acq_tail, acq_pct) = tail(&t.acquire_ns);
    let rows: Vec<(&str, f64, &'static str)> = vec![
        ("df-runtime.steps", t.steps / passes, "count"),
        ("df-runtime.step_us", ratio(runtime_ns / 1e3, t.steps), "us"),
        ("df-runtime.self_ms", self_ms("df-runtime"), "ms"),
        ("df-runtime.trial_ms.p50", trial_p50, "ms"),
        ("df-runtime.trial_ms.p99", trial_tail, "ms"),
        ("df-runtime.trial_ms.tail_pct", f64::from(trial_pct), "pct"),
        ("df-runtime.run_overhead_us", run_overhead_us, "us"),
        ("df-fuzzer.pick_calls", t.pick_calls / passes, "count"),
        ("df-fuzzer.pick_self_ms", span_ms("df-fuzzer.pick"), "ms"),
        (
            "df-fuzzer.on_event_self_ms",
            span_ms("df-fuzzer.on_event"),
            "ms",
        ),
        ("df-fuzzer.pauses", t.pauses / passes, "count"),
        ("df-fuzzer.thrashes", t.thrashes / passes, "count"),
        ("df-fuzzer.yields", t.yields / passes, "count"),
        ("df-fuzzer.match_rate", ratio(t.matched, t.trials), "ratio"),
        (
            "deadlock-fuzzer.phase1_ms",
            span_ms("deadlock-fuzzer.phase1"),
            "ms",
        ),
        (
            "deadlock-fuzzer.confirm_ms",
            span_ms("deadlock-fuzzer.confirm"),
            "ms",
        ),
        ("deadlock-fuzzer.self_ms", self_ms("deadlock-fuzzer"), "ms"),
        ("deadlock-fuzzer.trials_run", t.trials / passes, "count"),
        (
            "deadlock-fuzzer.trials_saved",
            t.trials_saved / passes,
            "count",
        ),
        (
            "deadlock-fuzzer.cycles_pruned",
            t.cycles_pruned / passes,
            "count",
        ),
        ("deadlock-fuzzer.retries", t.retries / passes, "count"),
        (
            "df-igoodlock.relation_ms",
            span_ms("df-igoodlock.relation"),
            "ms",
        ),
        (
            "df-igoodlock.dedup_ratio",
            ratio(t.tuples, t.acquires),
            "ratio",
        ),
        ("df-igoodlock.join_ms", span_ms("df-igoodlock.join"), "ms"),
        (
            "df-igoodlock.chains_built",
            t.chains_built / passes,
            "count",
        ),
        (
            "df-igoodlock.candidates_examined",
            t.candidates / passes,
            "count",
        ),
        ("df-igoodlock.peak_open_chains", t.peak_open_chains, "count"),
        ("df-igoodlock.hb_ms", span_ms("df-igoodlock.hb"), "ms"),
        (
            "df-igoodlock.pruned_by_hb",
            t.pruned_by_hb / passes,
            "count",
        ),
        (
            "df-igoodlock.feasibility_ms",
            span_ms("df-igoodlock.feasibility"),
            "ms",
        ),
        ("df-igoodlock.self_ms", self_ms("df-igoodlock"), "ms"),
        ("df-abstraction.ms", self_ms("df-abstraction"), "ms"),
        ("df-events.encode_ms", span_ms("df-events.encode"), "ms"),
        ("df-events.decode_ms", span_ms("df-events.decode"), "ms"),
        ("df-events.self_ms", self_ms("df-events"), "ms"),
        (
            "df-events.spill_backpressure_waits",
            t.backpressure_waits / passes,
            "count",
        ),
        (
            "df-events.bytes_per_event",
            ratio(t.spill_bytes, t.events),
            "B",
        ),
        ("df-lock.acquire_ns.p50", acq_p50, "ns"),
        ("df-lock.acquire_ns.p99", acq_tail, "ns"),
        ("df-lock.acquire_ns.tail_pct", f64::from(acq_pct), "pct"),
        (
            "df-lock.contended_share",
            ratio(t.wfg_edges, 2.0 * t.lock_ops),
            "ratio",
        ),
        ("df-lock.wfg_edges", t.wfg_edges / passes, "count"),
        ("df-lock.self_ms", self_ms("df-lock"), "ms"),
        ("df-cli.self_ms", self_ms("df-cli"), "ms"),
    ];
    for (name, value, unit) in rows {
        metric(m, name, value, unit);
    }
}
