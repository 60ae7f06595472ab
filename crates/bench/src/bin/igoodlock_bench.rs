//! `igoodlock_bench` — measures Phase I's cycle computation in isolation
//! (the naive join, the indexed join, and the DFS lock-graph baseline on
//! the same relations), Phase I's two observation paths (offline trace
//! recording vs the streaming relation builder), and trace I/O
//! throughput (JSONL v1 vs binary v2, offline vs ring-streamed), with
//! output parity cross-checked per row.
//!
//! ```text
//! cargo run --release -p df-bench --bin igoodlock_bench
//! cargo run --release -p df-bench --bin igoodlock_bench -- \
//!     --sizes 4,8,12,16 --pairs 48 --noise 4096 --reps 3 --jobs 1,2,4 \
//!     --min-parallel-speedup 2.5 --trace-events 1000000 \
//!     --precision-trials 20 --out BENCH_igoodlock.json
//! ```
//!
//! The `join_parallel` sweep runs the sharded parallel join at every
//! `--jobs` value over the rings, the standard synthetic relation, and a
//! scaled synthetic relation (`2x` pairs, `4x` noise), asserting
//! byte-identical cycle reports and identical join stats against the
//! sequential indexed join. `--min-parallel-speedup` additionally gates
//! the scaled workload's speedup at the largest jobs value — skipped
//! (with a note) on hosts with fewer hardware threads than jobs, where
//! no real speedup is physically possible.
//!
//! The `precision` envelope runs every Table 1 benchmark twice — a
//! uniform Phase II campaign and the feasibility-seeded adaptive one —
//! and gates two contracts: no `Infeasible`-scored cycle is ever
//! confirmed by a trial (soundness), and both campaigns confirm the same
//! cycle set (parity). `--precision-trials` sets the per-cycle ceiling.
//!
//! Exits non-zero if any implementation pair disagrees on cycles,
//! `chains_built`, or the streamed relation, or if a precision contract
//! is broken — a correctness failure, which CI's perf-smoke step turns
//! into a red build. It also exits non-zero if a join row's indexed join
//! falls below the naive join's wall-clock speedup floor; that timing
//! gate lives here, not in the library's unit tests.

use df_bench::{
    check_row_speedups, igoodlock_bench, join_parallel_bench, precision_bench, streaming_bench,
    trace_io_bench_rows, IGoodlockBenchRow, JoinParallelRow, PrecisionRow, StreamingBenchRow,
    TraceIoBenchRow,
};
use serde::Serialize;

/// The envelope written to `BENCH_igoodlock.json`: the join comparison,
/// the parallel-join jobs sweep, the streaming memory/throughput
/// comparison, the trace I/O throughput comparison, and the precision
/// envelope (predicted-vs-confirmed rates per Table 1 benchmark) — one
/// file so CI uploads a single artifact.
#[derive(Serialize)]
struct BenchArtifact {
    join: Vec<IGoodlockBenchRow>,
    join_parallel: Vec<JoinParallelRow>,
    streaming: Vec<StreamingBenchRow>,
    trace_io: Vec<TraceIoBenchRow>,
    precision: Vec<PrecisionRow>,
}

struct Args {
    sizes: Vec<u32>,
    pairs: u32,
    noise: u32,
    reps: u32,
    jobs: Vec<usize>,
    min_parallel_speedup: f64,
    trace_events: u64,
    precision_trials: u32,
    out: String,
}

fn parse_args() -> Args {
    let mut sizes = vec![4u32, 8, 12, 16];
    let mut pairs = 48u32;
    let mut noise = 4096u32;
    let mut reps = 3u32;
    let mut jobs = vec![1usize, 2, 4];
    let mut min_parallel_speedup = 0.0f64;
    let mut trace_events = 1_000_000u64;
    let mut precision_trials = 20u32;
    let mut out = String::from("BENCH_igoodlock.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sizes" => {
                sizes = args
                    .next()
                    .map(|v| {
                        v.split(',')
                            .map(|s| s.trim().parse().expect("--sizes needs numbers"))
                            .collect()
                    })
                    .expect("--sizes needs a comma-separated list");
            }
            "--pairs" => {
                pairs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--pairs needs a number");
            }
            "--noise" => {
                noise = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--noise needs a number");
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number");
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .map(|v| {
                        v.split(',')
                            .map(|s| s.trim().parse().expect("--jobs needs numbers"))
                            .collect()
                    })
                    .expect("--jobs needs a comma-separated list");
            }
            "--min-parallel-speedup" => {
                min_parallel_speedup = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--min-parallel-speedup needs a number");
            }
            "--trace-events" => {
                trace_events = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--trace-events needs a number");
            }
            "--precision-trials" => {
                precision_trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--precision-trials needs a number");
            }
            "--out" => {
                out = args.next().expect("--out needs a path");
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    Args {
        sizes,
        pairs,
        noise,
        reps,
        jobs,
        min_parallel_speedup,
        trace_events,
        precision_trials,
        out,
    }
}

fn print_rows(rows: &[IGoodlockBenchRow]) {
    println!("== Phase I cycle computation: naive vs indexed vs DFS vs parallel ==");
    println!(
        "{:<22} {:>6} {:>7} | {:>10} {:>10} {:>10} {:>10} {:>8} | {:>12} {:>14} {:>14}",
        "workload",
        "|D|",
        "cycles",
        "naive(ms)",
        "index(ms)",
        "dfs(ms)",
        "par4(ms)",
        "speedup",
        "chains",
        "naive cand.",
        "index cand."
    );
    for r in rows {
        println!(
            "{:<22} {:>6} {:>7} | {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>7.1}x | {:>12} {:>14} {:>14}",
            r.workload,
            r.relation_size,
            r.cycles,
            r.naive_ms,
            r.indexed_ms,
            r.dfs_ms,
            r.parallel_ms,
            r.speedup,
            r.chains_built,
            r.naive_candidates_examined,
            r.indexed_candidates_examined,
        );
    }
    println!(
        "(per row: identical cycles and chains_built across naive/indexed/parallel, \
         identical cycle set from the DFS baseline; times are best of reps)"
    );
}

fn print_parallel_rows(rows: &[JoinParallelRow]) {
    println!();
    println!("== Phase I parallel join: sharded frontier vs sequential indexed ==");
    println!(
        "{:<22} {:>6} {:>5} {:>7} | {:>10} {:>10} {:>8} | {:>12} {:>14} {:>8} {:>8}",
        "workload",
        "|D|",
        "jobs",
        "cycles",
        "index(ms)",
        "par(ms)",
        "speedup",
        "chains",
        "candidates",
        "tasks",
        "waits"
    );
    for r in rows {
        println!(
            "{:<22} {:>6} {:>5} {:>7} | {:>10.3} {:>10.3} {:>7.2}x | {:>12} {:>14} {:>8} {:>8}",
            r.workload,
            r.relation_size,
            r.jobs,
            r.cycles,
            r.indexed_ms,
            r.parallel_ms,
            r.speedup,
            r.chains_built,
            r.candidates_examined,
            r.tasks_executed,
            r.steal_waits,
        );
    }
    println!(
        "(per row: byte-identical cycle report and identical chains_built / \
         candidates_examined vs the sequential indexed join; naive oracle \
         cross-checked once per workload; times are best of reps)"
    );
}

fn print_streaming_rows(rows: &[StreamingBenchRow]) {
    println!();
    println!("== Phase I observation: offline recording vs streaming builder ==");
    println!(
        "{:<22} {:>8} {:>6} | {:>11} {:>11} | {:>14} {:>14}",
        "workload", "events", "|D|", "offline(ms)", "stream(ms)", "offline peak B", "stream peak B"
    );
    for r in rows {
        println!(
            "{:<22} {:>8} {:>6} | {:>11.3} {:>11.3} | {:>14} {:>14}",
            r.workload,
            r.events,
            r.relation_size,
            r.offline_ms,
            r.streamed_ms,
            r.offline_peak_trace_bytes,
            r.streamed_peak_trace_bytes,
        );
    }
    println!(
        "(per row: byte-identical relation across the two paths; the \
         streaming path's trace peak is asserted to be zero)"
    );
}

fn print_trace_io_rows(rows: &[TraceIoBenchRow]) {
    println!();
    println!("== Trace I/O: JSONL v1 vs binary v2, offline vs ring-streamed ==");
    println!(
        "{:<20} {:<16} {:>10} | {:>10} {:>14} | {:>12} {:>8}",
        "workload", "mode", "events", "wall(ms)", "events/sec", "bytes", "B/event"
    );
    for r in rows {
        println!(
            "{:<20} {:<16} {:>10} | {:>10.3} {:>14.0} | {:>12} {:>8.2}",
            r.workload, r.mode, r.events, r.wall_ms, r.events_per_sec, r.bytes, r.bytes_per_event,
        );
    }
    println!(
        "(per workload: streamed output byte-identical to offline output per \
         format, binary decodes back to the source trace; times are best of reps)"
    );
}

fn print_precision_rows(rows: &[PrecisionRow]) {
    println!();
    println!("== Precision: feasibility verdicts vs Phase II confirmation ==");
    println!(
        "{:<20} {:>6} {:>5} {:>6} {:>4} | {:>8} {:>8} {:>5} | {:>8} {:>8} {:>7}",
        "benchmark",
        "cycles",
        "feas",
        "infeas",
        "unk",
        "conf(u)",
        "conf(a)",
        "same",
        "trials-u",
        "trials-a",
        "saved"
    );
    for r in rows {
        println!(
            "{:<20} {:>6} {:>5} {:>6} {:>4} | {:>8} {:>8} {:>5} | {:>8} {:>8} {:>7}",
            r.name,
            r.cycles,
            r.feasible,
            r.infeasible,
            r.unknown,
            r.confirmed_uniform,
            r.confirmed_adaptive,
            if r.same_cycle_set { "yes" } else { "NO" },
            r.trials_uniform,
            r.trials_adaptive,
            r.trials_saved,
        );
    }
    println!(
        "(per row: uniform and adaptive campaigns run the same seeded \
         pipeline; `same` gates that both confirm the same cycle set)"
    );
}

/// Fails the bench if the precision layer broke either of its contracts:
/// a cycle scored `Infeasible` was confirmed by a real trial (soundness),
/// or the uncapped adaptive campaign confirmed a different cycle set than
/// the uniform one (parity).
fn enforce_precision(rows: &[PrecisionRow]) {
    let mut failed = false;
    for r in rows {
        if r.infeasible_confirmed > 0 {
            eprintln!(
                "precision gate: {} confirmed {} cycle(s) scored Infeasible \
                 — the feasibility check is unsound",
                r.name, r.infeasible_confirmed
            );
            failed = true;
        }
        if !r.same_cycle_set {
            eprintln!(
                "precision gate: {} — adaptive campaign confirmed a \
                 different cycle set than the uniform campaign \
                 (uniform {}, adaptive {})",
                r.name, r.confirmed_uniform, r.confirmed_adaptive
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Enforces `--min-parallel-speedup` on the scaled synthetic workload at
/// the largest requested jobs value. The gate only applies when the host
/// actually has that many hardware threads — a single-core runner cannot
/// speed anything up, so it records honest numbers and skips the gate
/// (parity is still enforced unconditionally by `join_parallel_bench`).
fn enforce_parallel_speedup(rows: &[JoinParallelRow], args: &Args) {
    if args.min_parallel_speedup <= 0.0 {
        return;
    }
    let Some(&jobs) = args.jobs.iter().max() else {
        return;
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < jobs {
        println!(
            "(skipping --min-parallel-speedup {} gate: host has {cores} hardware \
             thread(s), gate needs >= {jobs})",
            args.min_parallel_speedup
        );
        return;
    }
    let workload = format!("synthetic-{}x{}", 2 * args.pairs, 4 * args.noise);
    let Some(row) = rows
        .iter()
        .find(|r| r.workload == workload && r.jobs == jobs)
    else {
        eprintln!("speedup gate: no row for {workload} at jobs={jobs}");
        std::process::exit(1);
    };
    if row.speedup < args.min_parallel_speedup {
        eprintln!(
            "speedup gate: {workload} at jobs={jobs} reached {:.2}x, \
             required {:.2}x",
            row.speedup, args.min_parallel_speedup
        );
        std::process::exit(1);
    }
    println!(
        "(speedup gate passed: {workload} at jobs={jobs} reached {:.2}x >= {:.2}x)",
        row.speedup, args.min_parallel_speedup
    );
}

fn main() {
    let args = parse_args();
    let join = match igoodlock_bench(&args.sizes, args.pairs, args.noise, args.reps) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("parity failure: {e}");
            std::process::exit(1);
        }
    };
    print_rows(&join);
    if let Err(e) = check_row_speedups(&join) {
        eprintln!("speedup gate: {e}");
        std::process::exit(1);
    }
    let join_parallel =
        match join_parallel_bench(&args.sizes, args.pairs, args.noise, args.reps, &args.jobs) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("parity failure: {e}");
                std::process::exit(1);
            }
        };
    print_parallel_rows(&join_parallel);
    enforce_parallel_speedup(&join_parallel, &args);
    let streaming = match streaming_bench(7, args.reps) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("parity failure: {e}");
            std::process::exit(1);
        }
    };
    print_streaming_rows(&streaming);
    let trace_io = match trace_io_bench_rows(args.trace_events, args.reps) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("parity failure: {e}");
            std::process::exit(1);
        }
    };
    print_trace_io_rows(&trace_io);
    let precision = precision_bench(args.precision_trials);
    print_precision_rows(&precision);
    enforce_precision(&precision);
    let artifact = BenchArtifact {
        join,
        join_parallel,
        streaming,
        trace_io,
        precision,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("serialize");
    std::fs::write(&args.out, json + "\n").expect("write bench artifact");
    println!("wrote {}", args.out);
}
