//! End-to-end sweep over the whole Table 1 suite: cycle counts, clean
//! completions and confirmations match the models' designs.

use deadlock_fuzzer::prelude::*;
use df_benchmarks::table1_suite;

#[test]
fn table1_cycle_counts_match_designs() {
    for bench in table1_suite() {
        let fuzzer = DeadlockFuzzer::from_ref(bench.program.clone(), Config::default());
        let p1 = fuzzer.phase1();
        if let Some(expected) = bench.expected_cycles {
            assert_eq!(
                p1.cycle_count(),
                expected,
                "benchmark {}: {:?}",
                bench.name,
                p1.run_outcome
            );
        } else {
            // Schedule-dependent count (Jigsaw): at least the Figure 3
            // cycles plus the §5.4 false positive.
            assert!(p1.cycle_count() >= 4, "benchmark {}", bench.name);
        }
    }
}

#[test]
fn deadlock_free_benchmarks_stay_clean_under_more_seeds() {
    for bench in table1_suite() {
        if bench.expected_cycles != Some(0) {
            continue;
        }
        for seed in [0, 11, 42] {
            let fuzzer = DeadlockFuzzer::from_ref(
                bench.program.clone(),
                Config::default().with_phase1_seed(seed),
            );
            let p1 = fuzzer.phase1();
            assert!(
                p1.run_outcome.is_completed(),
                "{} seed {seed}: {:?}",
                bench.name,
                p1.run_outcome
            );
            assert_eq!(p1.cycle_count(), 0, "{} seed {seed}", bench.name);
        }
    }
}

#[test]
fn library_benchmarks_confirm_all_real_cycles() {
    // Logging and DBCP: every reported cycle is real and reproduced with
    // probability 1 (Table 1).
    for bench in [
        df_benchmarks::logging::benchmark(),
        df_benchmarks::dbcp::benchmark(),
    ] {
        let fuzzer = DeadlockFuzzer::from_ref(
            bench.program.clone(),
            Config::default().with_confirm_trials(6),
        );
        let report = fuzzer.run();
        assert_eq!(
            report.confirmed_count(),
            bench.expected_real.unwrap(),
            "{}",
            bench.name
        );
        for conf in &report.confirmations {
            assert_eq!(
                conf.probability.matched, 6,
                "{} cycle {}: {:?}",
                bench.name, conf.cycle_index, conf.probability
            );
        }
    }
}

#[test]
fn all_variants_run_on_swing() {
    // Every Figure 2 variant must at least execute without wedging, and
    // the default variant must confirm the caret deadlock.
    for variant in Variant::ALL {
        let fuzzer = DeadlockFuzzer::from_ref(
            df_benchmarks::swing::program(),
            Config::default()
                .with_variant(variant)
                .with_confirm_trials(5),
        );
        let report = fuzzer.run();
        assert_eq!(report.potential_count(), 1, "{variant}");
        if variant == Variant::ContextExecIndex {
            assert_eq!(report.confirmed_count(), 1, "{variant}");
        }
    }
}

#[test]
fn phase2_overhead_is_bounded() {
    // Table 1: "the overhead of our active checker is within a factor of
    // six". Check a loose bound on schedule points (steps), which is
    // stable across machines, for the logging benchmark.
    let fuzzer = DeadlockFuzzer::from_ref(df_benchmarks::logging::program(), Config::default());
    let p1 = fuzzer.phase1();
    let baseline = {
        // A plain run's steps.
        let r = fuzzer.phase2(&deadlock_fuzzer::igoodlock::AbstractCycle::new(vec![]), 0);
        r.steps
    };
    let active = fuzzer.phase2(&p1.abstract_cycles[0], 0);
    assert!(active.deadlocked());
    // The biased run stops at the deadlock so it can even be shorter;
    // either way it must stay within a small factor.
    assert!(
        active.steps <= baseline * 6 + 100,
        "active {} vs baseline {baseline}",
        active.steps
    );
}

#[test]
fn unrecorded_campaign_trials_agree_with_recorded_phase2_runs() {
    // Campaign trials run with trace recording off; their tallies must be
    // exactly those of recorded `phase2` runs on the same seeds.
    const TRIALS: u32 = 5;
    for (name, program) in [
        ("figure1", df_benchmarks::figure1::program(false)),
        ("maps", df_benchmarks::maps::benchmark().program),
        ("jigsaw", df_benchmarks::jigsaw::benchmark().program),
    ] {
        let fuzzer = DeadlockFuzzer::from_ref(program, Config::default());
        let p1 = fuzzer.phase1();
        assert!(
            !p1.abstract_cycles.is_empty(),
            "{name}: no cycle to confirm"
        );
        for (c, cycle) in p1.abstract_cycles.iter().enumerate() {
            let campaign = fuzzer
                .estimate_probability(cycle, TRIALS)
                .expect("campaign runs");
            let runs: Vec<Phase2Report> = (0..TRIALS)
                .map(|i| fuzzer.phase2(cycle, fuzzer.config().phase2_seed_base + u64::from(i)))
                .collect();
            assert!(
                runs.iter().all(|r| !r.trace.events().is_empty()),
                "{name} cycle {c}: phase2 keeps its trace"
            );
            let count = |f: fn(&Phase2Report) -> bool| {
                u32::try_from(runs.iter().filter(|r| f(r)).count()).expect("count <= TRIALS")
            };
            let avg = |f: fn(&Phase2Report) -> u64| {
                runs.iter().map(f).sum::<u64>() as f64 / f64::from(TRIALS)
            };
            let what = format!("{name} cycle {c}");
            assert_eq!(campaign.trials, TRIALS, "{what}");
            assert_eq!(campaign.matched, count(|r| r.matched_target), "{what}");
            assert_eq!(campaign.deadlocks, count(|r| r.deadlocked()), "{what}");
            assert_eq!(campaign.avg_pauses, avg(|r| r.pauses), "{what}");
            assert_eq!(campaign.avg_yields, avg(|r| r.yields), "{what}");
            assert_eq!(campaign.avg_thrashes, avg(|r| r.thrashes), "{what}");
            assert_eq!(campaign.avg_steps, avg(|r| r.steps), "{what}");
        }
    }
}

#[test]
fn peak_trace_bytes_is_the_phase1_trace_once_trials_run_unrecorded() {
    // Campaign trials hold no event vector, so the high-water mark of a
    // full run is the Phase I recording.
    let obs = df_obs::Obs::new();
    let fuzzer = DeadlockFuzzer::from_ref(
        df_benchmarks::lists::benchmark().program,
        Config::default()
            .with_confirm_trials(3)
            .with_obs(obs.clone()),
    );
    let report = fuzzer.run();
    assert!(report.confirmations.iter().any(|c| c.confirmed));
    let phase1_bytes = report.phase1.trace.approx_event_bytes();
    assert!(phase1_bytes > 0);
    assert_eq!(obs.counters().snapshot().peak_trace_bytes, phase1_bytes);
}
