//! End-to-end: DeadlockFuzzer's two phases over real OS threads — a
//! recording tracker for Phase I, the pre-acquire hook with the
//! Algorithm 3 policy for Phase II.
//!
//! The program under test must be the *same code* in the record and fuzz
//! runs (acquisition and allocation sites identify program locations), so
//! each test program is a single function run against different trackers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use deadlock_fuzzer::session::{analyze, fuzz, noise, FuzzConfig, FuzzOutcome, NoiseConfig};
use df_abstraction::{AbstractionMode, Abstractor};
use df_events::EventKind;
use df_igoodlock::{AbstractCycle, IGoodlockOptions};
use df_lock::{TrackedCondvar, TrackedMutex, Tracker, TrackerConfig};

fn recording() -> Tracker {
    Tracker::new(TrackerConfig::default().with_record_events(true))
}

/// The Figure 1 program on real threads: t1 sleeps (long-running
/// methods), then locks (a, b); t2 locks (b, a) immediately.
fn figure1(tracker: &Tracker) {
    let a = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
    let t1 = tracker.spawn("t1", move || {
        std::thread::sleep(Duration::from_millis(30));
        let ga = a1.lock().unwrap();
        let gb = b1.lock().unwrap();
        drop((gb, ga));
    });
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let t2 = tracker.spawn("t2", move || {
        let gb = b2.lock().unwrap();
        let ga = a2.lock().unwrap();
        drop((ga, gb));
    });
    t1.join().unwrap();
    t2.join().unwrap();
}

fn record_figure1_with(mode: AbstractionMode) -> AbstractCycle {
    let tracker = recording();
    figure1(&tracker);
    let report = analyze(&tracker, &IGoodlockOptions::default());
    assert_eq!(report.cycles.len(), 1, "one (a,b) cycle");
    report.abstract_cycles(mode).remove(0)
}

fn record_figure1() -> AbstractCycle {
    record_figure1_with(AbstractionMode::default())
}

#[test]
fn record_phase_predicts_figure1_cycle() {
    let cycle = record_figure1();
    assert_eq!(cycle.len(), 2);
    // t1's inner acquisition of b and t2's inner acquisition of a: two
    // threads, two locks, each acquired while holding the other.
    let [c1, c2] = cycle.components() else {
        unreachable!()
    };
    assert_ne!(c1.thread, c2.thread, "cycle: {cycle}");
    assert_ne!(c1.lock, c2.lock, "cycle: {cycle}");
    assert!(
        c1.context.len() == 2 && c2.context.len() == 2,
        "cycle: {cycle}"
    );
}

#[test]
fn fuzz_phase_creates_the_real_deadlock() {
    let cycle = record_figure1();
    for seed in 0..5 {
        match fuzz(FuzzConfig::new(cycle.clone()).with_seed(seed), figure1) {
            FuzzOutcome::Deadlock(w) => assert_eq!(w.len(), 2),
            other => panic!("seed {seed}: expected deadlock, got {other:?}"),
        }
    }
}

/// A program with a consistent lock order (no deadlock possible).
fn consistent_order(tracker: &Tracker) {
    let a = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            tracker.spawn(&format!("c{i}"), move || {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
                drop((gb, ga));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn fuzz_phase_completes_on_consistent_order() {
    // Feed the figure-1 cycle to a program that cannot produce it: the
    // monitor must release any pauses and the program completes.
    let cycle = record_figure1();
    assert_eq!(
        fuzz(FuzzConfig::new(cycle), consistent_order),
        FuzzOutcome::Completed
    );
}

#[test]
fn record_phase_counts_multiple_contexts() {
    // Two different nesting sites over the same pair → two cycles, like
    // the DBCP model.
    let tracker = recording();
    let a = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
    let t1 = tracker.spawn("w1", move || {
        std::thread::sleep(Duration::from_millis(20));
        {
            let ga = a1.lock().unwrap();
            let gb = b1.lock().unwrap();
            drop((gb, ga));
        }
        {
            let ga = a1.lock().unwrap();
            let gb = b1.lock().unwrap();
            drop((gb, ga));
        }
    });
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let t2 = tracker.spawn("w2", move || {
        let gb = b2.lock().unwrap();
        let ga = a2.lock().unwrap();
        drop((ga, gb));
    });
    t1.join().unwrap();
    t2.join().unwrap();
    let report = analyze(&tracker, &IGoodlockOptions::default());
    assert_eq!(report.cycles.len(), 2, "one per w1 context");
}

/// Both threads rush into opposite nesting; a barrier guarantees the
/// overlap, so the deadlock happens without any steering.
fn guaranteed_deadlock(tracker: &Tracker) {
    let a = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let (a1, b1, bar1) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
    let t1 = tracker.spawn("d1", move || {
        let ga = a1.lock().unwrap();
        bar1.wait();
        let gb = b1.lock().unwrap();
        drop((gb, ga));
    });
    let (a2, b2, bar2) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
    let t2 = tracker.spawn("d2", move || {
        let gb = b2.lock().unwrap();
        bar2.wait();
        let ga = a2.lock().unwrap();
        drop((ga, gb));
    });
    t1.join().unwrap();
    t2.join().unwrap();
}

#[test]
fn deadlocked_threads_are_unwound_not_stuck() {
    // Even with an empty target cycle (nothing to steer), the run
    // detects the naturally-occurring deadlock, unwinds the threads and
    // the process does not hang.
    let outcome = fuzz(
        FuzzConfig::new(AbstractCycle::new(vec![])),
        guaranteed_deadlock,
    );
    let w = outcome.deadlock().expect("cycle detected");
    assert_eq!(w.len(), 2);
}

#[test]
fn stats_expose_pauses() {
    let cycle = record_figure1();
    let obs = df_obs::Obs::default();
    let outcome = fuzz(FuzzConfig::new(cycle).with_obs(obs.clone()), figure1);
    assert!(
        obs.counters().snapshot().threads_paused >= 1,
        "steering must pause at least one thread"
    );
    assert!(outcome.deadlock().is_some());
}

#[test]
fn noise_injection_is_a_weak_baseline() {
    // ConTest-style noise (the paper's §6 related work) rarely creates
    // Figure 1's deadlock — its sleeps "can only advise the scheduler …
    // cannot pause a thread as long as required" — while the active
    // scheduler creates it every time
    // (`fuzz_phase_creates_the_real_deadlock`). Figure 1's 30 ms prefix
    // dwarfs the ≤8 ms noise sleeps, so noise essentially never aligns
    // the threads.
    let trials = 4;
    let noise_hits = (0..trials)
        .filter(|&seed| {
            let config = NoiseConfig {
                seed,
                ..NoiseConfig::default()
            };
            noise(config, figure1).deadlock().is_some()
        })
        .count();
    assert!(
        noise_hits < trials as usize,
        "noise must not be as reliable as active scheduling: {noise_hits}/{trials}"
    );
}

#[test]
fn monitor_wait_notify_handshake_on_real_threads() {
    let tracker = recording();
    let queue = Arc::new((
        TrackedMutex::with_tracker(&tracker, Vec::<u32>::new()),
        TrackedCondvar::with_tracker(&tracker),
    ));
    let q = Arc::clone(&queue);
    let consumer = tracker.spawn("consumer", move || {
        let (m, cv) = &*q;
        let mut g = m.lock().unwrap();
        while g.is_empty() {
            g = cv.wait(g).unwrap();
        }
        assert_eq!(g.pop(), Some(7));
    });
    let q = Arc::clone(&queue);
    let producer = tracker.spawn("producer", move || {
        std::thread::sleep(Duration::from_millis(15));
        let (m, cv) = &*q;
        let mut g = m.lock().unwrap();
        g.push(7);
        cv.notify_one();
        drop(g);
    });
    consumer.join().unwrap();
    producer.join().unwrap();
    // Wait/notify events made it into the trace.
    let trace = tracker.trace();
    let kinds: Vec<_> = trace.events().iter().map(|e| &e.kind).collect();
    assert!(kinds
        .iter()
        .any(|k| matches!(k, EventKind::CondWait { .. })));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, EventKind::CondNotify { .. })));
}

#[test]
fn wait_released_monitor_is_acquirable_by_others() {
    // While the waiter waits, the setter can take the same mutex —
    // proof the wait actually released it.
    let tracker = recording();
    let flag = Arc::new((
        TrackedMutex::with_tracker(&tracker, 0u32),
        TrackedCondvar::with_tracker(&tracker),
    ));
    let f = Arc::clone(&flag);
    let waiter = tracker.spawn("waiter", move || {
        let (m, cv) = &*f;
        let g = m.lock().unwrap();
        drop(cv.wait_while(g, |v| *v == 0).unwrap());
    });
    let f = Arc::clone(&flag);
    let setter = tracker.spawn("setter", move || {
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*f;
        *m.lock().unwrap() = 1;
        cv.notify_all();
    });
    waiter.join().unwrap();
    setter.join().unwrap();
}

#[test]
fn scopes_distinguish_loop_allocations_in_abstractions() {
    let tracker = recording();
    let ids: Vec<_> = (0..2)
        .map(|_| tracker.scope(|| TrackedMutex::with_tracker(&tracker, ()).id()))
        .collect();
    let trace = tracker.trace();
    let exec = Abstractor::new(AbstractionMode::ExecIndex(10));
    assert_ne!(
        exec.abs(trace.objects(), ids[0]),
        exec.abs(trace.objects(), ids[1]),
        "loop iterations differ by call-frame counter"
    );
    // Inside the scope both allocations are the first at their depth:
    // only the enclosing frame tells them apart.
    assert_eq!(trace.objects().get(ids[0]).index.len(), 2);
    assert_eq!(
        trace.objects().get(ids[0]).index[1],
        trace.objects().get(ids[1]).index[1]
    );
    let site = Abstractor::new(AbstractionMode::Site);
    assert_eq!(
        site.abs(trace.objects(), ids[0]),
        site.abs(trace.objects(), ids[1]),
        "same allocation site"
    );
}

#[test]
fn never_notified_wait_times_out_instead_of_hanging() {
    // A fuzz run with a short hang timeout; the thread waits on a
    // condvar nobody notifies — a communication deadlock. The watchdog
    // must unwind it and the outcome must be Timeout, not Completed.
    let mut cfg = FuzzConfig::new(AbstractCycle::new(vec![]));
    cfg.hang_timeout = Duration::from_millis(150);
    let outcome = fuzz(cfg, |tracker| {
        let flag = Arc::new((
            TrackedMutex::with_tracker(tracker, 0u32),
            TrackedCondvar::with_tracker(tracker),
        ));
        let f = Arc::clone(&flag);
        let waiter = tracker.spawn("waiter", move || {
            let (m, cv) = &*f;
            let mut g = m.lock().unwrap();
            while *g == 0 {
                g = cv.wait(g).unwrap(); // never notified
            }
        });
        waiter.join().unwrap();
    });
    assert_eq!(outcome, FuzzOutcome::Timeout);
}

#[test]
fn join_while_holding_the_childs_lock_times_out_instead_of_hanging() {
    // Main joins a child blocked on a lock main holds — a deadlock
    // through `join`, invisible to the wait-for graph. The hang timeout
    // must unwind main out of its join, which frees the child.
    let mut cfg = FuzzConfig::new(AbstractCycle::new(vec![]));
    cfg.hang_timeout = Duration::from_millis(150);
    let outcome = fuzz(cfg, |tracker| {
        let m = Arc::new(TrackedMutex::with_tracker(tracker, ()));
        let held = m.lock().unwrap();
        let m2 = Arc::clone(&m);
        let child = tracker.spawn("child", move || drop(m2.lock().unwrap()));
        child.join().unwrap();
        drop(held);
    });
    assert_eq!(outcome, FuzzOutcome::Timeout);
}

#[test]
fn deadlock_witness_names_the_threads() {
    // Witnesses print spawn names, not just numeric thread ids.
    let cycle = record_figure1();
    let outcome = fuzz(FuzzConfig::new(cycle), figure1);
    let text = outcome.deadlock().expect("deadlock").to_string();
    assert!(text.contains("\"t1\""), "witness: {text}");
    assert!(text.contains("\"t2\""), "witness: {text}");
}

#[test]
fn program_panic_is_classified_not_swallowed() {
    // A thread that dies for a reason other than the abort is a program
    // bug, not a deadlock: join reports it as Err without panicking the
    // harness, and the outcome classifies the run.
    let outcome = fuzz(FuzzConfig::new(AbstractCycle::new(vec![])), |tracker| {
        let h = tracker.spawn("worker", || panic!("injected program bug"));
        let err = h.join().expect_err("panic surfaces as Err");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("injected program bug"), "{msg}");
    });
    match outcome {
        FuzzOutcome::ProgramPanic(m) => assert!(m.contains("injected program bug"), "{m}"),
        other => panic!("expected ProgramPanic, got {other:?}"),
    }
}

#[test]
fn session_deadline_bounds_a_busy_program() {
    // The spinner makes steady progress forever, so the progress-based
    // hang watchdog never fires; the hard wall-clock deadline must end
    // the run anyway.
    let cfg = FuzzConfig::new(AbstractCycle::new(vec![])).with_deadline(Duration::from_millis(150));
    let started = Instant::now();
    let outcome = fuzz(cfg, |tracker| {
        let m = Arc::new(TrackedMutex::with_tracker(tracker, ()));
        let spinner = tracker.spawn("spinner", move || loop {
            drop(m.lock().unwrap());
        });
        spinner.join().unwrap();
    });
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "deadline must cut the spinner short"
    );
    assert_eq!(outcome, FuzzOutcome::DeadlineExceeded);
}

#[test]
fn over_matching_abstraction_forces_thrashing() {
    // Under the trivial ("ignore") abstraction every acquisition matches
    // the target cycle, so the fuzzer pauses threads that can never
    // deadlock. Once every live thread sits paused, the watchdog must
    // thrash — un-pause a random victim — instead of waiting out the
    // pause timeout (the paper's motivation for counting thrashes).
    let cycle = record_figure1_with(AbstractionMode::Trivial);
    let obs = df_obs::Obs::default();
    let mut cfg = FuzzConfig::new(cycle)
        .with_mode(AbstractionMode::Trivial)
        .with_obs(obs.clone());
    cfg.use_context = false;
    cfg.pause_timeout = Duration::from_millis(400);
    let _ = fuzz(cfg, |tracker| {
        let a = TrackedMutex::with_tracker(tracker, ());
        let b = Arc::new(TrackedMutex::with_tracker(tracker, ()));
        let b2 = Arc::clone(&b);
        let child = tracker.spawn("child", move || drop(b2.lock().unwrap()));
        drop(a.lock().unwrap()); // main pauses here as well
        child.join().unwrap();
    });
    assert!(
        obs.counters().snapshot().thrash_events >= 1,
        "all-paused state must trigger a thrash"
    );
}

#[test]
fn fuzz_session_reports_observability_counters_and_trace() {
    let cycle = record_figure1();
    let obs = df_obs::Obs::with_memory_sink();
    let outcome = fuzz(FuzzConfig::new(cycle).with_obs(obs.clone()), figure1);
    assert!(outcome.deadlock().is_some(), "got {outcome:?}");
    let counters = obs.counters().snapshot();
    assert!(counters.acquires_observed >= 1, "{counters:?}");
    assert!(counters.threads_paused >= 1, "{counters:?}");
    let trace = obs.trace_contents().expect("memory sink");
    assert!(trace.contains("Pause"), "trace: {trace}");
    assert!(
        trace.contains("CheckRealDeadlock") && trace.contains("\"verdict\":true"),
        "trace: {trace}"
    );
}
