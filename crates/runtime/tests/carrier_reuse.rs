//! A run's virtual threads share one carrier OS thread, and carriers are
//! reused across runs.
//!
//! This is its own test binary, with a single test, because the carrier
//! pool is process-wide: concurrent runs from other tests would take idle
//! carriers and force extra spawns.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use df_events::site;
use df_runtime::{strategy::RoundRobinStrategy, RunConfig, VirtualRuntime};

#[test]
fn back_to_back_runs_reuse_their_carriers() {
    // Every OS thread that ever carried a virtual thread, by std id (ids
    // are never reused within a process).
    let carriers = Arc::new(Mutex::new(HashSet::new()));
    let rt = VirtualRuntime::new(RunConfig::default());
    for _ in 0..100 {
        let run_threads = Arc::new(Mutex::new(HashSet::new()));
        let seen = Arc::clone(&run_threads);
        let r = rt.run(Box::new(RoundRobinStrategy::new()), move |ctx| {
            let mut workers = Vec::new();
            for i in 0..7 {
                let seen = Arc::clone(&seen);
                workers.push(ctx.spawn(site!(), &format!("w{i}"), move |ctx| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    ctx.yield_now();
                    seen.lock().unwrap().insert(std::thread::current().id());
                }));
            }
            seen.lock().unwrap().insert(std::thread::current().id());
            for w in &workers {
                ctx.join(w, site!());
            }
        });
        assert!(r.outcome.is_completed(), "{:?}", r.outcome);
        let run_threads = run_threads.lock().unwrap();
        assert_eq!(
            run_threads.len(),
            1,
            "the 8 virtual threads of one run ran on {} OS threads",
            run_threads.len()
        );
        carriers.lock().unwrap().extend(run_threads.iter().copied());
    }
    let spawned = carriers.lock().unwrap().len();
    assert_eq!(spawned, 1, "100 runs of 8 threads used {spawned} carriers");
}
