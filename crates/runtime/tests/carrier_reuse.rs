//! Carrier OS threads are reused across runs.
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
        let seen = Arc::clone(&carriers);
        let r = rt.run(Box::new(RoundRobinStrategy::new()), move |ctx| {
            let mut workers = Vec::new();
            for i in 0..7 {
                let seen = Arc::clone(&seen);
                workers.push(ctx.spawn(site!(), &format!("w{i}"), move |ctx| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    ctx.yield_now();
                }));
            }
            seen.lock().unwrap().insert(std::thread::current().id());
            for w in &workers {
                ctx.join(w, site!());
            }
        });
        assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    }
    let spawned = carriers.lock().unwrap().len();
    assert!(
        spawned <= 8,
        "100 runs of 8 threads spawned {spawned} carriers"
    );
}
