//! The carrier pool: OS threads that carry runs, reused across runs.
//!
//! Every run needs one OS thread for its executor, on which all of its
//! virtual threads run as fibers. Spawning and joining one per run would
//! cost short Phase II trials an OS thread start each, so finished
//! carriers park on a process-wide idle stack instead of exiting and the
//! next run's [`launch`] hands them their next job.
//!
//! A run waits for its job through a [`Latch`] rather than by joining a
//! thread. A carrier pushes itself back onto the idle stack *before* it
//! counts its job down, so once a run's latch reaches zero the carrier it
//! used is ready for the next run. Carriers are never joined: a run that
//! hangs does not wait for a carrier stuck in program code, which rejoins
//! the pool only if that code ever returns.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// The most idle carriers kept for reuse; a carrier finishing a job while
/// the stack is full exits instead. A carrier executes one whole run,
/// whatever its thread count, so this counts concurrent runs: it is sized
/// above the trial workers a campaign runs at once (`--jobs`, up to one
/// per core on large hosts).
const MAX_IDLE: usize = 256;

/// Idle carriers, each reachable through the sending end of its job queue.
static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

type Work = Box<dyn FnOnce() + Send>;

struct Job {
    work: Work,
    done: LatchGuard,
}

/// A countdown of one run's outstanding carrier jobs.
#[derive(Default)]
pub(crate) struct Latch {
    outstanding: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    /// Blocks until every job launched against this latch has finished.
    pub(crate) fn wait(&self) {
        let mut n = self.outstanding.lock();
        while *n > 0 {
            self.zero.wait(&mut n);
        }
    }

    /// [`Self::wait`] bounded by `timeout`; whether the count reached zero.
    #[cfg(test)]
    fn wait_for(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut n = self.outstanding.lock();
        while *n > 0 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            self.zero.wait_for(&mut n, left);
        }
        true
    }
}

/// Counts one job down when dropped, on every path out of the job —
/// unwinding included — so no panic can wedge [`Latch::wait`].
struct LatchGuard(Arc<Latch>);

impl Drop for LatchGuard {
    fn drop(&mut self) {
        let mut n = self.0.outstanding.lock();
        *n -= 1;
        if *n == 0 {
            self.0.zero.notify_all();
        }
    }
}

/// Runs `work` on an idle carrier, or on a new one if none is idle. The
/// job counts against `latch` until it has finished.
pub(crate) fn launch(latch: &Arc<Latch>, work: Work) {
    *latch.outstanding.lock() += 1;
    let job = Job {
        work,
        done: LatchGuard(Arc::clone(latch)),
    };
    let idle = IDLE.lock().pop();
    if let Some(carrier) = idle {
        carrier
            .send(job)
            .expect("an idle carrier keeps its job queue open");
        return;
    }
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name("df-carrier".to_string())
        .spawn(move || carrier_main(job, tx, rx))
        .expect("failed to spawn a carrier OS thread");
}

/// A carrier's life: run a job, return to the idle stack, count the job
/// down, wait for the next one.
fn carrier_main(first: Job, me: Sender<Job>, jobs: Receiver<Job>) {
    let mut next = Some(first);
    while let Some(Job { work, done }) = next.take() {
        // Virtual threads catch their own panics; anything escaping that
        // (e.g. a panicking event sink in the exit path) has been reported
        // by the panic hook and must not cost the pool a carrier.
        let _ = panic::catch_unwind(AssertUnwindSafe(work));
        let keep = {
            let mut idle = IDLE.lock();
            let keep = idle.len() < MAX_IDLE;
            if keep {
                idle.push(me.clone());
            }
            keep
        };
        drop(done);
        if !keep {
            return;
        }
        next = jobs.recv().ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn a_job_that_unwinds_still_counts_down_its_latch() {
        crate::controller::install_quiet_abort_hook();
        let latch = Arc::new(Latch::default());
        launch(
            &latch,
            Box::new(|| {
                panic::panic_any(crate::fault::InjectedFault("escaped".into()));
            }),
        );
        latch.wait();
        // The pool still runs jobs afterwards.
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let ran = Arc::clone(&ran);
            launch(
                &latch,
                Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        latch.wait();
        assert_eq!(ran.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn carriers_are_idle_again_before_their_latch_opens() {
        let latch = Arc::new(Latch::default());
        let gate = Arc::new(Barrier::new(3));
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            launch(
                &latch,
                Box::new(move || {
                    gate.wait();
                }),
            );
        }
        // With the idle stack held, finished carriers cannot return to
        // it, so they must not have counted their jobs down either.
        let idle = IDLE.lock();
        gate.wait();
        assert!(!latch.wait_for(Duration::from_millis(50)));
        drop(idle);
        latch.wait();
    }
}
