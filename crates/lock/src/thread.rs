//! Drop-in tracked thread spawning.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use df_events::{caller_site, Label, ThreadId};

use crate::tracker::{self, Tracker, TrackerInner};

/// A `std::thread` replacement whose spawns bind the child to a tracker
/// thread object and emit `Spawn`/`ThreadStart`/`ThreadExit`/`Join`
/// events — so traces of natively-scheduled programs carry the same
/// thread structure the virtual runtime records.
///
/// Threads the tracker did not spawn are still handled: the first
/// tracked-lock operation auto-registers the calling thread under its
/// OS thread name. `TrackedThread` just makes spawn edges and names
/// explicit.
pub struct TrackedThread;

impl TrackedThread {
    /// Spawns a tracked thread under the global tracker, like
    /// `std::thread::spawn`. The caller's source location becomes the
    /// thread object's allocation site.
    #[track_caller]
    pub fn spawn<F, T>(f: F) -> TrackedJoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let site = caller_site();
        let inner = Arc::clone(Tracker::global().inner());
        spawn_impl(&inner, format!("tracked@{site}"), site, f)
    }
}

pub(crate) fn spawn_impl<F, T>(
    inner: &Arc<TrackerInner>,
    name: String,
    site: Label,
    f: F,
) -> TrackedJoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let parent = tracker::current_thread(inner);
    let child = tracker::register_thread(inner, name.clone(), site, Some(parent));
    let inner_for_child = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            crate::tls::bind(&inner_for_child, child);
            tracker::thread_started(&inner_for_child, child);
            // `ThreadExit` flows even for a panicking thread, so the
            // trace stays coherent.
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            let payload = result.as_ref().err().map(|p| &**p);
            tracker::thread_exited(&inner_for_child, child, payload);
            result.unwrap_or_else(|p| panic::resume_unwind(p))
        })
        .expect("spawn tracked thread");
    TrackedJoinHandle {
        handle,
        inner: Arc::clone(inner),
        target: child,
    }
}

/// Join handle of a tracked thread; mirrors `std::thread::JoinHandle`.
pub struct TrackedJoinHandle<T> {
    handle: std::thread::JoinHandle<T>,
    inner: Arc<TrackerInner>,
    target: ThreadId,
}

impl<T> TrackedJoinHandle<T> {
    /// The tracker-assigned id of the spawned thread.
    pub fn thread_id(&self) -> ThreadId {
        self.target
    }

    /// Waits for the thread to finish, like
    /// `std::thread::JoinHandle::join`: a panicking child returns
    /// `Err` with the panic payload (and its locks were already
    /// released — with events — during the unwind). A child unwound by
    /// an aborted pause-policy run unwinds the joiner too (see
    /// [`crate::is_abort`]), so program code never sees the abort. Under
    /// a pause policy the joiner unwinds as soon as the run aborts, even
    /// if the child is stuck on a lock the joiner holds.
    pub fn join(self) -> std::thread::Result<T> {
        if self.inner.policy.is_some() {
            crate::pause::await_exit(&self.inner, || self.handle.is_finished());
        }
        let result = self.handle.join();
        let joiner = tracker::current_thread(&self.inner);
        tracker::thread_joined(&self.inner, joiner, self.target);
        match result {
            Err(payload) if crate::is_abort(payload.as_ref()) => panic::resume_unwind(payload),
            result => result,
        }
    }

    /// Whether the thread has finished running.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }
}
