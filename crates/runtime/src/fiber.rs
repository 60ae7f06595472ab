//! Stackful fibers: every virtual thread of a run is a fiber on the one
//! OS thread that executes the run, so handing the token to the picked
//! thread is a user-space stack switch rather than an OS wakeup.
//!
//! A [`Fiber`] owns its job and a stack. [`Fiber::resume`] switches from
//! the caller (the run's executor) onto the fiber; [`suspend`], called on
//! the fiber, switches back. A fiber's job runs inside `catch_unwind`, so
//! no unwind ever crosses the base of a fiber stack; when it returns the
//! fiber is finished and control goes back to the executor for the last
//! time.
//!
//! Stacks are `mmap`ped with `MAP_NORESERVE` (pages are committed as they
//! are touched) below an `mprotect`ed guard page, so an overflow faults
//! instead of running into other memory. Finished fibers return their
//! stacks to a process-wide pool for the next run. A fiber dropped before
//! it finished is leaked whole: destructors on its stack never ran, so its
//! memory can be neither reused nor freed.
//!
//! Every `unsafe` operation of `df-runtime` lives in this module.

#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("df-runtime runs virtual threads as fibers and supports only x86_64 Linux (x86_64-unknown-linux-gnu)");

use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};

use parking_lot::Mutex;

/// Usable bytes of one fiber stack: std's default thread stack, so
/// program models keep the recursion depth they have on OS threads.
const STACK_SIZE: usize = 2 << 20;

/// The guard page below each stack (x86_64 Linux pages are 4 KiB).
const GUARD_SIZE: usize = 4096;

/// The most finished stacks kept for reuse; a stack released while the
/// pool is full is unmapped. Sized above the largest program model (55
/// threads) times a few concurrent runs.
const MAX_POOLED: usize = 256;

/// Finished stacks, ready for the next fiber.
static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

/// Fiber stacks currently mapped, pooled or in use (leaked ones included).
#[cfg(test)]
pub(crate) static MAPPED: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

type Job = Box<dyn FnOnce() + Send>;

// The context switch, for the System V x86_64 ABI.
//
// `df_runtime_fiber_switch(save, load)` pushes the callee-saved registers
// onto the current stack, stores the stack pointer to `*save`, loads
// `load` as the stack pointer, pops the registers saved there and
// returns into the code that stack was suspended in. The x87 control
// word and MXCSR are not switched: nothing in this crate changes them.
//
// A new fiber's first frame (see `Stack::first_frame`) "returns" into
// the trampoline with the control block in r12 and the entry point in
// r13. Its CFI marks the return address undefined, which ends stack
// walks (backtraces) at the fiber base.
std::arch::global_asm!(
    ".text",
    ".p2align 4",
    ".globl df_runtime_fiber_switch",
    ".hidden df_runtime_fiber_switch",
    ".type df_runtime_fiber_switch,@function",
    "df_runtime_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size df_runtime_fiber_switch, . - df_runtime_fiber_switch",
    "",
    ".p2align 4",
    ".globl df_runtime_fiber_trampoline",
    ".hidden df_runtime_fiber_trampoline",
    ".type df_runtime_fiber_trampoline,@function",
    "df_runtime_fiber_trampoline:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size df_runtime_fiber_trampoline, . - df_runtime_fiber_trampoline",
);

extern "C" {
    fn df_runtime_fiber_switch(save: *mut usize, load: usize);
    fn df_runtime_fiber_trampoline();

    // From the libc std already links.
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

// <sys/mman.h> on x86_64 Linux.
const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;

/// One fiber stack: a private mapping whose lowest page is the guard.
struct Stack {
    base: NonNull<u8>,
}

// SAFETY: a `Stack` exclusively owns its mapping, which is plain memory
// with no tie to the thread that mapped it; a stack moves between
// threads only through the pool, never while a fiber is suspended on it.
unsafe impl Send for Stack {}

impl Stack {
    const MAPPING: usize = STACK_SIZE + GUARD_SIZE;

    /// A stack from the pool, or a freshly mapped one.
    fn take() -> Stack {
        if let Some(stack) = POOL.lock().pop() {
            return stack;
        }
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases no existing memory; the result is checked below.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                Self::MAPPING,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            panic!(
                "failed to map a fiber stack: {}",
                std::io::Error::last_os_error()
            );
        }
        let base = NonNull::new(base.cast::<u8>()).expect("mmap never maps address zero");
        let stack = Stack { base };
        #[cfg(test)]
        MAPPED.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        // SAFETY: the first page lies inside the mapping just created,
        // which nothing else references yet.
        let rc = unsafe { mprotect(base.as_ptr().cast(), GUARD_SIZE, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "failed to protect a fiber stack's guard page: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    /// Returns a stack whose fiber finished to the pool, or unmaps it.
    fn release(self) {
        let mut pool = POOL.lock();
        if pool.len() < MAX_POOLED {
            pool.push(self);
        }
    }

    /// Writes the frame a new fiber starts from and returns its stack
    /// pointer: [`df_runtime_fiber_switch`] pops six registers off it
    /// (r12 = `control`, r13 = the entry point) and returns into the
    /// trampoline, which calls `fiber_entry(control)`.
    fn first_frame(&mut self, control: *mut Control) -> usize {
        let top = self.base.as_ptr() as usize + Self::MAPPING;
        // The trampoline starts at `sp + 56` and must see a 16-byte
        // aligned stack so that its `call` gives `fiber_entry` the
        // alignment the ABI promises at function entry.
        let sp = top - 72;
        debug_assert_eq!((sp + 56) % 16, 0);
        let entry: extern "C" fn(*mut Control) -> ! = fiber_entry;
        let frame: [usize; 9] = [
            0,                                                 // r15
            0,                                                 // r14
            entry as usize,                                    // r13
            control as usize,                                  // r12
            0,                                                 // rbx
            0,                                                 // rbp
            df_runtime_fiber_trampoline as *const () as usize, // return address
            0,                                                 // padding; the trampoline's frame
            0,
        ];
        // SAFETY: `sp..top` is the top of this stack's writable part
        // (top is page-aligned, 72 bytes lie far above the guard page),
        // no fiber is running on the stack, and `sp` is 8-byte aligned.
        unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp as *mut usize, frame.len()) };
        sp
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping was created by `Stack::take` with this
        // length, and dropping the owner means no fiber runs on it.
        let rc = unsafe { munmap(self.base.as_ptr().cast(), Self::MAPPING) };
        debug_assert_eq!(rc, 0, "munmap of a fiber stack failed");
        #[cfg(test)]
        MAPPED.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
    }
}

/// What the executor and a fiber share, at a stable heap address.
struct Control {
    /// The fiber's stack pointer while it is suspended.
    fiber_sp: usize,
    /// The executor's stack pointer while the fiber runs.
    executor_sp: usize,
    /// The job, until the fiber first runs.
    job: Option<Job>,
    finished: bool,
    /// The OS thread the fiber first ran on (see [`thread_token`]), or 0
    /// before that: its stack may refer to that thread's thread-locals.
    home: usize,
}

thread_local! {
    /// The control block of the fiber running on this OS thread, if any.
    static CURRENT: Cell<*mut Control> = const { Cell::new(ptr::null_mut()) };
}

/// A number identifying the calling OS thread among live threads.
fn thread_token() -> usize {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    TOKEN.with(|t| t as *const u8 as usize)
}

/// A virtual thread's job together with the stack it runs on.
pub(crate) struct Fiber {
    /// Owned (from `Box::into_raw`); `None` only for the placeholder of
    /// [`Fiber::default`].
    control: Option<NonNull<Control>>,
    stack: Option<Stack>,
}

// SAFETY: the job is `Send`. A fiber that has run is resumed only on the
// thread it first ran on (checked by `resume`), so values on its stack
// never reach another thread; dropping it elsewhere either pools a stack
// with no live frames or leaks it untouched.
unsafe impl Send for Fiber {}

impl Default for Fiber {
    /// A placeholder that has nothing to run: it counts as finished.
    fn default() -> Self {
        Fiber {
            control: None,
            stack: None,
        }
    }
}

impl Fiber {
    /// A fiber that runs `job` the first time it is resumed.
    pub(crate) fn new(job: Job) -> Fiber {
        let control = NonNull::from(Box::leak(Box::new(Control {
            fiber_sp: 0,
            executor_sp: 0,
            job: Some(job),
            finished: false,
            home: 0,
        })));
        let mut stack = Stack::take();
        let sp = stack.first_frame(control.as_ptr());
        // SAFETY: `control` was just allocated and is not shared yet.
        unsafe { (*control.as_ptr()).fiber_sp = sp };
        Fiber {
            control: Some(control),
            stack: Some(stack),
        }
    }

    /// Whether the fiber's job has returned.
    pub(crate) fn is_finished(&self) -> bool {
        match self.control {
            // SAFETY: the control block lives as long as `self`, and no
            // fiber runs while the executor holds `&self`.
            Some(c) => unsafe { (*c.as_ptr()).finished },
            None => true,
        }
    }

    /// Runs the fiber until it calls [`suspend`] or finishes. Does
    /// nothing if it already finished.
    ///
    /// # Panics
    ///
    /// If the fiber already ran on another OS thread.
    pub(crate) fn resume(&mut self) {
        let Some(control) = self.control else { return };
        let c = control.as_ptr();
        let me = thread_token();
        // SAFETY: the control block lives as long as `self`, and the fiber
        // is suspended (or not started), so nothing else accesses it.
        unsafe {
            if (*c).finished {
                return;
            }
            if (*c).home == 0 {
                (*c).home = me;
            }
            assert_eq!((*c).home, me, "a fiber resumed on a foreign OS thread");
        }
        let outer = CURRENT.with(|cur| cur.replace(c));
        // SAFETY: `fiber_sp` is the stack pointer the fiber was suspended
        // with (or its first frame), on a stack `self` owns; the fiber
        // switches back through `executor_sp` before this call returns.
        unsafe { df_runtime_fiber_switch(ptr::addr_of_mut!((*c).executor_sp), (*c).fiber_sp) };
        CURRENT.with(|cur| cur.set(outer));
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        let Some(control) = self.control else { return };
        // SAFETY: the control block came from `Box::leak` in `Fiber::new`
        // and the fiber is not running, since it is being dropped.
        let control = unsafe { Box::from_raw(control.as_ptr()) };
        if control.finished || control.home == 0 {
            // No live frames: the job returned, or never started (its
            // closure drops with the control block).
            if let Some(stack) = self.stack.take() {
                stack.release();
            }
        } else {
            // Suspended mid-job: its frames were never unwound, so the
            // stack and everything it refers to stay allocated.
            std::mem::forget(self.stack.take());
        }
    }
}

/// Switches from the running fiber back to the executor that resumed it;
/// returns when the executor resumes the fiber again.
///
/// # Panics
///
/// If called off a fiber.
pub(crate) fn suspend() {
    let c = CURRENT.with(|cur| cur.get());
    assert!(!c.is_null(), "suspend called outside a fiber");
    // SAFETY: `c` is the control block of the fiber running on this
    // thread, set by the `resume` that is waiting for this switch and
    // valid until it returns; `executor_sp` is where that `resume` was
    // suspended.
    unsafe { df_runtime_fiber_switch(ptr::addr_of_mut!((*c).fiber_sp), (*c).executor_sp) };
}

/// The first Rust frame of every fiber.
extern "C" fn fiber_entry(control: *mut Control) -> ! {
    // SAFETY: `control` is the fiber's control block, passed by its first
    // frame; `Fiber::resume` keeps it alive while the fiber runs.
    let job = unsafe { (*control).job.take() }.expect("a fiber's job runs once");
    // The job's panics stop here: unwinding past the fiber base would
    // leave the stack. Anything still worth reporting was reported by the
    // panic hook.
    drop(panic::catch_unwind(AssertUnwindSafe(job)));
    // SAFETY: as above; after this switch the fiber is never resumed
    // (`finished` is set), so this frame is abandoned with nothing left to
    // drop.
    unsafe {
        (*control).finished = true;
        df_runtime_fiber_switch(
            ptr::addr_of_mut!((*control).fiber_sp),
            (*control).executor_sp,
        );
    }
    unreachable!("a finished fiber was resumed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn a_fiber_runs_between_suspensions_and_finishes() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        let mut fiber = Fiber::new(Box::new(move || {
            l.lock().push(1);
            suspend();
            l.lock().push(3);
        }));
        assert!(!fiber.is_finished());
        fiber.resume();
        log.lock().push(2);
        assert!(!fiber.is_finished());
        fiber.resume();
        assert!(fiber.is_finished());
        fiber.resume();
        assert_eq!(*log.lock(), [1, 2, 3]);
    }

    #[test]
    fn a_panicking_job_finishes_its_fiber() {
        crate::controller::install_quiet_abort_hook();
        let mut fiber = Fiber::new(Box::new(|| {
            panic::panic_any(crate::fault::InjectedFault("fiber panic".into()));
        }));
        fiber.resume();
        assert!(fiber.is_finished());
    }

    #[test]
    fn an_unstarted_fiber_drops_its_job() {
        let dropped = Arc::new(AtomicUsize::new(0));
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let probe = Probe(Arc::clone(&dropped));
        let fiber = Fiber::new(Box::new(move || drop(probe)));
        drop(fiber);
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn mapped_stacks_stay_within_the_pool_cap() {
        use crate::strategy::RoundRobinStrategy;
        use crate::{RunConfig, VirtualRuntime};
        use df_events::site;

        let rt = VirtualRuntime::new(RunConfig::default());
        for i in 0..1_000 {
            let r = rt.run(Box::new(RoundRobinStrategy::new()), |ctx| {
                let workers: Vec<_> = (0..54)
                    .map(|_| ctx.spawn(site!(), "w", |ctx| ctx.yield_now()))
                    .collect();
                for w in &workers {
                    ctx.join(w, site!());
                }
            });
            assert!(r.outcome.is_completed(), "{:?}", r.outcome);
            let mapped = MAPPED.load(Ordering::SeqCst);
            assert!(mapped <= MAX_POOLED, "run {i}: {mapped} stacks mapped");
        }
    }

    #[test]
    fn every_stack_has_a_guard_page_below_it() {
        let fiber = Fiber::new(Box::new(|| {}));
        let base = fiber.stack.as_ref().expect("a new fiber has a stack").base;
        let base = base.as_ptr() as usize;
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        let guard = maps
            .lines()
            .find(|l| l.starts_with(&format!("{base:x}-")))
            .expect("the stack's lowest page is mapped");
        let expected = format!("{:x}-{:x} ---p ", base, base + GUARD_SIZE);
        assert!(guard.starts_with(&expected), "{guard}");
    }

    #[test]
    fn fibers_get_an_aligned_stack() {
        let mut fiber = Fiber::new(Box::new(|| {
            // A 16-aligned local is placed at an aligned address only if
            // the frame itself started aligned.
            #[repr(align(16))]
            struct Aligned(u8);
            let a = Aligned(7);
            assert_eq!(ptr::addr_of!(a) as usize % 16, 0);
            std::hint::black_box(a.0);
        }));
        fiber.resume();
        assert!(fiber.is_finished());
    }
}
