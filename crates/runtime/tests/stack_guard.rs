//! A virtual thread that overflows its stack hits the guard page below it
//! and the process dies by SIGSEGV, rather than running into other memory.
//!
//! The overflow runs in a child process: the test re-runs this test binary
//! with `DF_RUNTIME_STACK_OVERFLOW_CHILD` set, which makes the same test
//! overflow instead of spawning.

use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use df_runtime::{strategy::FifoStrategy, RunConfig, VirtualRuntime};

const CHILD: &str = "DF_RUNTIME_STACK_OVERFLOW_CHILD";
const SIGSEGV: i32 = 11;

/// Recurses forever, a KiB of stack per frame.
#[inline(never)]
#[allow(unconditional_recursion)]
fn recurse(depth: u64) -> u64 {
    let frame = std::hint::black_box([depth as u8; 1024]);
    recurse(depth + 1) + u64::from(frame[1023])
}

#[test]
fn a_stack_overflow_on_a_virtual_thread_dies_by_sigsegv() {
    if std::env::var_os(CHILD).is_some() {
        let r =
            VirtualRuntime::new(RunConfig::default()).run(Box::new(FifoStrategy::new()), |ctx| {
                ctx.yield_now();
                std::hint::black_box(recurse(0));
            });
        // Reaching this line fails the parent's check.
        println!("overflow run ended: {:?}", r.outcome);
        return;
    }
    let exe = std::env::current_exe().expect("path of this test binary");
    // Through a shell, to keep the expected crash from writing a core file.
    let mut child = Command::new("sh")
        .arg("-c")
        .arg("ulimit -c 0; exec \"$0\" \"$@\"")
        .arg(exe)
        .args([
            "--exact",
            "a_stack_overflow_on_a_virtual_thread_dies_by_sigsegv",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the child test process");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the child") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().expect("kill the hung child");
            panic!("the overflowing child hung");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.signal(), Some(SIGSEGV), "child ended with {status}");
}
