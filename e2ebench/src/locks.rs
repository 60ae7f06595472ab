//! `native-locks`: two OS threads from `Tracker::spawn` hammer seeded,
//! consistently ordered nested `TrackedMutex` pairs with a binary spill
//! sink attached. There is no deadlock to find.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use df_events::{SinkHandle, SpillConfig, TraceFormat};
use df_lock::{DeadlockHandler, TrackedMutex, Tracker, TrackerConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::trace::{TimedSink, Tracer};
use crate::{derive_seed, PassOut, TracedTally};

/// OS threads hammering the locks.
pub const THREADS: usize = 2;
const LOCKS: usize = 16;
/// Nested acquisitions per thread per pass.
const OPS_PER_THREAD: usize = 60_000;
/// Ring capacity of the spill (frames): the writer thread encodes off
/// the lock path, and a full ring makes producers wait.
const RING_FRAMES: usize = 4_096;

/// Bytes are counted, not kept: the spill's cost is the encoding and
/// the hand-off, and a pass spills several megabytes.
#[derive(Default)]
struct CountingWriter(u64);

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

type Sink = df_events::AnySpillSink<CountingWriter>;

pub struct NativeLocks {
    /// Per thread, the (outer, inner) lock pair of each op.
    ops: Vec<Arc<Vec<(usize, usize)>>>,
}

impl NativeLocks {
    /// Draws the per-thread op sequences and warms up with a short
    /// burst.
    pub fn setup(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 4));
        let ops = (0..THREADS)
            .map(|_| {
                Arc::new(
                    (0..OPS_PER_THREAD)
                        .map(|_| {
                            let a = rng.gen_range(0..LOCKS - 1);
                            (a, rng.gen_range(a + 1..LOCKS))
                        })
                        .collect(),
                )
            })
            .collect();
        let w = NativeLocks { ops };
        w.burst(OPS_PER_THREAD / 20, None);
        w
    }

    /// One untraced burst. Work items are lock acquisitions.
    pub fn pass(&self) -> PassOut {
        self.burst(OPS_PER_THREAD, None)
    }

    pub fn traced_pass(&self, tracer: &Arc<Tracer>, tally: &mut TracedTally) -> PassOut {
        self.burst(OPS_PER_THREAD, Some((tracer, tally)))
    }

    /// Runs `ops` nested acquisitions on each thread under a fresh
    /// tracker. Traced, each thread's loop is a span and every `lock()`
    /// call is timed.
    fn burst(&self, ops: usize, traced: Option<(&Arc<Tracer>, &mut TracedTally)>) -> PassOut {
        let obs = df_obs::Obs::default();
        let spill = SpillConfig::with_format(TraceFormat::Binary).with_ring(RING_FRAMES);
        let sink = Arc::new(Mutex::new(TimedSink::new(
            Sink::new(CountingWriter::default(), &spill).expect("spill preamble"),
            traced.is_some(),
        )));
        let deadlocks = Arc::new(Mutex::new(0u32));
        let seen = Arc::clone(&deadlocks);
        let tracker = Tracker::new(
            TrackerConfig::default()
                .with_obs(obs.clone())
                .with_sink(SinkHandle::single(sink.clone()))
                .with_handler(DeadlockHandler::Callback(Arc::new(move |_| {
                    *seen.lock().expect("deadlock count") += 1;
                }))),
        );
        let locks: Arc<Vec<TrackedMutex<u64>>> = Arc::new(
            (0..LOCKS)
                .map(|_| TrackedMutex::with_tracker(&tracker, 0))
                .collect(),
        );
        let tracer = traced.as_ref().map(|(t, _)| Arc::clone(t));
        let start = Instant::now();
        let run = |parent| {
            let handles: Vec<_> = self
                .ops
                .iter()
                .enumerate()
                .map(|(i, seq)| {
                    let seq = Arc::clone(seq);
                    let locks = Arc::clone(&locks);
                    let tracer = tracer.clone();
                    tracker.spawn(&format!("hammer{i}"), move || match tracer {
                        Some(t) => t.span("df-lock.hammer", parent, |id| {
                            (Some(id), hammer(&locks, &seq[..ops], true))
                        }),
                        None => (None, hammer(&locks, &seq[..ops], false)),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("hammer thread"))
                .collect::<Vec<_>>()
        };
        let threads = match &tracer {
            Some(t) => t.span("df-lock.burst", None, |id| run(Some(id))),
            None => run(None),
        };
        let seal = || {
            tracker.seal();
            let mut guard = sink.lock().expect("spill sink");
            let (events, bytes) = guard.inner.close().expect("seal spill");
            (events, bytes, guard.ns, guard.inner.backpressure_waits())
        };
        let (events, bytes, encode_ns, waits) = match &tracer {
            Some(t) => t.span("df-events.seal", None, |_| seal()),
            None => seal(),
        };
        let wall = start.elapsed().as_secs_f64();
        let mut out = PassOut::new(wall);
        let total_ops = (ops * THREADS) as u64;
        out.work = total_ops as f64;
        let counted: u64 = locks.iter().map(|l| *l.lock().expect("counter lock")).sum();
        let found = *deadlocks.lock().expect("deadlock count");
        out.check(
            counted == 2 * total_ops && found == 0 && events >= 4 * total_ops,
            format!(
                "native-locks: counters {counted} (want {}), {found} deadlocks, {events} events",
                2 * total_ops
            ),
        );
        out.digest = format!("{counted} {found}");
        if let (Some((tracer, tally)), true) = (traced, !threads.is_empty()) {
            // The sink is shared, so its encode time is a sum over both
            // threads; they do equal work, so each hammer span is
            // credited an equal share.
            let share = encode_ns / threads.len() as u64;
            for (id, samples) in &threads {
                if let Some(id) = id {
                    tracer.fold_into(*id, "df-events.encode", share);
                }
                tally
                    .acquire_ns
                    .extend(samples.iter().map(|&s| f64::from(s)));
            }
            let snap = obs.counters().snapshot();
            tally.lock_ops += total_ops as f64;
            tally.wfg_edges += snap.wfg_edges as f64;
            tally.events += events as f64;
            tally.spill_bytes += bytes as f64;
            tally.backpressure_waits += waits as f64;
        }
        out
    }
}

/// Takes each op's two locks outer-first, bumps both counters, and
/// releases. Returns per-acquire latencies in ns when `timed`.
fn hammer(locks: &[TrackedMutex<u64>], seq: &[(usize, usize)], timed: bool) -> Vec<u32> {
    let mut samples = Vec::with_capacity(if timed { seq.len() * 2 } else { 0 });
    let mut take = |i: usize| {
        if !timed {
            return locks[i].lock().expect("tracked lock");
        }
        let start = Instant::now();
        let g = locks[i].lock().expect("tracked lock");
        samples.push(u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX));
        g
    };
    for &(a, b) in seq {
        let mut ga = take(a);
        let mut gb = take(b);
        *ga += 1;
        *gb += 1;
    }
    samples
}
