//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, plus the decorators that time a layer's fine-grained
//! calls (strategy picks, sink events) without recording each one.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use df_events::{Event, EventSink, ObjId, ThreadId, Trace};
use df_runtime::{Directive, StateView, Strategy, StrategyStats};

use crate::stats::self_time;

/// Identifies a span within one run.
pub type SpanId = u32;

/// One closed span. `name` is `<layer>.<what>`; `folded` holds the
/// summed time of fine-grained child calls, keyed by their own
/// `<layer>.<what>` name.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub pass: u32,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub folded: Vec<(&'static str, u64)>,
}

/// Collects spans in memory; shared by reference across threads.
pub struct Tracer {
    epoch: Instant,
    pass: AtomicU32,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            pass: AtomicU32::new(0),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Tags the spans opened from now on with pass `pass`.
    pub fn set_pass(&self, pass: u32) {
        self.pass.store(pass, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` gets the
    /// new span's id (for children) and returns its result plus the
    /// folded child time it measured.
    pub fn span_folded<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> (R, Vec<(&'static str, u64)>),
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let pass = self.pass.load(Ordering::Relaxed);
        let start_ns = self.now();
        let (result, folded) = f(id);
        let end_ns = self.now();
        self.spans.lock().expect("span list").push(Span {
            id,
            pass,
            name,
            parent,
            start_ns,
            end_ns,
            folded,
        });
        result
    }

    /// [`Tracer::span_folded`] without folded child time.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        self.span_folded(name, parent, |id| (f(id), Vec::new()))
    }

    /// Adds folded child time to the closed span `id`.
    pub fn fold_into(&self, id: SpanId, name: &'static str, ns: u64) {
        let mut spans = self.spans.lock().expect("span list");
        if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
            s.folded.push((name, ns));
        }
    }

    /// Every span closed so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list").clone()
    }
}

/// The layer a span or folded-call name belongs to: the text before
/// its first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time in ns per layer over `spans` (one pass's worth): each
/// span's duration minus what its direct children and folded calls
/// cover, credited to the span's layer; folded calls are credited to
/// their own layers.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let folded: u64 = s.folded.iter().map(|(_, ns)| ns).sum();
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        *out.entry(layer_of(s.name).to_string()).or_default() +=
            self_time(s.start_ns, s.end_ns, kids, folded);
        for (name, ns) in &s.folded {
            *out.entry(layer_of(name).to_string()).or_default() += ns;
        }
    }
    out
}

/// `spans` grouped by the name of the root span each descends from.
pub fn by_root(spans: &[Span]) -> BTreeMap<&'static str, Vec<Span>> {
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut out: BTreeMap<&'static str, Vec<Span>> = BTreeMap::new();
    for s in spans {
        let mut root = s;
        while let Some(p) = root.parent.and_then(|p| by_id.get(&p)) {
            root = p;
        }
        out.entry(root.name).or_default().push(s.clone());
    }
    out
}

/// Wall time covered by root spans (those without a parent), in ns.
pub fn root_cover_ns(spans: &[Span]) -> u64 {
    let roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    crate::stats::covered(0, u64::MAX, &roots)
}

/// Summed duration of the spans named `name`, or of the folded calls
/// named `name`, in ns.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .map(|s| {
            let own = if s.name == name {
                s.end_ns - s.start_ns
            } else {
                0
            };
            own + s
                .folded
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, ns)| ns)
                .sum::<u64>()
        })
        .sum()
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let folded: Vec<String> = s
            .folded
            .iter()
            .map(|(n, ns)| format!("\"{n}\": {ns}"))
            .collect();
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"pass\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"folded\": {{{}}}}}",
            s.pass,
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            folded.join(", ")
        )?;
    }
    out.flush()
}

/// Summed time of a strategy's `pick` and `on_event` calls, and the
/// number of picks.
#[derive(Default)]
pub struct StrategyTally {
    pub pick_calls: AtomicU64,
    pub pick_ns: AtomicU64,
    pub event_ns: AtomicU64,
}

impl StrategyTally {
    /// The tally as folded calls for a span.
    pub fn folded(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("df-fuzzer.pick", self.pick_ns.load(Ordering::Relaxed)),
            ("df-fuzzer.on_event", self.event_ns.load(Ordering::Relaxed)),
        ]
    }
}

/// A [`Strategy`] decorator timing the wrapped strategy's calls.
pub struct TimedStrategy {
    inner: Box<dyn Strategy>,
    tally: Arc<StrategyTally>,
}

impl TimedStrategy {
    pub fn new(inner: Box<dyn Strategy>, tally: Arc<StrategyTally>) -> Self {
        TimedStrategy { inner, tally }
    }
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Strategy for TimedStrategy {
    fn pick(&mut self, view: &StateView<'_>, enabled: &[ThreadId]) -> Directive {
        let start = Instant::now();
        let d = self.inner.pick(view, enabled);
        self.tally
            .pick_ns
            .fetch_add(elapsed_ns(start), Ordering::Relaxed);
        self.tally.pick_calls.fetch_add(1, Ordering::Relaxed);
        d
    }

    fn on_event(&mut self, event: &Event, view: &StateView<'_>) {
        let start = Instant::now();
        self.inner.on_event(event, view);
        self.tally
            .event_ns
            .fetch_add(elapsed_ns(start), Ordering::Relaxed);
    }

    fn finish(&mut self) -> StrategyStats {
        self.inner.finish()
    }
}

/// An [`EventSink`] decorator summing the time the wrapped sink spends
/// per event (for a spill sink: encoding and handing the frame on).
/// Built with `timed` off it only forwards, so an untraced pass pays no
/// clock reads.
pub struct TimedSink<S> {
    pub inner: S,
    pub ns: u64,
    timed: bool,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, timed: bool) -> Self {
        TimedSink {
            inner,
            ns: 0,
            timed,
        }
    }

    fn time(&mut self, f: impl FnOnce(&mut S)) {
        if !self.timed {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        f(&mut self.inner);
        self.ns += elapsed_ns(start);
    }
}

impl<S: EventSink> EventSink for TimedSink<S> {
    fn on_event(&mut self, event: &Event) {
        self.time(|s| s.on_event(event));
    }

    fn on_thread_bound(&mut self, thread: ThreadId, obj: ObjId) {
        self.inner.on_thread_bound(thread, obj);
    }

    fn on_finish(&mut self, trace: &Trace) {
        self.time(|s| s.on_finish(trace));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, name: &'static str, parent: Option<SpanId>, s: u64, e: u64) -> Span {
        Span {
            id,
            pass: 0,
            name,
            parent,
            start_ns: s,
            end_ns: e,
            folded: Vec::new(),
        }
    }

    #[test]
    fn layer_self_time_credits_children_and_folded_calls() {
        let mut trial = span(2, "df-runtime.trial", Some(0), 20, 80);
        trial.folded = vec![("df-fuzzer.pick", 15), ("df-fuzzer.on_event", 5)];
        let spans = vec![
            span(0, "deadlock-fuzzer.confirm", None, 0, 100),
            span(1, "df-igoodlock.join", Some(0), 5, 15),
            trial,
            // Overlaps the trial: counted once against the parent.
            span(3, "df-runtime.trial", Some(0), 70, 90),
        ];
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer["deadlock-fuzzer"], 100 - 10 - 70);
        assert_eq!(by_layer["df-igoodlock"], 10);
        assert_eq!(by_layer["df-runtime"], (60 - 20) + 20);
        assert_eq!(by_layer["df-fuzzer"], 20);
        assert_eq!(by_layer.values().sum::<u64>(), 100 + 10);
        assert_eq!(total_ns(&spans, "df-fuzzer.pick"), 15);
        assert_eq!(total_ns(&spans, "df-runtime.trial"), 80);
    }
}
