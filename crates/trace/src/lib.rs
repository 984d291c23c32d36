//! # mc-trace — structured tracing, metrics, and run provenance
//!
//! The MicroTools reproduction is about *measurement you can trust*, and
//! this crate applies that standard to the tools themselves: every stage
//! of the MicroCreator pipeline and every phase of the MicroLauncher
//! protocol can report what it did, how long it took, and under which
//! configuration — without perturbing the measurements when nobody is
//! listening.
//!
//! Four layers, all std-only (no external dependencies):
//!
//! * [`event`](mod@event) — [`TraceEvent`]: spans, point events, and routed
//!   diagnostics with a flat JSONL wire format,
//! * [`sink`] — pluggable [`TraceSink`]s: JSONL writer and an in-memory
//!   buffer for tests — plus [`chrome`]'s Perfetto/Chrome-trace timeline
//!   exporter,
//! * [`metrics`](mod@metrics) — a thread-safe [`MetricsRegistry`] of counters, gauges,
//!   histograms (p50/p95/max) and per-name span aggregates, rendered by
//!   [`summary`],
//! * [`progress`] — live batch progress read from the metrics registry, and
//!   the [`ProgressSink`] surface mc-pulse's displays consume.
//!
//! The tracer is a process-global dispatcher in the style of the `log`
//! crate: libraries call [`span`]/[`event()`]/[`diag!`] unconditionally, and
//! the calls are a single relaxed atomic load — no clock read, no
//! allocation — until a binary installs a sink with [`install`] or turns
//! the metrics registry on with [`enable_metrics`]. A span opened with
//! metrics on and no sink only reads the clock: on drop it folds its wall
//! time into the registry's aggregate for its name, and builds no event.
//!
//! ```
//! use std::sync::Arc;
//! let sink = Arc::new(mc_trace::MemorySink::new());
//! mc_trace::install(sink.clone());
//! {
//!     let mut span = mc_trace::span("demo.work");
//!     span.field("items", 3u64);
//! } // span end emits one event
//! mc_trace::uninstall();
//! assert_eq!(sink.events()[0].name, "demo.work");
//! ```

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod progress;
pub mod sink;
pub mod summary;

pub use chrome::ChromeTraceSink;
pub use event::{EventKind, TraceEvent, Value};
pub use metrics::{Counter, HistogramStats, MetricsRegistry, MetricsSnapshot};
pub use progress::{
    install_progress, progress_batch_finished, progress_batch_started, progress_enabled,
    progress_point_done, progress_snapshot, uninstall_progress, ProgressEvent, ProgressSink,
    ProgressSnapshot,
};
pub use sink::{JsonlSink, MemorySink, TraceSink};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// The switch word every hook reads: [`SINK_ON`] and [`METRICS_ON`] bits.
static SWITCHES: AtomicU8 = AtomicU8::new(0);
/// A sink is installed: spans and events emit.
const SINK_ON: u8 = 1;
/// The metrics registry records: spans fold into their name's aggregate.
const METRICS_ON: u8 = 2;
static QUIET: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);

fn sink_slot() -> &'static RwLock<Option<Arc<dyn TraceSink>>> {
    static SINK: OnceLock<RwLock<Option<Arc<dyn TraceSink>>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(None))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the tracer's epoch (first use).
fn now_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Installs the global sink and enables tracing.
pub fn install(sink: Arc<dyn TraceSink>) {
    epoch(); // pin the time base before the first event
    *sink_slot().write().expect("trace sink lock poisoned") = Some(sink);
    SWITCHES.fetch_or(SINK_ON, Ordering::Release);
}

/// Disables tracing, flushes, and drops the sink.
pub fn uninstall() {
    SWITCHES.fetch_and(!SINK_ON, Ordering::Release);
    let sink = sink_slot().write().expect("trace sink lock poisoned").take();
    if let Some(sink) = sink {
        sink.flush();
    }
}

/// Flushes the installed sink without removing it.
pub fn flush() {
    if let Some(sink) = sink_slot().read().expect("trace sink lock poisoned").as_ref() {
        sink.flush();
    }
}

/// True when a sink is installed — the hot-path guard. A single relaxed
/// atomic load, so instrumented code costs nothing when tracing is off.
#[inline]
pub fn enabled() -> bool {
    SWITCHES.load(Ordering::Relaxed) & SINK_ON != 0
}

/// Turns metrics recording on or off (off by default).
pub fn enable_metrics(on: bool) {
    if on {
        SWITCHES.fetch_or(METRICS_ON, Ordering::Release);
    } else {
        SWITCHES.fetch_and(!METRICS_ON, Ordering::Release);
    }
}

/// True when metrics recording is on — guard for hot-path call sites.
#[inline]
pub fn metrics_enabled() -> bool {
    SWITCHES.load(Ordering::Relaxed) & METRICS_ON != 0
}

/// The process-global metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    static METRICS: OnceLock<MetricsRegistry> = OnceLock::new();
    METRICS.get_or_init(MetricsRegistry::new)
}

/// Suppresses [`diag!`] output on stderr (`--quiet`).
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Release);
}

/// True when diagnostics are suppressed.
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// Stamps and emits one event through the installed sink. Most callers
/// want the higher-level [`span`]/[`event()`]/[`diag!`] entry points.
pub fn emit(mut event: TraceEvent) {
    if !enabled() {
        return;
    }
    event.seq = SEQ.fetch_add(1, Ordering::Relaxed);
    if event.micros == 0 {
        event.micros = now_micros();
    }
    if let Some(sink) = sink_slot().read().expect("trace sink lock poisoned").as_ref() {
        sink.record(&event);
    }
}

/// Emits a point event with the given fields, if tracing is enabled.
pub fn event(name: &str, fields: Vec<(&str, Value)>) {
    if !enabled() {
        return;
    }
    let mut e = TraceEvent::new(EventKind::Event, name);
    e.fields = fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
    emit(e);
}

/// A span guard: records wall time from creation to drop. It has three
/// states, fixed when it is opened:
///
/// * inert (no sink, metrics off) — no clock read, no allocation;
/// * timing-only (metrics on, no sink) — one clock read at each end, and
///   the wall time folds into the registry's aggregate for the span's
///   name ([`MetricsRegistry::observe_span`]); no event is built;
/// * emitting (a sink is installed) — one `kind:"span"` event with the
///   attached fields, and the fold too when metrics are on.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    start: Instant,
    fold: bool,
    /// The event's start stamp and fields, when a sink is installed.
    event: Option<(u64, Vec<(String, Value)>)>,
}

/// Opens a span. Drop it (or let it fall out of scope) to emit and fold.
pub fn span(name: &'static str) -> Span {
    let switches = SWITCHES.load(Ordering::Relaxed);
    if switches == 0 {
        return Span { inner: None };
    }
    Span {
        inner: Some(SpanInner {
            name,
            start: Instant::now(),
            fold: switches & METRICS_ON != 0,
            event: (switches & SINK_ON != 0).then(|| (now_micros(), Vec::new())),
        }),
    }
}

impl Span {
    /// Attaches one field; a no-op unless the span will emit.
    pub fn field(&mut self, key: &str, value: impl Into<Value>) {
        if let Some((_, fields)) = self.inner.as_mut().and_then(|i| i.event.as_mut()) {
            fields.push((key.to_owned(), value.into()));
        }
    }

    /// True when this span will emit an event (a sink was installed at
    /// creation) — the guard for building fields.
    pub fn is_active(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.event.is_some())
    }

    /// Discards the span: it neither emits nor folds.
    pub fn cancel(mut self) {
        self.inner = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let micros = inner.start.elapsed().as_micros() as u64;
        if inner.fold {
            metrics().observe_span(inner.name, micros);
        }
        if let Some((start_micros, fields)) = inner.event {
            let mut event = TraceEvent::new(EventKind::Span, inner.name);
            event.micros = start_micros;
            event.duration_micros = Some(micros);
            event.fields = fields;
            emit(event);
        }
    }
}

/// Routes one diagnostic line: stderr unless [`set_quiet`], plus a
/// `kind:"diag"` trace event when a sink is installed. Prefer the
/// [`diag!`] macro.
pub fn diag_str(message: &str) {
    if !quiet() {
        eprintln!("{message}");
    }
    if enabled() {
        emit(TraceEvent::new(EventKind::Diag, "diag").with("msg", message));
    }
}

/// `eprintln!`-style diagnostics that honor `--quiet` and land in the
/// trace: `mc_trace::diag!("cannot read {path}: {e}")`.
#[macro_export]
macro_rules! diag {
    ($($arg:tt)*) => {
        $crate::diag_str(&format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The tracer, the metrics switch and progress are process-global;
    /// tests touching any of them take this lock.
    pub(crate) fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn with_memory_sink(body: impl FnOnce(&MemorySink)) -> Vec<TraceEvent> {
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        body(&sink);
        uninstall();
        sink.events()
    }

    #[test]
    fn span_records_fields_and_duration() {
        let _g = guard();
        let events = with_memory_sink(|_| {
            let mut s = span("test.span");
            assert!(s.is_active());
            s.field("n", 7u64);
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Span);
        assert_eq!(events[0].name, "test.span");
        assert_eq!(events[0].field("n").and_then(Value::as_u64), Some(7));
        assert!(events[0].duration_micros.is_some());
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_spans_are_inert() {
        let _g = guard();
        uninstall();
        metrics().reset();
        let aggregate = |name| metrics().snapshot().span(name).map(|h| h.count);

        // Both switches off: inert, nothing recorded.
        let s = span("ghost");
        assert!(!s.is_active());
        assert!(s.inner.is_none());
        drop(s);
        event("ghost.event", vec![("k", Value::from(1u64))]);
        assert!(metrics().snapshot().is_empty());

        // Metrics on, no sink: one aggregate, no event built or stamped.
        enable_metrics(true);
        let seq = SEQ.load(Ordering::Relaxed);
        let mut s = span("timed");
        assert!(!s.is_active());
        assert!(s.inner.as_ref().is_some_and(|i| i.fold && i.event.is_none()));
        s.field("ignored", 1u64);
        drop(s);
        assert_eq!(aggregate("timed"), Some(1));
        assert_eq!(SEQ.load(Ordering::Relaxed), seq, "no event reached emit");

        // Sink and metrics on: today's event, plus the aggregate.
        let events = with_memory_sink(|_| {
            let mut s = span("timed");
            assert!(s.is_active());
            s.field("n", 3u64);
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "timed");
        assert_eq!(events[0].field("n").and_then(Value::as_u64), Some(3));
        assert_eq!(aggregate("timed"), Some(2));

        // A cancelled span neither emits nor folds.
        let events = with_memory_sink(|_| span("timed").cancel());
        assert!(events.is_empty());
        assert_eq!(aggregate("timed"), Some(2));

        enable_metrics(false);
        metrics().reset();
        // Installing afterwards shows the buffer empty.
        let events = with_memory_sink(|_| {});
        assert!(events.is_empty());
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let _g = guard();
        let events = with_memory_sink(|_| {
            event("a", vec![]);
            event("b", vec![]);
            event("c", vec![]);
        });
        assert!(events.windows(2).all(|w| w[1].seq > w[0].seq), "{events:?}");
    }

    #[test]
    fn cancelled_span_does_not_emit() {
        let _g = guard();
        let events = with_memory_sink(|_| {
            span("will.cancel").cancel();
        });
        assert!(events.is_empty());
    }

    #[test]
    fn diag_lands_in_the_trace() {
        let _g = guard();
        set_quiet(true); // keep test output clean
        let events = with_memory_sink(|_| {
            diag!("something {} happened", 42);
        });
        set_quiet(false);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Diag);
        assert_eq!(events[0].field("msg").and_then(Value::as_str), Some("something 42 happened"));
    }

    #[test]
    fn metrics_toggle() {
        let _g = guard();
        assert!(!metrics_enabled());
        enable_metrics(true);
        assert!(metrics_enabled());
        metrics().inc("toggle.test", 2);
        assert_eq!(metrics().snapshot().counter("toggle.test"), Some(2));
        enable_metrics(false);
        metrics().reset();
    }
}
