//! Live progress accounting for batch evaluation.
//!
//! The evaluation pipeline is instrumented with cheap counter hooks —
//! batch submission and per-point completion in mc-exec's pool, retries
//! and terminal failures in mc-guard's supervisor, memo-cache hits and
//! adaptive samples saved in the launcher — all guarded by one relaxed
//! atomic load, exactly like the tracer and the metrics registry. A
//! binary that wants live output installs a [`ProgressSink`]
//! (mc-pulse ships a TTY renderer and a JSONL streamer); libraries never
//! format anything themselves.
//!
//! Determinism note: completion *order* under a parallel pool is
//! scheduling-dependent, so sinks that need a byte-stable stream must do
//! their own monotonic accounting from the event kinds alone (mc-pulse's
//! JSONL sink does); the [`ProgressSnapshot`] passed alongside is a racy
//! convenience for human-facing displays.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// What just happened. Batch events bracket one [`crate`]-instrumented
/// pool run; `PointDone` fires once per completed item (ok or failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressEvent {
    /// A batch of `points` items entered the pool.
    BatchStarted {
        /// Item count of the batch that just started.
        points: u64,
    },
    /// One item finished (successfully or not).
    PointDone,
    /// A batch drained: every submitted item completed.
    BatchFinished,
}

/// Cumulative counters since [`install_progress`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProgressSnapshot {
    /// Points submitted across all batches.
    pub total: u64,
    /// Points completed (ok or failed).
    pub done: u64,
    /// Terminal evaluation failures (quarantined by mc-guard).
    pub failed: u64,
    /// Retry attempts consumed by mc-guard.
    pub retries: u64,
    /// Evaluation-memo hits (other memo caches do not count).
    pub cache_hits: u64,
    /// Evaluation-memo misses (computed evaluations).
    pub cache_misses: u64,
    /// Timed samples the adaptive protocol skipped versus the fixed
    /// budget.
    pub samples_saved: u64,
    /// Batches started.
    pub batches: u64,
    /// Wall microseconds since progress tracking was installed.
    pub elapsed_micros: u64,
}

impl ProgressSnapshot {
    /// Completed points per second (0 until the clock has advanced).
    pub fn throughput(&self) -> f64 {
        if self.elapsed_micros == 0 {
            return 0.0;
        }
        self.done as f64 / (self.elapsed_micros as f64 / 1e6)
    }

    /// Estimated seconds to finish the remaining points at the observed
    /// rate; `None` before the first completion.
    pub fn eta_seconds(&self) -> Option<f64> {
        if self.done == 0 || self.total <= self.done {
            return None;
        }
        let rate = self.throughput();
        (rate > 0.0).then(|| (self.total - self.done) as f64 / rate)
    }

    /// Memo-cache hit rate in `[0, 1]`; `None` before the first lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses;
        (lookups > 0).then(|| self.cache_hits as f64 / lookups as f64)
    }
}

/// A live-progress consumer. Callbacks arrive from arbitrary worker
/// threads, possibly concurrently; implementations synchronize
/// internally.
pub trait ProgressSink: Send + Sync {
    /// One progress event, with the counters as of shortly after it.
    fn on_progress(&self, event: ProgressEvent, snapshot: &ProgressSnapshot);
}

static PROGRESS_ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static DONE: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);
static RETRIES: AtomicU64 = AtomicU64::new(0);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static SAMPLES_SAVED: AtomicU64 = AtomicU64::new(0);
static BATCHES: AtomicU64 = AtomicU64::new(0);

fn progress_slot() -> &'static RwLock<Option<Arc<dyn ProgressSink>>> {
    static SINK: OnceLock<RwLock<Option<Arc<dyn ProgressSink>>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(None))
}

fn progress_epoch() -> &'static RwLock<Option<Instant>> {
    static EPOCH: OnceLock<RwLock<Option<Instant>>> = OnceLock::new();
    EPOCH.get_or_init(|| RwLock::new(None))
}

/// Installs the progress sink, zeroes every counter, and pins the
/// elapsed-time epoch. Replaces any previous sink.
pub fn install_progress(sink: Arc<dyn ProgressSink>) {
    for counter in
        [&TOTAL, &DONE, &FAILED, &RETRIES, &CACHE_HITS, &CACHE_MISSES, &SAMPLES_SAVED, &BATCHES]
    {
        counter.store(0, Ordering::SeqCst);
    }
    *progress_epoch().write().expect("progress epoch lock poisoned") = Some(Instant::now());
    *progress_slot().write().expect("progress sink lock poisoned") = Some(sink);
    PROGRESS_ENABLED.store(true, Ordering::Release);
}

/// Disables progress tracking and drops the sink.
pub fn uninstall_progress() {
    PROGRESS_ENABLED.store(false, Ordering::Release);
    progress_slot().write().expect("progress sink lock poisoned").take();
}

/// True when a progress sink is installed — the hot-path guard.
#[inline]
pub fn progress_enabled() -> bool {
    PROGRESS_ENABLED.load(Ordering::Relaxed)
}

/// The counters as of now (all zero when tracking is off).
pub fn progress_snapshot() -> ProgressSnapshot {
    let elapsed_micros = progress_epoch()
        .read()
        .expect("progress epoch lock poisoned")
        .map(|epoch| epoch.elapsed().as_micros() as u64)
        .unwrap_or(0);
    ProgressSnapshot {
        total: TOTAL.load(Ordering::Relaxed),
        done: DONE.load(Ordering::Relaxed),
        failed: FAILED.load(Ordering::Relaxed),
        retries: RETRIES.load(Ordering::Relaxed),
        cache_hits: CACHE_HITS.load(Ordering::Relaxed),
        cache_misses: CACHE_MISSES.load(Ordering::Relaxed),
        samples_saved: SAMPLES_SAVED.load(Ordering::Relaxed),
        batches: BATCHES.load(Ordering::Relaxed),
        elapsed_micros,
    }
}

fn notify(event: ProgressEvent) {
    if let Some(sink) = progress_slot().read().expect("progress sink lock poisoned").as_ref() {
        sink.on_progress(event, &progress_snapshot());
    }
}

/// A batch of `points` items entered the evaluation pool.
pub fn progress_batch_started(points: u64) {
    if !progress_enabled() {
        return;
    }
    TOTAL.fetch_add(points, Ordering::Relaxed);
    BATCHES.fetch_add(1, Ordering::Relaxed);
    notify(ProgressEvent::BatchStarted { points });
}

/// One item completed (ok or failed).
pub fn progress_point_done() {
    if !progress_enabled() {
        return;
    }
    DONE.fetch_add(1, Ordering::Relaxed);
    notify(ProgressEvent::PointDone);
}

/// A batch drained.
pub fn progress_batch_finished() {
    if !progress_enabled() {
        return;
    }
    notify(ProgressEvent::BatchFinished);
}

/// One evaluation failed terminally (no notification — the failure's
/// `PointDone` still arrives from the pool).
pub fn progress_point_failed() {
    if progress_enabled() {
        FAILED.fetch_add(1, Ordering::Relaxed);
    }
}

/// One retry attempt was consumed.
pub fn progress_retry() {
    if progress_enabled() {
        RETRIES.fetch_add(1, Ordering::Relaxed);
    }
}

/// One evaluation-memo hit.
pub fn progress_cache_hit() {
    if progress_enabled() {
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
    }
}

/// One evaluation-memo miss.
pub fn progress_cache_miss() {
    if progress_enabled() {
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    }
}

/// The adaptive protocol skipped `n` timed samples versus its budget.
pub fn progress_samples_saved(n: u64) {
    if progress_enabled() && n > 0 {
        SAMPLES_SAVED.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Progress state is process-global; tests serialize on this lock.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[derive(Default)]
    struct RecordingSink {
        events: Mutex<Vec<(ProgressEvent, ProgressSnapshot)>>,
    }

    impl ProgressSink for RecordingSink {
        fn on_progress(&self, event: ProgressEvent, snapshot: &ProgressSnapshot) {
            self.events.lock().unwrap().push((event, *snapshot));
        }
    }

    #[test]
    fn hooks_are_inert_until_installed() {
        let _g = guard();
        uninstall_progress();
        progress_batch_started(5);
        progress_point_done();
        progress_point_failed();
        assert_eq!(progress_snapshot(), ProgressSnapshot::default());
    }

    #[test]
    fn install_resets_and_counts_flow_through() {
        let _g = guard();
        let sink = Arc::new(RecordingSink::default());
        install_progress(sink.clone());
        progress_batch_started(3);
        progress_cache_hit();
        progress_cache_miss();
        progress_retry();
        progress_samples_saved(4);
        progress_point_done();
        progress_point_failed();
        progress_point_done();
        progress_point_done();
        progress_batch_finished();
        let snap = progress_snapshot();
        uninstall_progress();
        assert_eq!(snap.total, 3);
        assert_eq!(snap.done, 3);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.samples_saved, 4);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.cache_hit_rate(), Some(0.5));
        let events = sink.events.lock().unwrap();
        assert_eq!(
            events.first().map(|(e, _)| *e),
            Some(ProgressEvent::BatchStarted { points: 3 })
        );
        assert_eq!(events.last().map(|(e, _)| *e), Some(ProgressEvent::BatchFinished));
        assert_eq!(
            events.iter().filter(|(e, _)| *e == ProgressEvent::PointDone).count(),
            3,
            "{events:?}"
        );
    }

    #[test]
    fn eta_needs_completions_and_remaining_work() {
        let snap = ProgressSnapshot {
            total: 10,
            done: 5,
            elapsed_micros: 1_000_000,
            ..ProgressSnapshot::default()
        };
        assert_eq!(snap.throughput(), 5.0);
        assert_eq!(snap.eta_seconds(), Some(1.0));
        let fresh = ProgressSnapshot { total: 10, ..ProgressSnapshot::default() };
        assert_eq!(fresh.eta_seconds(), None);
        let finished = ProgressSnapshot {
            total: 10,
            done: 10,
            elapsed_micros: 1,
            ..ProgressSnapshot::default()
        };
        assert_eq!(finished.eta_seconds(), None);
    }
}
