//! Live progress for batch evaluation: a view of the metrics registry.
//!
//! The evaluation pipeline already counts what a progress display needs
//! in the registry: `exec.batch.points` and `exec.batch.done` in mc-exec's
//! pool, `guard.retries` and `guard.failures` in mc-guard's supervisor,
//! `exec.cache.hit`/`exec.cache.miss` in the evaluation memo and
//! `launcher.samples_saved` in the adaptive protocol. [`install_progress`]
//! turns metrics on and records each of those counters as a baseline; a
//! [`ProgressSnapshot`] is their growth since. The pool's three notify
//! hooks (batch started, point done, batch finished) are one relaxed
//! atomic load until a binary installs a [`ProgressSink`] (mc-pulse ships
//! a TTY renderer and a JSONL streamer); libraries never format anything
//! themselves.
//!
//! Determinism note: completion *order* under a parallel pool is
//! scheduling-dependent, so sinks that need a byte-stable stream must do
//! their own monotonic accounting from the event kinds alone (mc-pulse's
//! JSONL sink does); the [`ProgressSnapshot`] passed alongside is a racy
//! convenience for human-facing displays.

use std::sync::atomic::{AtomicBool, Ordering};
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

/// Registry counter growth since [`install_progress`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProgressSnapshot {
    /// Points submitted across all batches.
    pub total: u64,
    /// Points completed (ok or failed).
    pub done: u64,
    /// Terminal evaluation failures (counted by mc-guard).
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

/// The registry counters behind a snapshot, in [`ProgressSnapshot`]
/// field order.
const COUNTERS: [&str; 7] = [
    "exec.batch.points",
    "exec.batch.done",
    "guard.failures",
    "guard.retries",
    "exec.cache.hit",
    "exec.cache.miss",
    "launcher.samples_saved",
];

static PROGRESS_ENABLED: AtomicBool = AtomicBool::new(false);

/// What [`install_progress`] set up.
struct Installed {
    sink: Arc<dyn ProgressSink>,
    epoch: Instant,
    baseline: [u64; COUNTERS.len()],
    /// The metrics switch as install found it, restored by uninstall.
    metrics_were_on: bool,
}

impl Installed {
    fn snapshot(&self) -> ProgressSnapshot {
        let now = crate::metrics().counts(COUNTERS);
        let [total, done, failed, retries, cache_hits, cache_misses, samples_saved] =
            std::array::from_fn(|i| now[i].saturating_sub(self.baseline[i]));
        ProgressSnapshot {
            total,
            done,
            failed,
            retries,
            cache_hits,
            cache_misses,
            samples_saved,
            elapsed_micros: self.epoch.elapsed().as_micros() as u64,
        }
    }
}

fn installed() -> &'static RwLock<Option<Installed>> {
    static INSTALLED: OnceLock<RwLock<Option<Installed>>> = OnceLock::new();
    INSTALLED.get_or_init(|| RwLock::new(None))
}

/// Installs the progress sink, turns metrics on, and counts from now:
/// the registry counters' current values become the baseline and the
/// elapsed-time epoch is pinned. Replaces any previous sink.
pub fn install_progress(sink: Arc<dyn ProgressSink>) {
    let mut slot = installed().write().expect("progress lock poisoned");
    // A reinstall keeps the switch the first install found.
    let metrics_were_on = slot.as_ref().map_or_else(crate::metrics_enabled, |p| p.metrics_were_on);
    crate::enable_metrics(true);
    *slot = Some(Installed {
        sink,
        epoch: Instant::now(),
        baseline: crate::metrics().counts(COUNTERS),
        metrics_were_on,
    });
    PROGRESS_ENABLED.store(true, Ordering::Release);
}

/// Disables progress tracking, drops the sink, and puts back the metrics
/// switch [`install_progress`] found.
pub fn uninstall_progress() {
    PROGRESS_ENABLED.store(false, Ordering::Release);
    if let Some(installed) = installed().write().expect("progress lock poisoned").take() {
        crate::enable_metrics(installed.metrics_were_on);
    }
}

/// True when a progress sink is installed — the hot-path guard.
#[inline]
pub fn progress_enabled() -> bool {
    PROGRESS_ENABLED.load(Ordering::Relaxed)
}

/// The counters as of now (all zero when tracking is off).
pub fn progress_snapshot() -> ProgressSnapshot {
    let installed = installed().read().expect("progress lock poisoned");
    installed.as_ref().map_or_else(ProgressSnapshot::default, Installed::snapshot)
}

fn notify(event: ProgressEvent) {
    if !progress_enabled() {
        return;
    }
    if let Some(installed) = installed().read().expect("progress lock poisoned").as_ref() {
        installed.sink.on_progress(event, &installed.snapshot());
    }
}

/// A batch of `points` items entered the evaluation pool.
pub fn progress_batch_started(points: u64) {
    notify(ProgressEvent::BatchStarted { points });
}

/// One item completed (ok or failed).
pub fn progress_point_done() {
    notify(ProgressEvent::PointDone);
}

/// A batch drained.
pub fn progress_batch_finished() {
    notify(ProgressEvent::BatchFinished);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::guard;
    use std::sync::Mutex;

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
        crate::metrics().inc("exec.batch.points", 5);
        progress_batch_started(5);
        progress_point_done();
        assert_eq!(progress_snapshot(), ProgressSnapshot::default());
        crate::metrics().reset();
    }

    #[test]
    fn snapshots_count_registry_growth_since_install() {
        let _g = guard();
        let m = crate::metrics();
        // Counts from before install are not this run's progress.
        for name in COUNTERS {
            m.inc(name, 100);
        }
        let sink = Arc::new(RecordingSink::default());
        install_progress(sink.clone());
        assert!(crate::metrics_enabled(), "progress reads the registry");
        m.inc("exec.batch.points", 3);
        progress_batch_started(3);
        m.inc("exec.cache.hit", 1);
        m.inc("exec.cache.miss", 1);
        m.inc("guard.retries", 1);
        m.inc("launcher.samples_saved", 4);
        m.inc("guard.failures", 1);
        for _ in 0..3 {
            m.inc("exec.batch.done", 1);
            progress_point_done();
        }
        progress_batch_finished();
        let snap = progress_snapshot();
        uninstall_progress();
        assert!(!crate::metrics_enabled(), "uninstall restores the switch");
        assert_eq!(progress_snapshot(), ProgressSnapshot::default());
        m.reset();
        let counts = (snap.total, snap.done, snap.failed, snap.retries);
        assert_eq!(counts, (3, 3, 1, 1));
        assert_eq!((snap.cache_hits, snap.cache_misses, snap.samples_saved), (1, 1, 4));
        assert_eq!(snap.cache_hit_rate(), Some(0.5));
        let events = sink.events.lock().unwrap();
        assert_eq!(
            events.first().map(|(e, s)| (*e, s.total)),
            Some((ProgressEvent::BatchStarted { points: 3 }, 3))
        );
        assert_eq!(
            events.last().map(|(e, s)| (*e, s.done)),
            Some((ProgressEvent::BatchFinished, 3))
        );
        let done: Vec<u64> = events
            .iter()
            .filter(|(e, _)| *e == ProgressEvent::PointDone)
            .map(|(_, s)| s.done)
            .collect();
        assert_eq!(done, [1, 2, 3], "each point's count lands before its event");
    }

    #[test]
    fn uninstall_leaves_metrics_on_when_they_were_on() {
        let _g = guard();
        crate::enable_metrics(true);
        install_progress(Arc::new(RecordingSink::default()));
        install_progress(Arc::new(RecordingSink::default()));
        uninstall_progress();
        assert!(crate::metrics_enabled());
        crate::enable_metrics(false);
        install_progress(Arc::new(RecordingSink::default()));
        install_progress(Arc::new(RecordingSink::default()));
        uninstall_progress();
        assert!(!crate::metrics_enabled(), "a reinstall keeps the first install's switch");
        crate::metrics().reset();
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
