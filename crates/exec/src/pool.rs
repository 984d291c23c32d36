//! The scoped-thread batch pool.
//!
//! A batch is a `Vec` of items plus one evaluation function. Items are
//! tagged with their submission index and shared through one locked
//! iterator; each worker claims the next item until the iterator is dry,
//! so a slow item never holds up the rest. Results are scattered back into
//! submission-index slots, so the caller always gets them in submission
//! order — scheduling nondeterminism never reaches the result: parallel
//! output is bit-identical to serial.

use mc_trace::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// A fixed-width scoped thread pool for one batch at a time.
///
/// The pool is cheap to construct (no threads until [`ExecEngine::run`]);
/// a width of 1 runs the batch inline on the caller's thread.
#[derive(Debug, Clone, Copy)]
pub struct ExecEngine {
    workers: usize,
}

impl ExecEngine {
    /// An engine with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        ExecEngine { workers: workers.max(1) }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates `f` over every item, returning results in submission
    /// order regardless of which worker computed them.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let points = items.len();
        let workers = self.workers.min(points.max(1));
        let mut span = mc_trace::span("exec.batch");
        span.field("points", points as u64);
        span.field("workers", workers as u64);
        let completed = record_batch_admitted(points, workers);
        mc_trace::progress_batch_started(points as u64);
        let start = Instant::now();
        let busy_nanos = AtomicU64::new(0);

        let results: Vec<R> = if workers <= 1 {
            let out: Vec<R> = items
                .into_iter()
                .map(|item| {
                    let t0 = Instant::now();
                    let r = f(item);
                    busy_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    point_done(completed.as_ref());
                    r
                })
                .collect();
            out
        } else {
            let queue = Mutex::new(items.into_iter().enumerate());
            let (queue, f, busy_nanos, completed) = (&queue, &f, &busy_nanos, completed.as_ref());
            let mut slots: Vec<Option<R>> = (0..points).map(|_| None).collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                // Claim in its own statement so the lock is
                                // released before the item is evaluated.
                                let next =
                                    queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                                let Some((index, item)) = next else { break };
                                let t0 = Instant::now();
                                let r = f(item);
                                busy_nanos
                                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                                done.push((index, r));
                                point_done(completed);
                            }
                            done
                        })
                    })
                    .collect();
                for handle in handles {
                    let done =
                        handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    for (index, r) in done {
                        slots[index] = Some(r);
                    }
                }
            });
            slots.into_iter().map(|slot| slot.expect("every submitted index completes")).collect()
        };

        let wall = start.elapsed();
        record_batch(workers, wall.as_secs_f64(), busy_nanos.into_inner());
        mc_trace::progress_batch_finished();
        span.field("wall_ms", wall.as_secs_f64() * 1e3);
        results
    }
}

/// Batch admission telemetry, recorded when the batch *starts* so a live
/// metrics scrape mid-sweep (and live progress) already sees the
/// submitted point count. Returns the `exec.batch.done` counter the
/// batch's completed points tick, when metrics are on.
fn record_batch_admitted(points: usize, workers: usize) -> Option<Counter> {
    if !mc_trace::metrics_enabled() {
        return None;
    }
    let m = mc_trace::metrics();
    m.inc("exec.batch.points", points as u64);
    m.gauge_set("exec.pool.workers", workers as f64);
    Some(m.counter("exec.batch.done"))
}

/// Counts one completed item, then tells progress (whose snapshot sees it).
fn point_done(completed: Option<&Counter>) {
    if let Some(completed) = completed {
        completed.inc();
    }
    mc_trace::progress_point_done();
}

/// End-of-batch telemetry: utilization (busy time over `workers × wall`).
/// The batch's count and wall time are the `exec.batch` span aggregate.
fn record_batch(workers: usize, wall_seconds: f64, busy_nanos: u64) {
    if !mc_trace::metrics_enabled() {
        return;
    }
    let m = mc_trace::metrics();
    let capacity = workers as f64 * wall_seconds;
    if capacity > 0.0 {
        m.gauge_set("exec.pool.utilization", (busy_nanos as f64 / 1e9 / capacity).min(1.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::metrics_lock;

    #[test]
    fn results_come_back_in_submission_order() {
        let _guard = metrics_lock();
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 8] {
            let got = ExecEngine::new(workers).run(items.clone(), |x| x * x);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn parallel_matches_serial_under_uneven_work() {
        let _guard = metrics_lock();
        // Skewed task costs unbalance the workers; order must still hold.
        let items: Vec<u64> = (0..64).collect();
        let work = |x: u64| {
            let spin = if x.is_multiple_of(7) { 40_000 } else { 10 };
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        };
        let serial = ExecEngine::new(1).run(items.clone(), work);
        let parallel = ExecEngine::new(8).run(items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_batches_work() {
        let _guard = metrics_lock();
        let engine = ExecEngine::new(4);
        assert_eq!(engine.run(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(engine.run(vec![41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn zero_width_clamps_to_one() {
        assert_eq!(ExecEngine::new(0).workers(), 1);
    }

    #[test]
    fn batch_metrics_are_recorded() {
        let _guard = metrics_lock();
        mc_trace::metrics().reset();
        mc_trace::enable_metrics(true);
        ExecEngine::new(4).run((0..32u64).collect(), |x| x + 1);
        mc_trace::enable_metrics(false);
        let snapshot = mc_trace::metrics().snapshot();
        mc_trace::metrics().reset();
        assert_eq!(snapshot.span("exec.batch").map(|h| h.count), Some(1));
        assert_eq!(snapshot.counter("exec.batch.points"), Some(32));
        assert_eq!(snapshot.gauge("exec.pool.workers"), Some(4.0));
        let utilization = snapshot.gauge("exec.pool.utilization").expect("utilization gauge");
        assert!((0.0..=1.0).contains(&utilization), "utilization {utilization}");
    }

    struct Quiet;

    impl mc_trace::ProgressSink for Quiet {
        fn on_progress(&self, _: mc_trace::ProgressEvent, _: &mc_trace::ProgressSnapshot) {}
    }

    #[test]
    fn progress_counts_only_the_work_after_install() {
        let _guard = metrics_lock();
        let m = mc_trace::metrics();
        m.reset();
        for name in ["exec.batch.points", "exec.batch.done", "exec.cache.hit", "exec.cache.miss"] {
            m.inc(name, 50);
        }
        let memo: crate::MemoCache<u64, u64> = crate::MemoCache::new("exec.cache");
        mc_trace::install_progress(std::sync::Arc::new(Quiet));
        for workers in [1, 2] {
            // Keys 0..4 repeat: the first batch misses four and hits two,
            // the second hits all six.
            ExecEngine::new(workers)
                .run((0..6u64).collect(), |k| memo.get_or_compute(k % 4, || k % 4));
        }
        let snapshot = mc_trace::progress_snapshot();
        mc_trace::uninstall_progress();
        assert!(!mc_trace::metrics_enabled());
        m.reset();
        assert_eq!((snapshot.total, snapshot.done), (12, 12));
        assert_eq!((snapshot.cache_hits, snapshot.cache_misses), (8, 4));
    }

    #[test]
    fn progress_and_metrics_off_record_nothing() {
        let _guard = metrics_lock();
        let m = mc_trace::metrics();
        m.reset();
        for workers in [1, 2] {
            ExecEngine::new(workers).run((0..6u64).collect(), |x| x + 1);
        }
        let snapshot = m.snapshot();
        let names =
            snapshot.counters.iter().map(|(n, _)| n).chain(snapshot.gauges.iter().map(|(n, _)| n));
        assert_eq!(names.filter(|n| n.starts_with("exec.")).count(), 0, "{snapshot:?}");
        assert_eq!(snapshot.span("exec.batch"), None);
        assert_eq!(mc_trace::progress_snapshot(), mc_trace::ProgressSnapshot::default());
    }
}
