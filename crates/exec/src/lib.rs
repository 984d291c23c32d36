//! # mc-exec — the parallel evaluation engine
//!
//! The paper's studies push thousands of generated variants through the
//! measurement harness (§4, Figures 3–5, 11–18). Every evaluation point is
//! a pure function of its `(Program, LauncherOptions)` inputs — the
//! simulator is deterministic — so points are embarrassingly parallel and
//! perfectly cacheable. This crate provides the two pieces the sweep and
//! figure drivers build on:
//!
//! * [`ExecEngine`] — a scoped thread pool whose workers claim items from
//!   one shared queue and fan a batch across the machine and collects results **in submission order**,
//!   so parallel sweeps are bit-identical to serial ones,
//! * [`MemoCache`] — a sharded memoization cache shared process-wide, so
//!   identical evaluations are computed once and reused across sweeps and
//!   figures.
//!
//! Worker count resolution (highest priority first): an explicit
//! [`set_jobs`] call (the binaries' `--jobs=N` flag), the
//! `MICROTOOLS_JOBS` environment variable, then the machine's available
//! parallelism. `jobs=1` falls back to inline serial execution with no
//! threads spawned.

pub mod cache;
pub mod pool;

pub use cache::{HashedKey, MemoCache, ShardKey};
pub use pool::ExecEngine;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Explicit worker-count override; 0 = unset.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count (the `--jobs=N` flag). Clamped to
/// at least 1; overrides the `MICROTOOLS_JOBS` environment variable.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The effective worker count: [`set_jobs`] override, else
/// `MICROTOOLS_JOBS`, else available parallelism.
pub fn jobs() -> usize {
    let explicit = JOBS.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Some(n) = jobs_from_env() {
        return n;
    }
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

fn jobs_from_env() -> Option<usize> {
    let value = std::env::var("MICROTOOLS_JOBS").ok()?;
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// An engine sized by the current [`jobs`] resolution.
pub fn engine() -> ExecEngine {
    ExecEngine::new(jobs())
}

/// Parses a `--jobs=N` value (the shared CLI surface).
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    value
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("--jobs: invalid worker count `{value}` (want a positive integer)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// The metrics registry, its switch and live progress are
    /// process-global; every test that runs an engine or toggles them
    /// serializes on this lock, so an enabled-metrics window never
    /// observes a sibling test's batches.
    pub(crate) fn metrics_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert_eq!(parse_jobs(" 1 "), Ok(1));
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("-2").is_err());
        assert!(parse_jobs("many").is_err());
    }

    #[test]
    fn explicit_jobs_override_wins() {
        // Note: process-global; keep the override in place only briefly.
        set_jobs(3);
        assert_eq!(jobs(), 3);
        assert_eq!(engine().workers(), 3);
        JOBS.store(0, Ordering::SeqCst);
        assert!(jobs() >= 1);
    }
}
