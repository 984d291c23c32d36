//! The supervision policy: deadlines, retries, and the error budget.

use std::time::Duration;

/// Base backoff between attempts; attempt `n` waits
/// `BACKOFF_BASE_MS * 2^(n-1) + jitter`.
const BACKOFF_BASE_MS: u64 = 25;
/// Seed for the backoff jitter, so retry schedules are reproducible.
const RETRY_SEED: u64 = 0x6d63_6775_6172_6421; // "mcguard!"

/// A run's supervision knobs, set by the binary from its flags and held
/// by the run's [`crate::Guard`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuardPolicy {
    /// Per-eval wall-clock deadline. `None` disables the watchdog and
    /// runs evaluations inline on the worker thread.
    pub deadline: Option<Duration>,
    /// Retries after the first failed attempt (0 = single attempt).
    pub retries: u32,
    /// Error budget: the run is considered failed (exit code 3) only
    /// when more than this many evaluations fail terminally.
    pub max_failures: u64,
    /// When true, evaluations that start after the budget is spent are
    /// skipped instead of run (`--fail-fast`). The default keeps going
    /// so every point is evaluated and CSV output is deterministic.
    pub fail_fast: bool,
}

/// The deterministic backoff before retry `attempt` (1-based: the wait
/// after the first failure is `attempt = 1`). Exponential in the attempt
/// with seeded FNV-1a jitter over the eval index, so a re-run retries on
/// exactly the same schedule — no wall clock, no RNG state.
pub(crate) fn backoff_delay(index: u64, attempt: u32) -> Duration {
    let scaled = BACKOFF_BASE_MS.saturating_mul(1u64 << attempt.saturating_sub(1).min(8));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [RETRY_SEED, index, u64::from(attempt)] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Duration::from_millis(scaled + h % BACKOFF_BASE_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let first = backoff_delay(7, 1);
        assert_eq!(first, backoff_delay(7, 1), "same inputs, same delay");
        let second = backoff_delay(7, 2);
        assert!(second >= Duration::from_millis(2 * BACKOFF_BASE_MS), "{second:?}");
        assert!(first < Duration::from_millis(2 * BACKOFF_BASE_MS), "{first:?}");
    }

    #[test]
    fn backoff_exponent_saturates() {
        let capped = backoff_delay(0, 1000);
        assert!(capped <= Duration::from_millis(BACKOFF_BASE_MS * 257), "{capped:?}");
    }
}
