//! Per-client admission quotas: token buckets plus an error budget.
//!
//! Every submitting client gets a token bucket — `capacity` tokens,
//! refilled continuously at `refill_per_sec` — and a failure tally.
//! Admission takes one token per accepted job; an empty bucket yields a
//! typed rejection carrying the exact time until the next token, which
//! the API layer surfaces as `429` + `Retry-After`. Failures (a client's
//! jobs panicking or timing out) count against an error budget modeled
//! on [`mc_guard::GuardPolicy`]: once a client exceeds `max_failures`
//! terminal job failures, further submissions are refused until the
//! daemon restarts — a misbehaving submitter cannot grind the pool
//! through an endless stream of doomed kernels, and other clients keep
//! their own untouched buckets.
//!
//! All decision methods take `now: Instant` so tests drive time
//! explicitly instead of sleeping.

use std::collections::HashMap;
use std::time::Instant;

/// Admission-control knobs, per client.
#[derive(Debug, Clone, Copy)]
pub struct QuotaConfig {
    /// Burst size: tokens a fresh (or long-idle) client holds.
    pub capacity: f64,
    /// Sustained rate: tokens regained per second.
    pub refill_per_sec: f64,
    /// Terminal job failures tolerated before the client is refused
    /// outright (mirrors the guard's error budget).
    pub max_failures: u64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig { capacity: 16.0, refill_per_sec: 4.0, max_failures: 8 }
    }
}

/// One client's refillable token bucket.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

/// What the bucket said to one take attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Take {
    /// A token was consumed; admit.
    Granted,
    /// Bucket empty; retry after this many milliseconds.
    Denied { retry_after_ms: u64 },
}

/// The per-client quota table.
#[derive(Debug)]
pub struct ClientQuotas {
    config: QuotaConfig,
    buckets: HashMap<String, TokenBucket>,
    failures: HashMap<String, u64>,
}

impl ClientQuotas {
    /// An empty table under `config`.
    pub fn new(config: QuotaConfig) -> Self {
        ClientQuotas { config, buckets: HashMap::new(), failures: HashMap::new() }
    }

    /// The governing configuration.
    pub fn config(&self) -> &QuotaConfig {
        &self.config
    }

    /// Attempts to take one admission token for `client` at `now`.
    pub fn try_take(&mut self, client: &str, now: Instant) -> Take {
        let config = self.config;
        let bucket = self
            .buckets
            .entry(client.to_owned())
            .or_insert_with(|| TokenBucket { tokens: config.capacity, last: now });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * config.refill_per_sec).min(config.capacity);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return Take::Granted;
        }
        let retry_after_ms = if config.refill_per_sec > 0.0 {
            (((1.0 - bucket.tokens) / config.refill_per_sec) * 1000.0).ceil() as u64
        } else {
            // No refill configured: the bucket never recovers; report a
            // long but finite backoff so clients keep a retry path.
            60_000
        };
        Take::Denied { retry_after_ms: retry_after_ms.max(1) }
    }

    /// Records one terminal job failure against `client`.
    pub fn note_failure(&mut self, client: &str) {
        *self.failures.entry(client.to_owned()).or_insert(0) += 1;
    }

    /// This client's terminal failure count so far.
    pub fn failure_count(&self, client: &str) -> u64 {
        self.failures.get(client).copied().unwrap_or(0)
    }

    /// True once `client` has spent its error budget (strictly more
    /// failures than the budget, matching `mc_guard::Guard::over_budget`).
    pub fn over_budget(&self, client: &str) -> bool {
        self.failure_count(client) > self.config.max_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quotas(capacity: f64, refill: f64) -> ClientQuotas {
        ClientQuotas::new(QuotaConfig {
            capacity,
            refill_per_sec: refill,
            ..QuotaConfig::default()
        })
    }

    #[test]
    fn a_burst_drains_the_bucket_and_reports_the_refill_time() {
        let mut q = quotas(2.0, 4.0);
        let t0 = Instant::now();
        assert_eq!(q.try_take("a", t0), Take::Granted);
        assert_eq!(q.try_take("a", t0), Take::Granted);
        match q.try_take("a", t0) {
            Take::Denied { retry_after_ms } => {
                // One token at 4/s is 250 ms away.
                assert!((1..=250).contains(&retry_after_ms), "{retry_after_ms}");
            }
            Take::Granted => panic!("third take should be denied"),
        }
        // After the advertised wait, a token is back.
        assert_eq!(q.try_take("a", t0 + Duration::from_millis(250)), Take::Granted);
    }

    #[test]
    fn clients_have_independent_buckets() {
        let mut q = quotas(1.0, 1.0);
        let t0 = Instant::now();
        assert_eq!(q.try_take("a", t0), Take::Granted);
        assert!(matches!(q.try_take("a", t0), Take::Denied { .. }));
        assert_eq!(q.try_take("b", t0), Take::Granted, "b is unaffected by a's burst");
    }

    #[test]
    fn zero_refill_reports_a_finite_backoff() {
        let mut q = quotas(1.0, 0.0);
        let t0 = Instant::now();
        assert_eq!(q.try_take("a", t0), Take::Granted);
        assert_eq!(q.try_take("a", t0), Take::Denied { retry_after_ms: 60_000 });
    }

    #[test]
    fn the_error_budget_trips_strictly_past_max_failures() {
        let mut q = ClientQuotas::new(QuotaConfig { max_failures: 2, ..QuotaConfig::default() });
        q.note_failure("a");
        q.note_failure("a");
        assert!(!q.over_budget("a"), "at the budget is still admissible");
        q.note_failure("a");
        assert!(q.over_budget("a"));
        assert!(!q.over_budget("b"), "budgets are per client");
    }
}
