//! The supervisor: panic isolation, deadlines, retries, the error
//! budget — one [`Guard`] per run.

use crate::error::{EvalError, EvalErrorKind};
use crate::fault::{EvalFaults, FaultPlan};
use crate::policy::{backoff_delay, GuardPolicy};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Once};
use std::time::Duration;

/// One run's supervision state: its [`GuardPolicy`], the evaluation half
/// of its [`FaultPlan`], its eval-index sequence and its count of
/// terminal failures. Two guards share nothing, so concurrent runs see
/// neither each other's faults nor each other's error budget.
#[derive(Debug, Default)]
pub struct Guard {
    policy: GuardPolicy,
    faults: Arc<EvalFaults>,
    next_index: AtomicU64,
    failures: AtomicU64,
}

impl Guard {
    /// A guard under `policy` that fires `plan`'s evaluation faults.
    pub fn new(policy: GuardPolicy, plan: FaultPlan) -> Guard {
        let guard = Guard { policy, ..Guard::default() };
        guard.set_faults(plan);
        guard
    }

    /// The policy every evaluation of this guard runs under.
    pub fn policy(&self) -> &GuardPolicy {
        &self.policy
    }

    /// Replaces the evaluation fault plan (test and chaos hook).
    pub fn set_faults(&self, plan: FaultPlan) {
        self.faults.set(plan);
    }

    /// Reserves `count` consecutive eval indices for a batch and returns
    /// the first. Reservation happens at submission time, so index
    /// assignment is independent of worker count and scheduling order.
    pub fn reserve(&self, count: usize) -> u64 {
        self.next_index.fetch_add(count as u64, Ordering::Relaxed)
    }

    /// The next index [`Guard::reserve`] would hand out.
    pub fn next_index(&self) -> u64 {
        self.next_index.load(Ordering::Relaxed)
    }

    /// Terminal failures so far.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// True once more evaluations have failed than the policy's error
    /// budget allows.
    pub fn over_budget(&self) -> bool {
        self.failures() > self.policy.max_failures
    }

    /// Runs one evaluation under this guard's policy: fault hook, panic
    /// isolation, optional deadline, bounded deterministic retries.
    /// Terminal failures are counted and reported as [`EvalError`]; the
    /// calling worker thread always survives.
    pub fn supervise<R, F>(&self, index: u64, label: &str, f: F) -> Result<R, EvalError>
    where
        R: Send + 'static,
        F: Fn() -> Result<R, String> + Send + Sync + 'static,
    {
        let policy = &self.policy;
        if policy.fail_fast && self.over_budget() {
            // Budget already spent: skip without running. Not counted —
            // the skip is a consequence of earlier failures, not a new one.
            if mc_trace::metrics_enabled() {
                mc_trace::metrics().inc("guard.skipped", 1);
            }
            return Err(EvalError::new(
                EvalErrorKind::Skipped,
                "error budget exhausted (--fail-fast)",
                0,
            ));
        }
        let f = Arc::new(f);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match attempt(&self.faults, index, &f, policy.deadline) {
                Ok(value) => {
                    if attempts > 1 && mc_trace::metrics_enabled() {
                        mc_trace::metrics().inc("guard.recovered", 1);
                    }
                    return Ok(value);
                }
                Err((kind, message)) => {
                    if attempts <= policy.retries {
                        if mc_trace::metrics_enabled() {
                            mc_trace::metrics().inc("guard.retries", 1);
                        }
                        mc_trace::event(
                            "guard.retry",
                            vec![
                                ("index", index.into()),
                                ("label", label.into()),
                                ("attempt", attempts.into()),
                                ("kind", kind.name().into()),
                                ("error", message.as_str().into()),
                            ],
                        );
                        std::thread::sleep(backoff_delay(index, attempts));
                        continue;
                    }
                    let error = EvalError::new(kind, message, attempts);
                    self.failures.fetch_add(1, Ordering::Relaxed);
                    if mc_trace::metrics_enabled() {
                        mc_trace::metrics().inc("guard.failures", 1);
                        if kind == EvalErrorKind::Panic {
                            mc_trace::metrics().inc("guard.panics", 1);
                        }
                    }
                    mc_trace::event(
                        "guard.failure",
                        vec![
                            ("index", index.into()),
                            ("label", label.into()),
                            ("kind", kind.name().into()),
                            ("attempts", attempts.into()),
                            ("error", error.message.as_str().into()),
                        ],
                    );
                    return Err(error);
                }
            }
        }
    }
}

thread_local! {
    /// True while this thread is inside a guarded evaluation; the panic
    /// hook captures instead of printing.
    static GUARDED: Cell<bool> = const { Cell::new(false) };
    /// Location of the last captured panic on this thread.
    static LAST_PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs (once) a panic hook that suppresses the default stderr
/// backtrace for guarded evaluations and records the panic location.
/// Unguarded panics — anything outside [`Guard::supervise`] — still reach the
/// previous hook unchanged.
fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if GUARDED.with(Cell::get) {
                let location = info.location().map(|l| format!("{}:{}", l.file(), l.line()));
                LAST_PANIC_LOCATION.with(|slot| *slot.borrow_mut() = location);
            } else {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic payload of unknown type".to_owned());
    match LAST_PANIC_LOCATION.with(|slot| slot.borrow_mut().take()) {
        Some(location) => format!("{message} (at {location})"),
        None => message,
    }
}

/// One guarded attempt, run on the current thread: fault hook, then the
/// evaluation, under `catch_unwind`.
fn guarded_call<R>(
    faults: &EvalFaults,
    index: u64,
    f: &(dyn Fn() -> Result<R, String> + Sync),
) -> Result<R, (EvalErrorKind, String)> {
    install_panic_hook();
    GUARDED.with(|g| g.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        faults.fire(index)?;
        f()
    }));
    GUARDED.with(|g| g.set(false));
    match outcome {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(message)) => Err((EvalErrorKind::Failed, message)),
        Err(payload) => Err((EvalErrorKind::Panic, panic_message(payload))),
    }
}

/// One attempt under the policy's deadline: the evaluation runs on a
/// sacrificial thread while the calling worker stands watch on the
/// channel. On timeout the thread is abandoned (it parks no locks the
/// pool needs and its result is discarded on arrival) and the attempt
/// reports [`EvalErrorKind::Timeout`].
fn attempt<R, F>(
    faults: &Arc<EvalFaults>,
    index: u64,
    f: &Arc<F>,
    deadline: Option<Duration>,
) -> Result<R, (EvalErrorKind, String)>
where
    R: Send + 'static,
    F: Fn() -> Result<R, String> + Send + Sync + 'static,
{
    let Some(limit) = deadline else {
        return guarded_call(faults, index, f.as_ref());
    };
    let (sender, receiver) = mpsc::channel();
    let eval = f.clone();
    let faults = faults.clone();
    let spawned =
        std::thread::Builder::new().name(format!("mc-guard-eval-{index}")).spawn(move || {
            let _ = sender.send(guarded_call(&faults, index, eval.as_ref()));
        });
    let handle = match spawned {
        Ok(handle) => handle,
        Err(e) => return Err((EvalErrorKind::Failed, format!("cannot spawn eval thread: {e}"))),
    };
    match receiver.recv_timeout(limit) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        Err(_) => {
            // Watchdog fired: detach the hung thread and move on.
            drop(handle);
            if mc_trace::metrics_enabled() {
                mc_trace::metrics().inc("guard.timeouts", 1);
            }
            Err((EvalErrorKind::Timeout, format!("exceeded the {limit:?} per-eval deadline")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn guard(policy: GuardPolicy) -> Guard {
        Guard::new(policy, FaultPlan::new())
    }

    #[test]
    fn a_panicking_eval_returns_a_structured_error() {
        let g = guard(GuardPolicy::default());
        let result: Result<u32, _> = g.supervise(1, "boom", || panic!("poisoned variant"));
        let error = result.unwrap_err();
        assert_eq!(error.kind, EvalErrorKind::Panic);
        assert!(error.message.contains("poisoned variant"), "{}", error.message);
        assert!(error.message.contains("supervisor.rs"), "location captured: {}", error.message);
        assert_eq!(g.failures(), 1);
        assert!(g.over_budget(), "the default budget tolerates no failure");
    }

    #[test]
    fn retries_recover_transient_failures_and_count_attempts() {
        let g = guard(GuardPolicy { retries: 3, ..GuardPolicy::default() });
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let result = g.supervise(2, "flaky", move || {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".to_owned())
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(g.failures(), 0, "recovered evals are not counted");
    }

    #[test]
    fn exhausted_retries_report_the_attempt_count() {
        let g = guard(GuardPolicy { retries: 2, ..GuardPolicy::default() });
        let result: Result<u32, _> = g.supervise(3, "hopeless", || Err("always".to_owned()));
        let error = result.unwrap_err();
        assert_eq!(error.kind, EvalErrorKind::Failed);
        assert_eq!(error.attempts, 3);
        assert_eq!(g.failures(), 1);
    }

    #[test]
    fn the_deadline_abandons_a_hung_eval() {
        let g = guard(GuardPolicy {
            deadline: Some(Duration::from_millis(30)),
            ..GuardPolicy::default()
        });
        let started = std::time::Instant::now();
        let result: Result<u32, _> = g.supervise(4, "hang", || {
            std::thread::sleep(Duration::from_millis(2_000));
            Ok(1)
        });
        let error = result.unwrap_err();
        assert_eq!(error.kind, EvalErrorKind::Timeout);
        assert!(
            started.elapsed() < Duration::from_millis(1_000),
            "watchdog must not wait for the hung eval: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_deadline_does_not_disturb_fast_evals() {
        let g = guard(GuardPolicy {
            deadline: Some(Duration::from_secs(30)),
            ..GuardPolicy::default()
        });
        let result = g.supervise(5, "fast", || Ok::<_, String>(41u32));
        assert_eq!(result.unwrap(), 41);
        assert_eq!(g.failures(), 0);
    }

    #[test]
    fn fail_fast_skips_once_the_budget_is_spent() {
        let g = guard(GuardPolicy { fail_fast: true, max_failures: 0, ..GuardPolicy::default() });
        let first: Result<u32, _> = g.supervise(6, "a", || Err("boom".to_owned()));
        assert_eq!(first.unwrap_err().kind, EvalErrorKind::Failed);
        let second = g.supervise(7, "b", || Ok::<_, String>(1u32));
        assert_eq!(second.unwrap_err().kind, EvalErrorKind::Skipped);
        // Skips are not new failures: the count holds only the real one.
        assert_eq!(g.failures(), 1);
    }

    #[test]
    fn injected_faults_fire_inside_the_guarded_region() {
        let g = Guard::new(
            GuardPolicy { retries: 1, ..GuardPolicy::default() },
            FaultPlan::new().panic_at(8).flaky_at(9, 1),
        );
        let panicked: Result<u32, _> = g.supervise(8, "inj", || Ok(1));
        assert_eq!(panicked.unwrap_err().kind, EvalErrorKind::Panic);
        // flaky@N:1 fails the first attempt only; one retry recovers it.
        let recovered = g.supervise(9, "inj", || Ok::<_, String>(2u32));
        assert_eq!(recovered.unwrap(), 2);
        // Another guard fires none of this one's faults.
        assert_eq!(
            guard(GuardPolicy::default()).supervise(8, "clean", || Ok::<_, String>(3u32)),
            Ok(3)
        );
        g.set_faults(FaultPlan::new());
        assert_eq!(g.supervise(8, "cleared", || Ok::<_, String>(4u32)), Ok(4));
    }

    #[test]
    fn index_reservation_is_contiguous() {
        let g = Guard::default();
        assert_eq!(g.reserve(10), 0);
        assert_eq!(g.next_index(), 10);
        assert_eq!(g.reserve(1), 10);
    }
}
