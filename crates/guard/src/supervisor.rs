//! The supervisor: panic isolation, deadlines, retries, quarantine.

use crate::error::{EvalError, EvalErrorKind};
use crate::fault;
use crate::policy::{backoff_delay, policy, GuardPolicy};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Duration;

/// One quarantined evaluation: a terminal failure the sweep survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Global eval index (see [`crate::reserve_indices`]).
    pub index: u64,
    /// Human label, typically the kernel name.
    pub label: String,
    /// The terminal failure.
    pub error: EvalError,
}

fn quarantine_slot() -> &'static Mutex<Vec<QuarantineEntry>> {
    static LIST: OnceLock<Mutex<Vec<QuarantineEntry>>> = OnceLock::new();
    LIST.get_or_init(|| Mutex::new(Vec::new()))
}

/// Everything quarantined so far, in failure order.
pub fn quarantine_snapshot() -> Vec<QuarantineEntry> {
    quarantine_slot().lock().expect("quarantine lock poisoned").clone()
}

/// Terminal failures so far.
pub fn failure_count() -> u64 {
    quarantine_slot().lock().expect("quarantine lock poisoned").len() as u64
}

/// True once more evaluations have failed than the policy's error
/// budget allows.
pub fn over_budget() -> bool {
    failure_count() > policy().max_failures
}

/// Empties the quarantine list (start of a new run, or tests).
pub fn clear_quarantine() {
    quarantine_slot().lock().expect("quarantine lock poisoned").clear();
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
/// Unguarded panics — anything outside [`supervise`] — still reach the
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
    index: u64,
    f: &(dyn Fn() -> Result<R, String> + Sync),
) -> Result<R, (EvalErrorKind, String)> {
    install_panic_hook();
    GUARDED.with(|g| g.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        fault::fire(index)?;
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
    index: u64,
    f: &Arc<F>,
    deadline: Option<Duration>,
) -> Result<R, (EvalErrorKind, String)>
where
    R: Send + 'static,
    F: Fn() -> Result<R, String> + Send + Sync + 'static,
{
    let Some(limit) = deadline else {
        return guarded_call(index, f.as_ref());
    };
    let (sender, receiver) = mpsc::channel();
    let eval = f.clone();
    let spawned =
        std::thread::Builder::new().name(format!("mc-guard-eval-{index}")).spawn(move || {
            let _ = sender.send(guarded_call(index, eval.as_ref()));
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

/// Runs one evaluation under the process-wide [`GuardPolicy`]: fault
/// hook, panic isolation, optional deadline, bounded deterministic
/// retries. Terminal failures are quarantined and reported as
/// [`EvalError`]; the calling worker thread always survives.
pub fn supervise<R, F>(index: u64, label: &str, f: F) -> Result<R, EvalError>
where
    R: Send + 'static,
    F: Fn() -> Result<R, String> + Send + Sync + 'static,
{
    supervise_with(&policy(), index, label, f)
}

/// [`supervise`] under an explicit policy (tests and embedders).
pub fn supervise_with<R, F>(
    policy: &GuardPolicy,
    index: u64,
    label: &str,
    f: F,
) -> Result<R, EvalError>
where
    R: Send + 'static,
    F: Fn() -> Result<R, String> + Send + Sync + 'static,
{
    if policy.fail_fast && failure_count() > policy.max_failures {
        // Budget already spent: skip without running. Not quarantined —
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
        match attempt(index, &f, policy.deadline) {
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
                    mc_trace::progress_retry();
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
                    std::thread::sleep(backoff_delay(policy, index, attempts));
                    continue;
                }
                let error = EvalError::new(kind, message, attempts);
                quarantine_slot().lock().expect("quarantine lock poisoned").push(QuarantineEntry {
                    index,
                    label: label.to_owned(),
                    error: error.clone(),
                });
                mc_trace::progress_point_failed();
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// The quarantine list and policy are process-global; tests touching
    /// them serialize here.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn a_panicking_eval_returns_a_structured_error() {
        let _g = guard();
        clear_quarantine();
        let p = GuardPolicy::default();
        let result: Result<u32, _> =
            supervise_with(&p, 900_001, "boom", || panic!("poisoned variant"));
        let error = result.unwrap_err();
        assert_eq!(error.kind, EvalErrorKind::Panic);
        assert!(error.message.contains("poisoned variant"), "{}", error.message);
        assert!(error.message.contains("supervisor.rs"), "location captured: {}", error.message);
        let q = quarantine_snapshot();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].label, "boom");
        assert_eq!(q[0].index, 900_001);
        clear_quarantine();
    }

    #[test]
    fn retries_recover_transient_failures_and_count_attempts() {
        let _g = guard();
        clear_quarantine();
        let p = GuardPolicy { retries: 3, backoff_base_ms: 1, ..GuardPolicy::default() };
        let calls = Arc::new(AtomicU32::new(0));
        let seen = calls.clone();
        let result = supervise_with(&p, 900_002, "flaky", move || {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".to_owned())
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert!(quarantine_snapshot().is_empty(), "recovered evals are not quarantined");
    }

    #[test]
    fn exhausted_retries_report_the_attempt_count() {
        let _g = guard();
        clear_quarantine();
        let p = GuardPolicy { retries: 2, backoff_base_ms: 1, ..GuardPolicy::default() };
        let result: Result<u32, _> =
            supervise_with(&p, 900_003, "hopeless", || Err("always".to_owned()));
        let error = result.unwrap_err();
        assert_eq!(error.kind, EvalErrorKind::Failed);
        assert_eq!(error.attempts, 3);
        assert_eq!(failure_count(), 1);
        clear_quarantine();
    }

    #[test]
    fn the_deadline_abandons_a_hung_eval() {
        let _g = guard();
        clear_quarantine();
        let p = GuardPolicy { deadline: Some(Duration::from_millis(30)), ..GuardPolicy::default() };
        let started = std::time::Instant::now();
        let result: Result<u32, _> = supervise_with(&p, 900_004, "hang", || {
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
        clear_quarantine();
    }

    #[test]
    fn a_deadline_does_not_disturb_fast_evals() {
        let _g = guard();
        clear_quarantine();
        let p = GuardPolicy { deadline: Some(Duration::from_secs(30)), ..GuardPolicy::default() };
        let result = supervise_with(&p, 900_005, "fast", || Ok::<_, String>(41u32));
        assert_eq!(result.unwrap(), 41);
        assert!(quarantine_snapshot().is_empty());
    }

    #[test]
    fn fail_fast_skips_once_the_budget_is_spent() {
        let _g = guard();
        clear_quarantine();
        let p = GuardPolicy { fail_fast: true, max_failures: 0, ..GuardPolicy::default() };
        let first: Result<u32, _> = supervise_with(&p, 900_006, "a", || Err("boom".to_owned()));
        assert_eq!(first.unwrap_err().kind, EvalErrorKind::Failed);
        let second = supervise_with(&p, 900_007, "b", || Ok::<_, String>(1u32));
        assert_eq!(second.unwrap_err().kind, EvalErrorKind::Skipped);
        // Skips are not new failures: the quarantine holds only the real one.
        assert_eq!(failure_count(), 1);
        clear_quarantine();
    }

    #[test]
    fn enospc_fires_on_the_scheduled_write_only() {
        let _g = guard();
        crate::install_faults(crate::FaultPlan::new().enospc_at(1));
        crate::reset_write_indices();
        assert!(crate::fire_write("first").is_ok());
        let error = crate::fire_write("second").expect_err("write index 1 must fail");
        assert!(error.to_string().contains("ENOSPC"), "{error}");
        assert!(error.to_string().contains("second"), "{error}");
        assert!(crate::fire_write("third").is_ok());
        crate::clear_faults();
        // Inactive plans consume no indices and fail nothing.
        let before = crate::next_write_index();
        assert!(crate::fire_write("idle").is_ok());
        assert_eq!(crate::next_write_index(), before);
    }

    #[test]
    fn injected_faults_fire_inside_the_guarded_region() {
        let _g = guard();
        clear_quarantine();
        crate::install_faults(crate::FaultPlan::new().panic_at(900_008).flaky_at(900_009, 1));
        let p = GuardPolicy { retries: 1, backoff_base_ms: 1, ..GuardPolicy::default() };
        let panicked: Result<u32, _> = supervise_with(&p, 900_008, "inj", || Ok(1));
        assert_eq!(panicked.unwrap_err().kind, EvalErrorKind::Panic);
        // flaky@N:1 fails the first attempt only; one retry recovers it.
        let recovered = supervise_with(&p, 900_009, "inj", || Ok::<_, String>(2u32));
        assert_eq!(recovered.unwrap(), 2);
        crate::clear_faults();
        clear_quarantine();
    }
}
