//! Deterministic fault injection — the test-only hook behind the
//! recovery test suite and the CI kill/resume smoke.
//!
//! Evaluations are numbered by their run's [`crate::Guard`]: each batch
//! reserves a contiguous index range up front ([`crate::Guard::reserve`]),
//! so eval index `N` names the same point whether the pool runs 1 worker
//! or 8. A [`FaultPlan`] maps indices to faults; the guard fires them
//! inside the guarded region of every supervised attempt, before the
//! real evaluation runs.
//!
//! Plans are built programmatically or parsed from a spec string
//! ([`FaultPlan::parse`], the grammar of the `MICROTOOLS_FAULT`
//! environment variable in the binaries):
//!
//! ```text
//! panic@5            panic at eval index 5 (every attempt)
//! delay@10:500       sleep 500 ms at index 10 (every attempt)
//! io@7               injected I/O error at index 7 (every attempt)
//! flaky@3:2          error at index 3 for the first 2 attempts only
//! enospc@4           disk-full error at durable-write index 4
//! ```
//!
//! `enospc` faults ride a *separate*, process-wide counter and plan
//! ([`install_write_faults`]): durable writers (store records, hit
//! ledgers, registry files, job journals) own no run context, so they
//! call [`fire_write`] immediately before each write, and an injected
//! failure there must be skipped-and-counted by the caller — persistence
//! is best-effort, never a correctness dependency. The split keeps write
//! indices independent of how many evaluations ran first.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Panic with this message.
    Panic(String),
    /// Sleep this long, then continue normally.
    Delay(Duration),
    /// Fail the attempt with this error message.
    Error(String),
}

/// A deterministic schedule of faults keyed by eval index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// (eval index, fault, remaining fires; `u32::MAX` = unlimited).
    faults: Vec<(u64, Fault, u32)>,
    /// (durable-write index, remaining fires) for `enospc` injections.
    write_faults: Vec<(u64, u32)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panics at `index` on every attempt.
    pub fn panic_at(self, index: u64) -> Self {
        self.with(index, Fault::Panic(format!("injected panic at eval index {index}")), u32::MAX)
    }

    /// Sleeps `millis` at `index` on every attempt.
    pub fn delay_at(self, index: u64, millis: u64) -> Self {
        self.with(index, Fault::Delay(Duration::from_millis(millis)), u32::MAX)
    }

    /// Fails the attempt at `index` with an injected I/O error, every
    /// attempt.
    pub fn io_error_at(self, index: u64) -> Self {
        self.with(
            index,
            Fault::Error(format!("injected I/O error at eval index {index}")),
            u32::MAX,
        )
    }

    /// Fails the first `fires` attempts at `index`, then succeeds —
    /// exercises the retry path.
    pub fn flaky_at(self, index: u64, fires: u32) -> Self {
        self.with(index, Fault::Error(format!("injected transient error at index {index}")), fires)
    }

    /// Adds one fault with an explicit fire budget.
    pub fn with(mut self, index: u64, fault: Fault, fires: u32) -> Self {
        self.faults.push((index, fault, fires));
        self
    }

    /// Fails the durable write at write index `index` with a disk-full
    /// error (every attempt — a full disk does not heal by retrying).
    pub fn enospc_at(mut self, index: u64) -> Self {
        self.write_faults.push((index, u32::MAX));
        self
    }

    /// Parses the `MICROTOOLS_FAULT` spec grammar (see module docs).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("fault `{part}`: expected KIND@INDEX"))?;
            let (index, arg) = match rest.split_once(':') {
                Some((i, a)) => (i, Some(a)),
                None => (rest, None),
            };
            let index: u64 =
                index.parse().map_err(|_| format!("fault `{part}`: bad index `{index}`"))?;
            plan = match (kind, arg) {
                ("panic", None) => plan.panic_at(index),
                ("io", None) => plan.io_error_at(index),
                ("delay", Some(ms)) => plan.delay_at(
                    index,
                    ms.parse().map_err(|_| format!("fault `{part}`: bad delay `{ms}`"))?,
                ),
                ("flaky", Some(n)) => plan.flaky_at(
                    index,
                    n.parse().map_err(|_| format!("fault `{part}`: bad fire count `{n}`"))?,
                ),
                ("enospc", None) => plan.enospc_at(index),
                _ => {
                    return Err(format!(
                        "fault `{part}`: unknown kind (panic@I, delay@I:MS, io@I, flaky@I:N, \
                         enospc@I)"
                    ))
                }
            };
        }
        Ok(plan)
    }
}

/// The evaluation half of a [`FaultPlan`], owned by one [`crate::Guard`]
/// and shared with its attempts: under a deadline an attempt fires its
/// fault on the sacrificial thread, which may outlive the call.
#[derive(Debug, Default)]
pub(crate) struct EvalFaults {
    active: AtomicBool,
    faults: Mutex<Vec<(u64, Fault, u32)>>,
}

impl EvalFaults {
    /// Replaces the schedule with `plan`'s evaluation faults.
    pub(crate) fn set(&self, plan: FaultPlan) {
        let active = !plan.faults.is_empty();
        *self.faults.lock().unwrap_or_else(PoisonError::into_inner) = plan.faults;
        self.active.store(active, Ordering::Release);
    }

    /// Fires any fault scheduled at `index`. Called inside the guarded
    /// region of every attempt; a panic here is caught by the supervisor
    /// like any other evaluation panic. The non-firing path is one
    /// relaxed atomic load.
    pub(crate) fn fire(&self, index: u64) -> Result<(), String> {
        if !self.active.load(Ordering::Relaxed) {
            return Ok(());
        }
        let fault = {
            let mut faults = self.faults.lock().unwrap_or_else(PoisonError::into_inner);
            match faults.iter_mut().find(|(i, _, fires)| *i == index && *fires > 0) {
                Some((_, fault, fires)) => {
                    if *fires != u32::MAX {
                        *fires -= 1;
                    }
                    fault.clone()
                }
                None => return Ok(()),
            }
        };
        match fault {
            Fault::Panic(message) => panic!("{message}"),
            Fault::Delay(duration) => {
                std::thread::sleep(duration);
                Ok(())
            }
            Fault::Error(message) => Err(message),
        }
    }
}

static WRITE_ACTIVE: AtomicBool = AtomicBool::new(false);
static NEXT_WRITE_INDEX: AtomicU64 = AtomicU64::new(0);
static WRITE_FAULTS: Mutex<Vec<(u64, u32)>> = Mutex::new(Vec::new());

/// Installs `plan`'s durable-write (`enospc`) faults process-wide in
/// place of any others; a plan without any clears them. Its evaluation
/// faults belong to a [`crate::Guard`] instead.
pub fn install_write_faults(plan: &FaultPlan) {
    let active = !plan.write_faults.is_empty();
    *WRITE_FAULTS.lock().unwrap_or_else(PoisonError::into_inner) = plan.write_faults.clone();
    WRITE_ACTIVE.store(active, Ordering::Release);
}

/// Resets the durable-write index sequence to zero (test-only: lets a
/// test pin `enospc` faults to known write positions).
pub fn reset_write_indices() {
    NEXT_WRITE_INDEX.store(0, Ordering::Relaxed);
}

/// Consumes the next durable-write index and fails with a disk-full
/// error when an `enospc` fault is scheduled there. Durable writers call
/// this immediately before writing; an `Err` means the caller must skip
/// the write and count it — persistence is best-effort, so an injected
/// (or real) full disk degrades durability, never correctness. The
/// non-firing path is one relaxed atomic load.
pub fn fire_write(what: &str) -> std::io::Result<()> {
    if !WRITE_ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    let index = NEXT_WRITE_INDEX.fetch_add(1, Ordering::Relaxed);
    let fired = {
        let mut faults = WRITE_FAULTS.lock().unwrap_or_else(PoisonError::into_inner);
        match faults.iter_mut().find(|(i, fires)| *i == index && *fires > 0) {
            Some((_, fires)) => {
                if *fires != u32::MAX {
                    *fires -= 1;
                }
                true
            }
            None => false,
        }
    };
    if fired {
        Err(std::io::Error::other(format!(
            "injected ENOSPC at write index {index} ({what}): no space left on device"
        )))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_round_trips() {
        let plan = FaultPlan::parse("panic@5, delay@10:500 ,io@7,flaky@3:2,enospc@1").unwrap();
        assert_eq!(
            plan,
            FaultPlan::new()
                .panic_at(5)
                .delay_at(10, 500)
                .io_error_at(7)
                .flaky_at(3, 2)
                .enospc_at(1)
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::new());
    }

    #[test]
    fn spec_rejects_malformed_entries() {
        for bad in [
            "panic",
            "panic@x",
            "delay@1",
            "delay@1:abc",
            "flaky@1",
            "warp@1",
            "io@1:2",
            "enospc@1:2",
            "enospc@x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn enospc_fires_on_the_scheduled_write_only() {
        // The only test in this crate on the process-wide write half.
        install_write_faults(&FaultPlan::new().enospc_at(1));
        reset_write_indices();
        assert!(fire_write("first").is_ok());
        let error = fire_write("second").expect_err("write index 1 must fail");
        assert!(error.to_string().contains("ENOSPC"), "{error}");
        assert!(error.to_string().contains("second"), "{error}");
        assert!(fire_write("third").is_ok());
        install_write_faults(&FaultPlan::new());
        // Inactive plans consume no indices and fail nothing.
        let before = NEXT_WRITE_INDEX.load(Ordering::Relaxed);
        assert!(fire_write("idle").is_ok());
        assert_eq!(NEXT_WRITE_INDEX.load(Ordering::Relaxed), before);
    }
}
