//! # mc-guard — supervised sweep execution
//!
//! MicroTools runs *thousands* of generated variants unattended (§4 of
//! the paper), and before this crate a single poisoned variant — a panic
//! in the generate→simulate→measure chain, a hung evaluation, a
//! transient I/O error — aborted the whole sweep and discarded every
//! completed result. `mc-guard` wraps each evaluation in a supervision
//! layer so a bad point yields a structured [`EvalError`] row instead of
//! killing the pool:
//!
//! All of a run's supervision state lives in one [`Guard`]: its policy,
//! its fault plan, its eval-index sequence and its failure count. A
//! launcher run context owns one, so two runs in one process share
//! nothing.
//!
//! * **Panic isolation** — [`Guard::supervise`] runs the evaluation
//!   under `catch_unwind` with a capturing panic hook, so the panic
//!   message and location come back as data and the worker thread
//!   survives.
//! * **Deadlines** — an optional per-eval deadline
//!   ([`GuardPolicy::deadline`]) runs the attempt on a sacrificial
//!   thread while the calling worker stands watch; a hung evaluation is
//!   abandoned and reported as [`EvalErrorKind::Timeout`].
//! * **Retries** — a bounded retry budget with deterministic backoff
//!   jitter re-runs transient failures.
//! * **Error budget** — the guard counts terminal failures; binaries
//!   ask [`Guard::over_budget`] (more than [`GuardPolicy::max_failures`])
//!   to pick an exit code, and [`GuardPolicy::fail_fast`] skips the
//!   remaining work once the budget is spent.
//! * **Fault injection** — a deterministic, test-only [`FaultPlan`]
//!   injects panics, delays, and I/O errors at chosen eval indices of a
//!   guard (also reachable via the `MICROTOOLS_FAULT` environment
//!   variable), which is how the recovery test suite and the CI
//!   kill/resume smoke exercise every path above. Its disk-full half
//!   ([`fire_write`]) stays process-wide: the durable writers it fails
//!   own no run context.
//!
//! The crate is deliberately generic: it knows nothing about launcher
//! reports or CSV rows, and it persists nothing. `mc-launcher` threads
//! its batch evaluations through its context's guard; the binaries
//! surface the policy knobs as flags. A killed sweep resumes from the
//! launcher's persistent evaluation store (`--store`), which
//! re-evaluates only the points it holds no record for.

mod error;
mod fault;
mod policy;
mod supervisor;

pub use error::{EvalError, EvalErrorKind};
pub use fault::{
    env_faults, fire_write, install_write_faults, reset_write_indices, Fault, FaultPlan,
};
pub use policy::GuardPolicy;
pub use supervisor::Guard;
