//! mc-serve: the crash-safe sweep daemon.
//!
//! Everything before this crate is a *process*: you run `microlauncher`
//! or `mc-sweep`, it measures, it exits. This crate turns the toolchain
//! into a *service* — a long-running daemon that accepts kernel-XML +
//! sweep-spec submissions over std-only HTTP/JSON, admission-controls
//! them, schedules them on the shared evaluation engine, and survives
//! being killed at any instant:
//!
//! * [`quota`] — per-client token buckets plus an error budget modeled
//!   on mc-guard's policy: typed `429` rejections with exact retry
//!   hints, and a cutoff for clients whose kernels keep failing;
//! * [`journal`] — the accepted-job journal (checksummed frames of
//!   trace events, appended, synced and compacted at open) that makes
//!   `202 Accepted` a durable promise: a SIGKILL'd daemon replays it on
//!   restart and re-runs only what was genuinely lost, warm-hitting the
//!   evaluation store for everything already paid for (job IDs are the
//!   store's own content-derived keys);
//! * [`daemon`] — admission ladder, the bounded queue, the scheduler
//!   (serial jobs, intra-job parallelism via mc-exec), per-job
//!   deadlines and cancellation, graceful drain, and the byte-identical
//!   result-document contract;
//! * [`api`] — the HTTP routes on mc-pulse's hardened request reader.
//!
//! The `mc-serve` binary wires in SIGTERM→drain and `MICROTOOLS_FAULT`
//! chaos plans; `mc-loadgen` replays recorded submission mixes against
//! a live daemon at configurable concurrency.

pub mod api;
pub mod daemon;
pub mod journal;
pub mod quota;

pub use api::{parse_envelope, ApiServer};
pub use daemon::{
    job_id, Daemon, Health, JobState, JobView, Reject, ServeConfig, Submission, Submitted,
};
pub use journal::{AcceptedJob, JobJournal, Outcome, Replay};
pub use quota::{ClientQuotas, QuotaConfig, Take};
