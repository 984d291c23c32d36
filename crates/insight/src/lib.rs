//! # mc-insight — why a variant is slow, and what changed between runs
//!
//! A sweep ends at a CSV of cycles-per-iteration; this crate is the layer
//! that *explains* those numbers. It has two halves:
//!
//! * [`attribution`] — classifies the binding constraint of one variant
//!   (front-end, a specific execution port, the loop-carried dependency
//!   chain, a cache level, or multi-core bandwidth contention) by
//!   comparing the simulator's per-bound decomposition against the
//!   reported cycles. The launcher attaches the result to every
//!   [`RunReport`](../mc_launcher/launcher/struct.RunReport.html) and CSV
//!   row, so downstream tooling can answer "what is this variant bound
//!   on?" without re-running the model.
//! * [`evidence`] — grounds an attribution verdict in the evaluation's
//!   mc-scope profile: each claim is paired with the JSONL line of the
//!   profile record that backs it (`microprobe --explain --evidence`).
//! * [`diff`] — compares two run CSVs by manifest provenance and judges
//!   each matched point as a two-observation series with
//!   [`mc_report::gate`], the regression gate `mc-report trend` shares;
//!   its band rule widens the floor by the stability samples (twice the
//!   larger min/median/max spread of the pair, and twice the p95 of the
//!   baseline's spreads). Each regression is named with the bottleneck it
//!   was (and now is) bound on.

pub mod attribution;
pub mod diff;
pub mod evidence;

pub use attribution::{attribute, Attribution, BottleneckClass};
pub use diff::{diff_documents, load_document, render_diff, DiffReport, SweepDoc};
pub use evidence::{evidence, verdict_of, EvidenceLine};
