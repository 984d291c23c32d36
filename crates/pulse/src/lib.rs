//! mc-pulse: persistent run registry, cross-run trends, live monitoring.
//!
//! The observability story so far ends when the process does: mc-trace
//! streams events, mc-insight diffs two CSVs you kept by hand. This crate
//! adds the memory between runs and the view during them:
//!
//! * [`registry`] — every `--register`ed invocation persists an atomic
//!   run record (manifest, points, metrics) under `.microtools/runs/`,
//!   indexed by `index.frames`, an append-only log of checksummed frames;
//!   run IDs are content-derived, so identical runs collapse to one record
//!   while every registration extends the time axis;
//! * [`trend`] — `mc-report history`/`trend` join N registered runs by
//!   `diff`'s keys and judge each series with [`mc_report::gate`], the
//!   regression gate `diff` shares, flagging latest-run movement beyond a
//!   noise band built from each run's *recorded* stability spreads;
//! * [`monitor`] — [`TtyProgress`] (single repainted stderr line) and
//!   [`JsonlProgress`] (deterministic machine stream plus time-gated
//!   heartbeats) consume [`mc_trace::ProgressSink`] events;
//! * [`openmetrics`] — `--metrics-listen=ADDR` serves the live metrics
//!   registry and progress gauges as OpenMetrics text over one blocking
//!   TCP thread;
//! * [`import`] — `mc-report import-bench` backfills the historical
//!   `BENCH_*.json` acceptance snapshots into the registry.
//!
//! Everything is std-only, same as the rest of the observability stack.

pub mod http;
pub mod import;
pub mod monitor;
pub mod openmetrics;
pub mod registry;
pub mod trend;

pub use http::{read_request, respond, HttpLimits, Request, RequestError};
pub use import::import_bench;
pub use monitor::{strip_heartbeats, JsonlProgress, TtyProgress};
pub use openmetrics::MetricsServer;
pub use registry::{IndexEntry, Registry, RunRecord, DEFAULT_ROOT, REGISTRY_ENV};
pub use trend::{
    compute_trend, load_runs, render_history, render_trend, trend_to_json, LoadedRun, TrendReport,
};
