//! # mc-report — statistics, CSV, tables, plots and shape checks
//!
//! MicroLauncher's output "is a generic CSV file providing the execution
//! time of the benchmark program" (§4.3), and the paper's evaluation reads
//! those CSVs into figures and tables. This crate is the reporting
//! substrate:
//!
//! * [`stats`] — summary statistics over repeated measurements (the
//!   launcher's stability protocol reports min/median/max across the outer
//!   experiment loop),
//! * [`csv`] — the CSV reader/writer,
//! * [`table`] — fixed-width ASCII table rendering (Tables 1 and 2),
//! * [`series`] — figure data series with terminal plotting, including the
//!   logarithmic Y axes Figures 14, 17 and 18 use,
//! * [`experiments`] — the registry of paper expectations and the *shape
//!   checks* (ordering, knees, ratios, flatness) each reproduced figure
//!   must satisfy,
//! * [`analysis`] — the §7 "data-mining" helpers: optimal-variant search,
//!   per-group minima, knob-impact ranking, Pareto fronts,
//! * [`gate`] — the regression gate `mc-report diff` and `trend` share:
//!   one point type, the baseline/band/streak verdict over a series of
//!   observations, and the two band rules,
//! * [`manifest`] — the [`RunManifest`] provenance header (`# key: value`
//!   comment lines) embedded in every emitted CSV,
//! * [`json`] — the workspace's one JSON codec: value type, writer and
//!   parser for every trace, journal, index, profile and API document,
//! * [`fsio`] — crash-safe artifact writes (temp file + fsync + rename),
//!   so an interrupted run never leaves a torn CSV or manifest behind, and
//!   the one append-only log of checksummed frames,
//! * [`flags`] — the one command-line grammar (`--name[=value]`) every
//!   binary and the launcher's option surface parse through,
//! * [`rng`] — the workspace's seeded PRNG (SplitMix64), and [`prop`] —
//!   the seeded property-test loop built on it.

pub mod analysis;
pub mod csv;
pub mod experiments;
pub mod flags;
pub mod fsio;
pub mod gate;
pub mod json;
pub mod manifest;
pub mod prop;
pub mod rng;
pub mod series;
pub mod stats;
pub mod table;

pub use analysis::Record;
pub use csv::{CsvTable, CsvWriter};
pub use experiments::{ExperimentId, ShapeCheck, ShapeOutcome};
pub use flags::Flags;
pub use fsio::{atomic_write, atomic_write_str};
pub use json::Json;
pub use manifest::{fnv1a64, Fnv64, RunManifest};
pub use rng::SplitMix64;
pub use series::{Scale, Series};
pub use stats::Summary;
