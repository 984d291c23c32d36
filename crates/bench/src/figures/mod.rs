//! Per-experiment harnesses. Each module regenerates one table or figure.

pub mod counts;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod table1;
pub mod table2;

use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::{ExperimentId, ShapeOutcome};
use mc_report::series::{Scale, Series};

/// The regenerated data and verdicts for one experiment.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Which experiment.
    pub id: ExperimentId,
    /// Figure/table title.
    pub title: String,
    /// Plotted series (empty for pure tables).
    pub series: Vec<Series>,
    /// Y-axis scale for the chart.
    pub scale: Scale,
    /// Rendered table, when the experiment is tabular.
    pub table: Option<String>,
    /// The shape checks against the paper's claims.
    pub outcome: ShapeOutcome,
    /// Paper-vs-measured notes for EXPERIMENTS.md.
    pub notes: Vec<String>,
}

impl FigureResult {
    /// Starts a result.
    pub fn new(id: ExperimentId, title: impl Into<String>) -> Self {
        FigureResult {
            id,
            title: title.into(),
            series: Vec::new(),
            scale: Scale::Linear,
            table: None,
            outcome: ShapeOutcome::new(id),
            notes: Vec::new(),
        }
    }
}

/// Launcher options tuned for harness throughput: the simulation is
/// deterministic, so a fixed budget of 3 outer experiments suffices.
/// `reproduce` derives its sampling policy (`--adaptive`,
/// `--min-samples`, `--max-samples`) on top of these and hands the
/// result to [`run_many`] as every figure's base.
pub fn quick_options() -> LauncherOptions {
    LauncherOptions {
        repetitions: 4,
        meta_repetitions: 3,
        verify: false,
        ..LauncherOptions::default()
    }
}

/// Runs one experiment by id under [`quick_options`] on the process
/// context ([`Ctx::process`]); goes with ROADMAP item 6.
pub fn run_experiment(id: ExperimentId) -> Result<FigureResult, String> {
    run_one(Ctx::process(), id, &quick_options())
}

/// Runs one experiment by id on `base` through `ctx`, under one
/// `bench.experiment` span.
pub fn run_one(
    ctx: &Ctx,
    id: ExperimentId,
    base: &LauncherOptions,
) -> Result<FigureResult, String> {
    let mut span = mc_trace::span("bench.experiment");
    let result = match id {
        ExperimentId::Counts => counts::run(),
        ExperimentId::Table1 => table1::run(),
        ExperimentId::Fig3 => fig03::run(ctx, base),
        ExperimentId::Fig4 => fig04::run(ctx, base),
        ExperimentId::Fig5 => fig05::run(ctx, base),
        ExperimentId::Fig11 => fig11::run(ctx, base),
        ExperimentId::Fig12 => fig12::run(ctx, base),
        ExperimentId::Fig13 => fig13::run(ctx, base),
        ExperimentId::Fig14 => fig14::run(ctx, base),
        ExperimentId::Fig15 => fig15::run(ctx, base),
        ExperimentId::Fig16 => fig16::run(ctx, base),
        ExperimentId::Fig17 => fig17::run(ctx, base),
        ExperimentId::Fig18 => fig18::run(ctx, base),
        ExperimentId::Table2 => table2::run(ctx, base),
    };
    if span.is_active() {
        span.field("experiment", id.key());
        match &result {
            Ok(r) => {
                span.field("checks", r.outcome.checks.len() as u64);
                span.field(
                    "checks_passed",
                    r.outcome.checks.iter().filter(|c| c.passed).count() as u64,
                );
            }
            Err(e) => {
                span.field("error", e.as_str());
            }
        }
    }
    result
}

/// Runs a set of experiments across the mc-exec engine, results in input
/// order. Figures run in parallel with each other *and* each figure's
/// sweeps batch internally; the nested engines can oversubscribe the
/// machine briefly, which is harmless for throughput and irrelevant for
/// results (the simulation is deterministic). `base` is every figure's
/// starting point: its sampling policy reaches each sweep. Every figure
/// shares `ctx`, so a kernel two figures sweep is evaluated once.
pub fn run_many(
    ctx: &Ctx,
    ids: &[ExperimentId],
    base: &LauncherOptions,
) -> Result<Vec<FigureResult>, String> {
    mc_exec::engine().run(ids.to_vec(), |id| run_one(ctx, id, base)).into_iter().collect()
}

/// Runs every experiment in paper order on `base` through `ctx`.
pub fn run_all(ctx: &Ctx, base: &LauncherOptions) -> Result<Vec<FigureResult>, String> {
    run_many(ctx, &ExperimentId::ALL, base)
}
