//! Figure 18: the six-million-element counterpart of Figure 17.
//!
//! "the OpenMP 128k version has a significantly better performance gain
//! compared to the six million version" (§5.2.3): at 6M floats the data
//! streams from RAM and the team saturates the socket's memory bandwidth,
//! so adding threads buys much less.

use super::fig17;
use super::FigureResult;
use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::{ExperimentId, ShapeCheck};
use mc_report::series::Scale;

/// Elements in the traversed array.
pub const ELEMENTS: u64 = 6_000_000;

/// Runs the 6M study.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig18,
        "Figure 18: sequential vs OpenMP movss loads, 6M elements (E31240, log scale)",
    );
    result.scale = Scale::Log10;
    let series = fig17::series_for(ctx, base, ELEMENTS)?;
    // RAM-bound: both the sequential and OpenMP curves flatten earlier, so
    // allow the OpenMP flatness check slightly more slack than at 128k.
    fig17::common_checks(&mut result.outcome, &series, 0.12);

    // The headline claim: the OpenMP speedup shrinks versus 128k.
    let small = fig17::series_for(ctx, base, fig17::ELEMENTS)?;
    let speedup_small = small[0].points[0].1 / small[2].points[0].1;
    let speedup_large = series[0].points[0].1 / series[2].points[0].1;
    result.outcome.push(ShapeCheck::new(
        "OpenMP gain at 128k clearly exceeds the 6M gain (§5.2.3)",
        speedup_small > speedup_large * 1.2,
        format!("128k speedup {speedup_small:.2}× vs 6M speedup {speedup_large:.2}×"),
    ));
    result.notes.push(format!(
        "u1 OpenMP speedup {speedup_large:.1}× at 6M vs {speedup_small:.1}× at 128k \
         (paper: 128k gains significantly more)"
    ));
    result.series = series;
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig18_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
    }
}
