//! Figure 4: matmul cycles per iteration across matrix alignments.
//!
//! "On the considered hardware, with a 200 * 200 size, the chosen
//! alignment does not impact the 200 * 200 matrix multiply. The variation
//! is less than 3% for any alignment configuration" (§2). The 200² tiles
//! are cache-resident and the kernel is dependency-bound (the `addsd`
//! accumulation chain), so alignment penalties on the memory side never
//! reach the bottom line — in contrast to §5.2.2's bandwidth-bound
//! traversals (Figures 15/16).

use super::FigureResult;
use mc_creator::MicroCreator;
use mc_kernel::builder::matmul_inner;
use mc_launcher::sweeps::{alignment_series, alignment_sweep};
use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::{check_spread, ExperimentId};
use mc_simarch::config::Level;
use std::sync::Arc;

/// Runs the alignment study at 200×200.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig4,
        "Figure 4: matmul cycles/iteration across alignments (200², X5650)",
    );
    let desc = matmul_inner(200);
    let gen = MicroCreator::new().generate(&desc).map_err(|e| e.to_string())?;
    let program = gen
        .programs
        .into_iter()
        .find(|p| p.meta.unroll == 1)
        .map(Arc::new)
        .ok_or("no unroll-1 matmul variant")?;

    let mut opts = base.clone();
    // The 200² working set is reused across the j-loop: effectively
    // cache-resident ("The following studies consider 200 * 200 matrices,
    // which fit in the cache", §2).
    opts.residence = Some(Level::L2);
    opts.trip_count = 200;
    // 8 offsets per array × 2 arrays = 64 configurations.
    let points = alignment_sweep(ctx, &opts, &program, 512, 3584)?;
    let series = alignment_series("matmul 200²", &points);

    result.outcome.push(check_spread(
        "alignment variation below 3% (paper: <3%)",
        &series,
        0.0,
        0.03,
    ));
    result.notes.push(format!(
        "{} alignment configurations, spread {:.2}% (paper: <3%)",
        points.len(),
        spread_pct(&series)
    ));
    result.series.push(series);
    Ok(result)
}

fn spread_pct(series: &mc_report::series::Series) -> f64 {
    let ys = series.ys();
    let (min, max) = ys.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &y| (lo.min(y), hi.max(y)));
    (max - min) / min * 100.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig4_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
        assert_eq!(r.series[0].points.len(), 64);
    }
}
