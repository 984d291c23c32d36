//! Figure 3: matmul cycles per (inner-loop) iteration vs matrix size.
//!
//! "As the cycles increase, the matrix multiplication takes place higher
//! in the memory hierarchy. … it is clear that 500 is one of the cutting
//! points in performance" (§2). The mechanism: three `size²` double
//! matrices fall out of L1, then L2, then L3 as the size grows. The
//! simulated staircase has its steps at the modelled cache boundaries
//! (≈36, ≈104 and ≈724 for the X5650 with three-matrix residence); the
//! paper's ≈500 knee corresponds to the same L3 transition shifted by the
//! real kernel's partial reuse, which the analytic residence model does
//! not track (see EXPERIMENTS.md).

use super::FigureResult;
use mc_creator::MicroCreator;
use mc_kernel::builder::matmul_inner;
use mc_launcher::{Ctx, KernelInput, LauncherOptions, MicroLauncher};
use mc_report::experiments::{knee_x, ExperimentId, ShapeCheck};
use mc_report::series::Series;

/// Matrix sizes swept (the paper sweeps 100–1200).
pub const SIZES: [u64; 12] = [50, 100, 150, 200, 300, 400, 500, 600, 700, 800, 1000, 1200];

/// Cycles per inner-loop iteration for one matrix size.
pub fn matmul_cycles(ctx: &Ctx, base: &LauncherOptions, size: u64) -> Result<f64, String> {
    let desc = matmul_inner(size);
    let result = MicroCreator::new().generate(&desc).map_err(|e| e.to_string())?;
    let program =
        result.programs.iter().find(|p| p.meta.unroll == 1).ok_or("no unroll-1 matmul variant")?;
    let mut opts = base.clone();
    // Two kernel arrays stand for the three size² matrices' footprint.
    opts.vector_bytes = 3 * size * size * 8 / 2;
    opts.trip_count = size;
    let report = MicroLauncher::new(opts).run_in(ctx, &KernelInput::program(program.clone()))?;
    Ok(report.cycles_per_iteration)
}

/// Runs the sweep.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig3,
        "Figure 3: matmul cycles/iteration vs matrix size (X5650)",
    );
    let mut points = Vec::with_capacity(SIZES.len());
    for &size in &SIZES {
        points.push((size as f64, matmul_cycles(ctx, base, size)?));
    }
    let series = Series::new("matmul", points);

    result.outcome.push(ShapeCheck::new(
        "cycles rise monotonically with size",
        series.is_non_decreasing(0.01),
        format!("{:?}", series.ys()),
    ));
    let first = series.points.first().expect("non-empty").1;
    let last = series.points.last().expect("non-empty").1;
    result.outcome.push(ShapeCheck::new(
        "RAM-resident sizes cost ≥2× cache-resident sizes",
        last >= 2.0 * first,
        format!("{first:.2} → {last:.2}"),
    ));
    let knee = knee_x(&series, 1.5);
    result.outcome.push(ShapeCheck::new(
        "a cutting point exists in the swept range",
        matches!(knee, Some(x) if (100.0..=1200.0).contains(&x)),
        format!("knee at {knee:?} (paper: ≈500)"),
    ));
    result.notes.push(format!(
        "staircase {:.2}→{:.2} cycles/iter, knee at {:?} vs paper ≈500 \
         (same L3-exhaustion mechanism; residence model tracks no reuse)",
        first, last, knee
    ));
    result.series.push(series);
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig3_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.series[0].points.len(), super::SIZES.len());
    }

    #[test]
    fn small_sizes_are_l1_cheap() {
        // 50×50×3 doubles = 60 KB → L2-resident; still cheap.
        let small = super::matmul_cycles(
            &mc_launcher::Ctx::default(),
            &crate::figures::quick_options(),
            50,
        )
        .unwrap();
        let large = super::matmul_cycles(
            &mc_launcher::Ctx::default(),
            &crate::figures::quick_options(),
            1200,
        )
        .unwrap();
        assert!(small < large);
    }
}
