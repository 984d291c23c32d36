//! Figure 14: fork-mode memory saturation vs core count.
//!
//! "Consider Figure 14, it shows the latency evolution in a logarithmic
//! scale of an 8 load array access from an array residing in RAM. The
//! breaking point for the dual-socket Nehalem machine is six cores. Under
//! six cores, the latency is not greatly affected; over six cores, there
//! is no longer a single change in the latencies." (§5.2.1)

use super::FigureResult;
use mc_asm::inst::Mnemonic;
use mc_kernel::builder::load_stream;
use mc_launcher::sweeps::{core_sweep, programs_by_unroll_shared};
use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::{check_knee, ExperimentId, ShapeCheck};
use mc_report::series::Scale;
use mc_simarch::config::Level;

/// Runs the core sweep.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig14,
        "Figure 14: cycles/iteration vs forked core count (movaps ×8, RAM, X5650)",
    );
    result.scale = Scale::Log10;
    let mut opts = base.clone();
    opts.residence = Some(Level::Ram);
    // Shares the generated program set with Figure 13.
    let program = programs_by_unroll_shared(ctx, &load_stream(Mnemonic::Movaps, 8, 8))?.remove(0);
    let series = core_sweep(ctx, &opts, &program, 12)?;

    result.outcome.push(check_knee(
        "breaking point at six cores (paper: 6)",
        &series,
        1.1,
        6.0,
        8.0,
    ));
    let c1 = series.points[0].1;
    let c5 = series.points[4].1;
    let c12 = series.points[11].1;
    result.outcome.push(ShapeCheck::new(
        "under the knee: latency not greatly affected",
        c5 / c1 < 1.15,
        format!("5 cores / 1 core = {:.3}", c5 / c1),
    ));
    result.outcome.push(ShapeCheck::new(
        "over the knee: latencies keep growing",
        c12 / c1 > 1.5,
        format!("12 cores / 1 core = {:.2}", c12 / c1),
    ));
    result.outcome.push(ShapeCheck::new(
        "saturation grows monotonically",
        series.is_non_decreasing(0.001),
        format!("{:?}", series.ys().iter().map(|y| (y * 10.0).round() / 10.0).collect::<Vec<_>>()),
    ));
    result.notes.push(format!(
        "1→12 cores: {:.1} → {:.1} cycles/iteration, knee at the six-core mark (paper: 6)",
        c1, c12
    ));
    result.series.push(series);
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig14_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
        assert_eq!(r.scale, mc_report::series::Scale::Log10);
    }
}
