//! Figure 15: alignment sweep of an 8-array traversal on 8 cores of the
//! quad-socket X7550.
//!
//! "MicroLauncher tests a variety of alignment settings for each allocated
//! array. … The figure shows, for movss accesses, there is a variation of
//! 20 to 33 cycles. The number of cycles per iteration is significantly
//! dependant of arrays." (§5.2.2) — the X axis enumerates alignment
//! configurations ("upwards of 2500").

use super::FigureResult;
use mc_asm::inst::Mnemonic;
use mc_kernel::builder::multi_array_traversal;
use mc_launcher::options::{MachinePreset, Mode};
use mc_launcher::sweeps::{alignment_series, alignment_sweep_sampled};
use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::{check_spread, ExperimentId, ShapeCheck};
use mc_simarch::config::Level;

/// Runs the 8-array/8-core alignment study.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig15,
        "Figure 15: cycles/iteration across alignments (8-array movss, 8 of 32 cores, X7550)",
    );
    let desc = multi_array_traversal(Mnemonic::Movss, 8);
    let program = ctx
        .generate_shared(&desc)?
        .first()
        .cloned()
        .ok_or_else(|| "multi_array_traversal produced no programs".to_owned())?;

    let mut opts = base.clone();
    opts.machine = MachinePreset::NehalemX7550;
    opts.mode = Mode::Fork;
    opts.cores = 8;
    opts.residence = Some(Level::Ram);
    // 8 arrays × 8 offsets would be 16.7M grid points; the study samples
    // ~3000 configurations ("upwards of 2500"), corners included.
    let points = alignment_sweep_sampled(ctx, &opts, &program, 512, 3584, 3000, 0x15)?;
    let series = alignment_series("8-array movss, 8 cores", &points);

    result.outcome.push(ShapeCheck::new(
        "upwards of 2500 configurations tested",
        points.len() > 2500,
        format!("{} configurations", points.len()),
    ));
    result.outcome.push(check_spread(
        "alignment swing 25%–100% (paper: 20→33 cycles ≈ 65%)",
        &series,
        0.25,
        1.0,
    ));
    let ys = series.ys();
    let (min, max) = ys.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &y| (lo.min(y), hi.max(y)));
    result.notes.push(format!(
        "{} configurations, {:.1} → {:.1} cycles/iteration (paper: 20 → 33)",
        points.len(),
        min,
        max
    ));
    result.series.push(series);
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig15_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
        assert!(r.series[0].points.len() > 2500);
    }
}
