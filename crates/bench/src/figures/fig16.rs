//! Figure 16: alignment sweep of a four-array traversal on all 32 cores.
//!
//! "Memory saturation is exposed in Figure 16 where the plot line
//! represents a 32-core execution of a benchmark program. The program
//! contains a four array traversal with the movss instructions, the figure
//! shows performance variations from 60 to 90 cycles per iteration with
//! such a configuration." (§5.2.2)

use super::FigureResult;
use mc_asm::inst::Mnemonic;
use mc_kernel::builder::multi_array_traversal;
use mc_launcher::options::{MachinePreset, Mode};
use mc_launcher::sweeps::{alignment_series, alignment_sweep};
use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::{check_spread, ExperimentId, ShapeCheck};
use mc_simarch::config::Level;

/// Runs the 4-array/32-core alignment study.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig16,
        "Figure 16: cycles/iteration across alignments (4-array movss, 32 cores, X7550)",
    );
    let desc = multi_array_traversal(Mnemonic::Movss, 4);
    let program = ctx
        .generate_shared(&desc)?
        .first()
        .cloned()
        .ok_or_else(|| "multi_array_traversal produced no programs".to_owned())?;

    let mut opts = base.clone();
    opts.machine = MachinePreset::NehalemX7550;
    opts.mode = Mode::Fork;
    opts.cores = 32;
    opts.residence = Some(Level::Ram);
    // 4 arrays × 8 offsets = 4096 configurations.
    let points = alignment_sweep(ctx, &opts, &program, 512, 3584)?;
    let series = alignment_series("4-array movss, 32 cores", &points);

    result.outcome.push(check_spread(
        "alignment swing 20%–80% (paper: 60→90 cycles = 50%)",
        &series,
        0.20,
        0.80,
    ));
    // The 32-core saturated traversal costs several times the 8-core one
    // (paper: 60-90 vs 20-33 cycles).
    let fig15_floor = {
        let desc8 = multi_array_traversal(Mnemonic::Movss, 8);
        // Shares Figure 15's generated program.
        let p8 = ctx
            .generate_shared(&desc8)?
            .first()
            .cloned()
            .ok_or_else(|| "multi_array_traversal produced no programs".to_owned())?;
        let mut o = base.clone();
        o.machine = MachinePreset::NehalemX7550;
        o.mode = Mode::Fork;
        o.cores = 8;
        o.residence = Some(Level::Ram);
        // Best-case (well-separated) alignments: the Figure 15 floor.
        o.alignments = (0..8u64).map(|i| i * 512).collect();
        mc_launcher::MicroLauncher::new(o)
            .run_in(ctx, &mc_launcher::KernelInput::program(p8))?
            .cycles_per_iteration
    };
    let floor = series.ys().iter().copied().fold(f64::MAX, f64::min);
    result.outcome.push(ShapeCheck::new(
        "32-core floor ≈3× the 8-core floor (paper: 60 vs 20 cycles)",
        (1.5..=5.0).contains(&(floor / fig15_floor)),
        format!("{floor:.1} vs {fig15_floor:.1} cycles/iteration"),
    ));
    let ys = series.ys();
    let (min, max) = ys.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &y| (lo.min(y), hi.max(y)));
    result.notes.push(format!(
        "{} configurations, {:.1} → {:.1} cycles/iteration (paper: 60 → 90)",
        series.points.len(),
        min,
        max
    ));
    result.series.push(series);
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig16_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
    }
}
