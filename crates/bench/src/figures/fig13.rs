//! Figure 13: frequency sweep of an 8-unrolled movaps load kernel.
//!
//! "The timing varies with the frequency for L1 and L2 accesses; however,
//! L3 and RAM remain constant, proving on-core frequency modifications do
//! not affect the off-core frequency" (§5.1). Cycles are reference
//! (`rdtsc`) cycles, "independent on the frequency".

use super::FigureResult;
use mc_asm::inst::Mnemonic;
use mc_kernel::builder::load_stream;
use mc_launcher::sweeps::{frequency_sweep, programs_by_unroll_shared};
use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::{ExperimentId, ShapeCheck};
use mc_simarch::config::Level;

/// Runs the frequency sweep.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Fig13,
        "Figure 13: cycles per movaps load vs core frequency (X5650, unroll 8)",
    );
    // The same movaps program set feeds Figure 14; generation is shared.
    let program = programs_by_unroll_shared(ctx, &load_stream(Mnemonic::Movaps, 8, 8))?.remove(0);
    let series = frequency_sweep(ctx, base, &program, &Level::ALL)?;

    for s in &series {
        let first = s.points.first().expect("non-empty").1; // slowest clock
        let last = s.points.last().expect("non-empty").1; // nominal clock
        let ratio = first / last;
        match s.label.as_str() {
            "L1" | "L2" => {
                // Core-domain cost in reference cycles scales ≈ f_nom/f.
                let expected = 2.67 / 1.60;
                result.outcome.push(ShapeCheck::new(
                    format!("{} scales with core frequency", s.label),
                    (ratio / expected - 1.0).abs() < 0.10,
                    format!("slow/fast ratio {ratio:.2} (expected ≈{expected:.2})"),
                ));
            }
            _ => {
                result.outcome.push(ShapeCheck::new(
                    format!("{} is frequency-invariant (off-core)", s.label),
                    s.is_flat(0.03),
                    format!("slow/fast ratio {ratio:.3}"),
                ));
            }
        }
    }
    result.notes.push(format!(
        "1.60→2.67 GHz: L1 ratio {:.2}, RAM ratio {:.3} (paper: L1/L2 scale, L3/RAM flat)",
        series[0].points[0].1 / series[0].points.last().unwrap().1,
        series[3].points[0].1 / series[3].points.last().unwrap().1,
    ));
    result.series = series;
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig13_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
        assert_eq!(r.series.len(), 4);
        // Five frequency steps on the X5650.
        assert_eq!(r.series[0].points.len(), 5);
    }
}
