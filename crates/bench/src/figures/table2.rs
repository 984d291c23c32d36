//! Table 2: execution time of the OpenMP and sequential versions of a
//! movss unrolled kernel on the four-core E31240.
//!
//! Paper rows (seconds): OpenMP 9.42 → 9.31 (≈1% over unroll 1→8) versus
//! sequential 18.30 → 14.39 (≈21%). "Unrolling achieves a significant
//! performance gain for the sequential version. It is not true in the
//! OpenMP setting due to the overhead of the parallel setup." The workload
//! is the RAM-resident (6M-element) traversal repeated a fixed number of
//! invocations; absolute seconds depend on the invocation count, the
//! *ratios* are the claim under test.

use super::FigureResult;
use mc_asm::inst::Mnemonic;
use mc_kernel::builder::load_stream;
use mc_launcher::options::MachinePreset;
use mc_launcher::sweeps::openmp_comparison;
use mc_launcher::{Ctx, LauncherOptions};
use mc_report::experiments::{check_improvement, ExperimentId, ShapeCheck};
use mc_report::table::{fmt_f, AsciiTable};

/// Elements per invocation (the RAM-resident Figure 18 workload).
pub const ELEMENTS: u64 = 6_000_000;
/// Benchmark invocations (chosen so the sequential unroll-1 row lands near
/// the paper's ≈18 s).
pub const INVOCATIONS: u64 = 5_400;

/// Runs the Table 2 reproduction.
pub fn run(ctx: &Ctx, base: &LauncherOptions) -> Result<FigureResult, String> {
    let mut result = FigureResult::new(
        ExperimentId::Table2,
        "Table 2: OpenMP vs sequential execution time across unroll factors (E31240)",
    );
    let mut opts = base.clone();
    opts.machine = MachinePreset::SandyBridgeE31240;
    let cmp = openmp_comparison(
        ctx,
        &opts,
        &load_stream(Mnemonic::Movss, 1, 8),
        ELEMENTS,
        4,
        INVOCATIONS,
    )?;

    let mut table =
        AsciiTable::new(vec!["Unroll factor", "OpenMP time (in s)", "Seq. time (in s)"]);
    for (omp, seq) in cmp.openmp_seconds.points.iter().zip(&cmp.sequential_seconds.points) {
        table.row(vec![format!("{}", omp.0 as u32), fmt_f(omp.1, 2), fmt_f(seq.1, 2)]);
    }
    result.table = Some(table.render());

    result.outcome.push(check_improvement(
        "sequential improves ~21% over unroll 1→8 (paper: 18.30→14.39 s)",
        &cmp.sequential_seconds,
        0.12,
        0.35,
    ));
    result.outcome.push(check_improvement(
        "OpenMP improves ≲5% (paper: 9.42→9.31 s ≈ 1.2%)",
        &cmp.openmp_seconds,
        -0.01,
        0.05,
    ));
    let ratio_u1 = cmp.sequential_seconds.points[0].1 / cmp.openmp_seconds.points[0].1;
    result.outcome.push(ShapeCheck::new(
        "OpenMP roughly halves the wall time at unroll 1 (paper: 18.30/9.42 ≈ 1.9×)",
        (1.4..=3.2).contains(&ratio_u1),
        format!("seq/omp = {ratio_u1:.2}"),
    ));
    let seq_gain = (cmp.sequential_seconds.points[0].1 - cmp.sequential_seconds.points[7].1)
        / cmp.sequential_seconds.points[0].1;
    let omp_gain = (cmp.openmp_seconds.points[0].1 - cmp.openmp_seconds.points[7].1)
        / cmp.openmp_seconds.points[0].1;
    result.notes.push(format!(
        "seq gain {:.1}% (paper 21.4%), OpenMP gain {:.1}% (paper 1.2%), seq/omp at u1 {:.2} \
         (paper 1.94)",
        seq_gain * 100.0,
        omp_gain * 100.0,
        ratio_u1
    ));
    result.series.push(cmp.sequential_seconds);
    result.series.push(cmp.openmp_seconds);
    Ok(result)
}

#[cfg(test)]
mod tests {
    #[test]
    fn table2_passes() {
        let r = super::run(&mc_launcher::Ctx::default(), &crate::figures::quick_options()).unwrap();
        assert!(r.outcome.passed(), "{}", r.outcome.render());
        let t = r.table.as_ref().unwrap();
        assert!(t.contains("Unroll factor"), "{t}");
        assert_eq!(t.lines().count(), 2 + 8, "header + rule + 8 rows");
    }
}
