//! Fork-mode saturation study (Figure 14) plus the OpenMP comparison
//! (Figures 17/18): how many cores can stream from memory before the
//! sockets run out of bandwidth, and when parallel setup overhead eats the
//! unrolling gains.
//!
//! Run with: `cargo run --example parallel_saturation`

use microtools::launcher::sweeps::{core_sweep, openmp_comparison, programs_by_unroll_shared};
use microtools::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = microtools::launcher::Ctx::default();
    // --- Figure 14: fork-mode saturation on the dual-socket X5650 ------
    println!("── Figure 14: forked movaps streams from RAM (X5650) ──");
    let opts = LauncherOptions {
        residence: Some(Level::Ram),
        verify: false,
        ..LauncherOptions::default()
    };
    let program = programs_by_unroll_shared(&ctx, &load_stream(Mnemonic::Movaps, 8, 8))?.remove(0);
    let series = core_sweep(&ctx, &opts, &program, 12)?;
    println!("{}", render_chart(std::slice::from_ref(&series), 64, 14, Scale::Log10));
    let base = series.points[0].1;
    for (cores, cycles) in &series.points {
        let marker = if cycles / base > 1.1 { "  ← saturated" } else { "" };
        println!("  {cores:>2.0} cores: {cycles:>6.1} cycles/iteration{marker}");
    }
    println!(
        "→ breaking point at six cores: past it, dedicate the extra cores to compute (§5.2.1)\n"
    );

    // --- Figures 17/18: OpenMP vs sequential on the E31240 -------------
    for (elements, label) in
        [(128 * 1024u64, "128k floats (Figure 17)"), (6_000_000, "6M floats (Figure 18)")]
    {
        println!("── OpenMP vs sequential: {label} ──");
        let base_opts = LauncherOptions {
            machine: MachinePreset::SandyBridgeE31240,
            verify: false,
            ..LauncherOptions::default()
        };
        let cmp = openmp_comparison(
            &ctx,
            &base_opts,
            &load_stream(Mnemonic::Movss, 1, 8),
            elements,
            4,
            1,
        )?;
        println!(
            "{}",
            render_chart(&[cmp.sequential.clone(), cmp.openmp.clone()], 64, 12, Scale::Log10)
        );
        let seq_gain =
            (cmp.sequential.points[0].1 - cmp.sequential.points[7].1) / cmp.sequential.points[0].1;
        let omp_gain = (cmp.openmp.points[0].1 - cmp.openmp.points[7].1) / cmp.openmp.points[0].1;
        let speedup = cmp.sequential.points[0].1 / cmp.openmp.points[0].1;
        println!(
            "  sequential unroll gain {:.1}%, OpenMP unroll gain {:.1}%, OpenMP speedup {speedup:.1}×\n",
            seq_gain * 100.0,
            omp_gain * 100.0
        );
    }
    println!("→ unrolling pays sequentially; OpenMP is bandwidth/overhead bound (§5.2.3)");
    Ok(())
}
