//! Probing an architecture beyond the paper's headline figures, using the
//! extension features: the stride study and stencil kernels of §3.5's
//! "current uses", the §7 power-utilization metric, and the §7
//! "data-mining" analysis helpers.
//!
//! Run with: `cargo run --example architecture_probe`

use microtools::launcher::sweeps::{
    arithmetic_hiding_sweep, programs_by_unroll_shared, stride_sweep,
};
use microtools::prelude::*;
use microtools::report::analysis;
use microtools::simarch::energy::{energy_frequency_sweep, energy_optimal_frequency};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = microtools::launcher::Ctx::default();
    let machine = MachineConfig::nehalem_x5650_dual();

    // --- 1. Stride study (§3.5): where does the prefetcher give up? ----
    println!("── stride study: movss loads from RAM (X5650) ──");
    let opts = LauncherOptions { verify: false, ..LauncherOptions::default() };
    let series = stride_sweep(
        &ctx,
        &opts,
        Mnemonic::Movss,
        &[1, 2, 4, 8, 16, 32, 64, 256, 1024],
        Level::Ram,
    )?;
    for (stride, cycles) in &series.points {
        println!("  stride {stride:>7.0} B: {cycles:>7.2} cycles/access");
    }
    println!("  → unit strides ride the prefetcher; page strides pay latency per access\n");

    // --- 2. Stencil kernel (§3.5) across the hierarchy ------------------
    println!("── 3-point stencil: cycles/iteration by residence ──");
    let stencil_programs =
        programs_by_unroll_shared(&ctx, &microtools::kernel::builder::stencil_1d(1, 4))?;
    for level in Level::ALL {
        let o = LauncherOptions {
            residence: Some(level),
            // Separate the in/out arrays mod 4 KiB — page-aligned pairs alias
            // in the store-forwarding predictor (try removing this!).
            alignments: vec![0, 512],
            verify: false,
            ..LauncherOptions::default()
        };
        let report =
            MicroLauncher::new(o).run(&KernelInput::program(stencil_programs[0].clone()))?;
        println!("  {:4}: {:>6.2} cycles/iteration", level.name(), report.cycles_per_iteration);
    }
    println!();

    // --- 2b. Arithmetic hiding (§3.5) ------------------------------------
    println!("── free arithmetic under a movaps RAM stream ──");
    let o = LauncherOptions { verify: false, ..LauncherOptions::default() };
    for level in [Level::L1, Level::Ram] {
        let (series, hidden) =
            arithmetic_hiding_sweep(&ctx, &o, Mnemonic::Movaps, 10, level, 0.02)?;
        print!("  {:4}:", level.name());
        for (k, c) in &series.points {
            print!(" k={k:.0}→{c:.1}");
        }
        println!("   → {hidden} additions ride free");
    }
    println!(
        "  → memory latency pays for several vector additions — but only off-core
"
    );

    // --- 3. Energy: the §7 power-utilization metric ---------------------
    println!("── energy per iteration vs core frequency (movaps ×8) ──");
    let program = programs_by_unroll_shared(&ctx, &load_stream(Mnemonic::Movaps, 8, 8))?.remove(0);
    for level in [Level::L1, Level::Ram] {
        let w = Workload::resident_at(&machine, level);
        let points = energy_frequency_sweep(&program, &w, &machine);
        let optimal = energy_optimal_frequency(&points).expect("non-empty sweep");
        print!("  {:4}:", level.name());
        for (ghz, nj) in &points {
            print!("  {ghz:.2}GHz→{nj:.1}nJ");
        }
        println!("   (optimal: {optimal:.2} GHz)");
    }
    println!("  → memory-bound kernels save energy at low clocks; compute-bound ones do not\n");

    // --- 4. Data-mining the 510-variant study (§7) -----------------------
    println!("── automated analysis of the 510 Figure 6 variants ──");
    let generated = MicroCreator::new().generate(&figure6())?;
    let launcher = MicroLauncher::new(LauncherOptions {
        verify: false,
        repetitions: 2,
        meta_repetitions: 2,
        ..LauncherOptions::default()
    });
    let mut records = Vec::new();
    for p in generated.programs.iter().step_by(5) {
        let report = launcher.run(&KernelInput::program(p.clone()))?;
        records.push(analysis::Record::new(
            &p.name,
            &[
                ("unroll", &p.meta.unroll.to_string()),
                ("loads", &p.meta.load_count().to_string()),
                ("stores", &p.meta.store_count().to_string()),
            ],
            report.cycles_per_iteration / p.meta.unroll.max(1) as f64,
        ));
    }
    let best = analysis::best(&records).expect("records exist");
    println!("  optimal variant: {} at {:.2} cycles/copy", best.name, best.metric);
    println!("  knob impact ranking:");
    for (field, impact) in analysis::rank_fields(&records) {
        println!("    {field:7} {:>6.1}% swing", impact * 100.0);
    }
    println!("  per-unroll minima (the Figure 11 reading):");
    for (unroll, min) in analysis::min_per_group(&records, "unroll") {
        println!("    unroll {unroll}: {min:.2} cycles/copy");
    }
    Ok(())
}
