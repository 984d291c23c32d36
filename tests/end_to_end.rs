//! End-to-end integration: XML description → MicroCreator → MicroLauncher
//! → report, across crate boundaries.

use microtools::launcher::launcher::RunReport;
use microtools::prelude::*;

#[test]
fn figure6_xml_to_measured_csv() {
    // The full workflow the paper describes: one XML file in, a CSV of
    // measured variants out.
    let xml = microtools::kernel::xml::kernel_to_xml(&figure6());
    let generated = MicroCreator::new().generate_from_xml(&xml).unwrap();
    assert_eq!(generated.programs.len(), 510);

    let launcher = MicroLauncher::with_defaults();
    let mut csv =
        microtools::report::CsvWriter::new(RunReport::csv_header().split(',').collect::<Vec<_>>());
    for program in generated.programs.iter().step_by(100) {
        let report = launcher.run(&KernelInput::program(program.clone())).unwrap();
        assert!(report.verify.as_ref().unwrap().passed, "{}", program.name);
        let row = report.csv_row();
        csv.row(&row.split(',').collect::<Vec<_>>());
    }
    let table = microtools::report::CsvTable::parse(csv.as_str()).unwrap();
    assert_eq!(table.rows.len(), 6);
    assert!(table.numeric_column("cycles_per_iteration").iter().all(|&c| c > 0.0));
}

#[test]
fn generated_assembly_reparses_and_runs_identically() {
    // MicroCreator's .s output fed back through the launcher's assembly
    // input path must behave exactly like the in-memory program.
    let mut desc = figure6();
    desc.unrolling = microtools::kernel::UnrollRange::fixed(4);
    let generated = MicroCreator::new().generate(&desc).unwrap();
    let launcher = MicroLauncher::with_defaults();
    for program in generated.programs.iter().take(4) {
        let direct = launcher.run(&KernelInput::program(program.clone())).unwrap();
        let mut reparsed =
            microtools::kernel::Program::from_asm_text(&program.name, &program.to_asm_string())
                .unwrap();
        // The text carries no metadata; restore the workload-relevant bits.
        reparsed.elements_per_iteration = program.elements_per_iteration;
        reparsed.nb_arrays = program.nb_arrays;
        reparsed.element_bytes = program.element_bytes;
        let roundtrip = launcher.run(&KernelInput::program(reparsed)).unwrap();
        assert!(
            (direct.cycles_per_iteration - roundtrip.cycles_per_iteration).abs() < 1e-9,
            "{}: {} vs {}",
            program.name,
            direct.cycles_per_iteration,
            roundtrip.cycles_per_iteration
        );
    }
}

#[test]
fn every_unroll_variant_is_semantically_consistent() {
    // All 510 variants touch the same data footprint per element and
    // return the right iteration count — verified by the interpreter via
    // the launcher's verification pass.
    let generated = MicroCreator::new().generate(&figure6()).unwrap();
    let opts = LauncherOptions { repetitions: 2, meta_repetitions: 2, ..Default::default() };
    let launcher = MicroLauncher::new(opts);
    for program in generated.programs.iter().step_by(25) {
        let report = launcher.run(&KernelInput::program(program.clone())).unwrap();
        let v = report.verify.unwrap();
        assert!(v.passed, "{}: {}", program.name, v.detail);
        assert_eq!(
            v.memory_ops_per_iteration as u32, program.meta.unroll,
            "{} does one memory op per unrolled copy",
            program.name
        );
    }
}

#[test]
fn unrolling_improves_or_holds_on_every_machine() {
    for machine in
        [MachinePreset::SandyBridgeE31240, MachinePreset::NehalemX5650, MachinePreset::NehalemX7550]
    {
        let programs =
            microtools::launcher::sweeps::programs_by_unroll(&load_stream(Mnemonic::Movaps, 1, 8))
                .unwrap();
        let opts = LauncherOptions { machine, verify: false, ..Default::default() };
        let launcher = MicroLauncher::new(opts);
        let mut last_per_load = f64::MAX;
        for p in &programs {
            let report = launcher.run(&KernelInput::program(p.clone())).unwrap();
            let per_load = report.cycles_per_iteration / p.load_count() as f64;
            assert!(
                per_load <= last_per_load * 1.01,
                "{machine:?}: unroll {} regressed ({per_load} vs {last_per_load})",
                p.meta.unroll
            );
            last_per_load = per_load;
        }
    }
}

#[test]
fn sandy_bridge_outruns_nehalem_on_l1_loads() {
    // Two load ports vs one: the E31240 sustains twice the L1 load
    // throughput of the X5650 — visible straight through the launcher.
    let programs =
        microtools::launcher::sweeps::programs_by_unroll(&load_stream(Mnemonic::Movaps, 8, 8))
            .unwrap();
    let run = |machine| {
        let opts = LauncherOptions { machine, verify: false, ..Default::default() };
        MicroLauncher::new(opts)
            .run(&KernelInput::program(programs[0].clone()))
            .unwrap()
            .cycles_per_iteration
    };
    let nehalem = run(MachinePreset::NehalemX5650);
    let snb = run(MachinePreset::SandyBridgeE31240);
    assert!(snb < nehalem * 0.7, "Sandy Bridge should be markedly faster: {snb} vs {nehalem}");
}

#[test]
fn plugin_workflow_end_to_end() {
    use microtools::creator::pass::FnPass;
    use microtools::creator::plugin::FnPlugin;
    use microtools::creator::{GenContext, PassManager};

    let plugin = FnPlugin::new("integration", |pm: &mut PassManager| {
        pm.set_gate("operand-swap-after", |_| false)?;
        pm.insert_after(
            "codegen",
            Box::new(FnPass::new("stamp", |ctx: &mut GenContext| {
                for p in &mut ctx.programs {
                    p.meta.extra.push(("stamped".into(), "yes".into()));
                }
                Ok(())
            })),
        )
    });
    let mut creator = MicroCreator::new();
    creator.register_plugin(&plugin).unwrap();
    let generated = creator.generate(&figure6()).unwrap();
    assert_eq!(generated.programs.len(), 8, "swaps disabled: one per unroll factor");
    assert!(generated.programs.iter().all(|p| p.meta.extra.iter().any(|(k, _)| k == "stamped")));

    // The plugin-modified programs still run and verify.
    let launcher = MicroLauncher::with_defaults();
    let report = launcher.run(&KernelInput::program(generated.programs[7].clone())).unwrap();
    assert!(report.verify.unwrap().passed);
}

#[test]
fn launcher_options_parse_from_cli_and_drive_a_run() {
    let opts = LauncherOptions::from_args(&[
        "--machine=x5650",
        "--residence=l3",
        "--repetitions=8",
        "--meta-repetitions=4",
        "--aggregate=median",
    ])
    .unwrap();
    let program =
        microtools::launcher::sweeps::programs_by_unroll(&load_stream(Mnemonic::Movss, 4, 4))
            .unwrap()
            .remove(0);
    let report = MicroLauncher::new(opts).run(&KernelInput::program(program)).unwrap();
    assert_eq!(report.residence, Some(Level::L3));
    assert!(report.stable);
}

#[test]
fn generation_snapshot_is_stable() {
    // Pins the exact bytes of the 510-program Figure 6 expansion (names +
    // assembly text, FNV-1a). Any change to the generator's output —
    // intended or not — must update this constant consciously.
    const SNAPSHOT: u64 = 0x7f699b4190a01580;
    let result = MicroCreator::new().generate(&figure6()).unwrap();
    let mut h = 0xcbf29ce484222325u64;
    for p in &result.programs {
        for b in p.name.bytes().chain(p.to_asm_string().bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    assert_eq!(
        h, SNAPSHOT,
        "generated output changed; if intentional, update the snapshot constant"
    );
}

#[test]
fn four_mnemonic_snapshot_is_stable() {
    // Pins the 2040-program four-mnemonic expansion (§5.1): FNV-1a over
    // each program's name, assembly text, array count, elements per
    // iteration and direction codes, in generation order.
    const SNAPSHOT: u64 = 0x02a893b352e3422d;
    let result =
        MicroCreator::new().generate(&microtools::kernel::builder::four_mnemonic()).unwrap();
    assert_eq!(result.programs.len(), 2040);
    let mut h = 0xcbf29ce484222325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for p in &result.programs {
        feed(p.name.as_bytes());
        feed(p.to_asm_string().as_bytes());
        feed(&p.nb_arrays.to_le_bytes());
        feed(&p.elements_per_iteration.to_le_bytes());
        let codes: String = p.meta.directions.iter().map(|d| d.code()).collect();
        feed(codes.as_bytes());
    }
    assert_eq!(
        h, SNAPSHOT,
        "generated output changed; if intentional, update the snapshot constant"
    );
}
