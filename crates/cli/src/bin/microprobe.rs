//! `microprobe` — characterize a simulated machine the way the MicroTools
//! studies do: hierarchy latencies and bandwidths, the fork-mode
//! saturation knee, frequency-domain behaviour, and energy optima.
//!
//! ```text
//! microprobe [x5650|x7550|e31240] [--explain] [--jobs=N] [--trace=PATH] [--metrics] [--quiet]
//! ```
//!
//! `--explain` skips the probe sweeps and instead runs the canonical
//! bottleneck kernels (dependency chain, port saturation, streaming
//! loads, strided RAM traffic) through the timing model, printing what
//! each one is bound on per the `mc-insight` attribution engine.
//! `--evidence` extends each verdict with the mc-scope profile records
//! that back it, cited by profile line; `--profile[=DIR]` writes the
//! full per-evaluation profiles for `mc-report profile` to render.

use mc_asm::inst::Mnemonic;
use mc_creator::MicroCreator;
use mc_insight::attribute;
use mc_kernel::builder::{load_stream, strided_stream};
use mc_kernel::Program;
use mc_launcher::options::MachinePreset;
use mc_launcher::sweeps::{core_sweep, programs_by_unroll_shared};
use mc_launcher::{Ctx, KernelInput, LauncherOptions, MicroLauncher};
use mc_report::table::{fmt_f, AsciiTable};
use mc_simarch::config::Level;
use mc_simarch::energy::{energy_frequency_sweep, energy_optimal_frequency};
use mc_simarch::exec::{estimate, ExecEnv, Workload};
use mc_tools::{exitcode, split_args, take_flag, Run};
use mc_trace::diag;
use std::process::ExitCode;

const USAGE: &str = "usage: microprobe [x5650|x7550|e31240|sandybridge|nehalem2|nehalem4] \
                     [--explain [--evidence]] [--jobs=N] [--store=DIR] [--profile[=DIR]] \
                     [--trace=PATH] [--metrics] [--quiet] [--register] [--registry=DIR] \
                     [--progress[=MODE]] [--metrics-listen=ADDR]\n  \
                     --metrics prints the end-of-run span summary and metrics registry \
                     to stderr";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut flags, positional) = split_args(&args);
    let run = match Run::from_flags(&mut flags) {
        Ok(run) => run,
        Err(e) => {
            diag!("{e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    let (code, manifest) = probe(flags, positional, &run);
    run.finish("microprobe", manifest, code)
}

/// Runs the probe (or `--explain`) and prints its report. Returns the
/// exit code and, once the report is out, the manifest to register.
fn probe(
    mut flags: Vec<String>,
    positional: Vec<String>,
    run: &Run,
) -> (u8, Option<mc_report::RunManifest>) {
    let explain_mode = take_flag(&mut flags, "--explain").is_some();
    let evidence_mode = take_flag(&mut flags, "--evidence").is_some();
    if evidence_mode && !explain_mode {
        diag!("--evidence requires --explain\n{USAGE}");
        return (exitcode::USAGE, None);
    }
    if let Some(unknown) = flags.first() {
        diag!("unknown option `{unknown}`\n{USAGE}");
        return (exitcode::USAGE, None);
    }
    let arg = positional.first().cloned().unwrap_or_else(|| "x5650".to_owned());
    let Some(preset) = MachinePreset::from_name(&arg) else {
        diag!("{USAGE}");
        return (exitcode::USAGE, None);
    };
    // The probe's product is its stdout report; the registered record is
    // the manifest alone, so the characterization run stays on the time
    // axis alongside measured sweeps, and the collected profiles get
    // stamped with a real run ID.
    let mut manifest = mc_report::RunManifest::new();
    manifest.set("tool", "microprobe");
    manifest.set("machine", preset.name());
    let mode = if explain_mode { "explain:" } else { "" };
    manifest.set("input", format!("{mode}{}", preset.name()));
    run.note_store(&mut manifest);
    if explain_mode {
        explain(run.ctx(), preset, evidence_mode);
        return (exitcode::OK, Some(manifest));
    }
    let mut probe_span = mc_trace::span("probe.machine");
    probe_span.field("machine", preset.name());
    let machine = preset.config();
    println!("══ {} ══", machine.name);
    println!(
        "{} sockets × {} cores @ {:.2} GHz nominal\n",
        machine.sockets, machine.cores_per_socket, machine.nominal_ghz
    );

    // Hierarchy characterization: cycles/load for scalar & vector streams.
    let cycles_per_load = |m: Mnemonic, unroll: u32, level: Level| -> f64 {
        let program = programs_by_unroll_shared(run.ctx(), &load_stream(m, unroll, unroll))
            .expect("generation succeeds")
            .remove(0);
        let o = LauncherOptions {
            machine: preset,
            residence: Some(level),
            verify: false,
            ..LauncherOptions::default()
        };
        let loads = program.load_count().max(1) as f64;
        MicroLauncher::new(o)
            .run_in(run.ctx(), &KernelInput::program(program))
            .expect("run succeeds")
            .cycles_per_iteration
            / loads
    };
    let mut table =
        AsciiTable::new(vec!["level", "movss c/l (u8)", "movaps c/l (u8)", "movaps GB/s"]);
    for level in Level::ALL {
        let ss = cycles_per_load(Mnemonic::Movss, 8, level);
        let aps = cycles_per_load(Mnemonic::Movaps, 8, level);
        let gbs = 16.0 / (aps / machine.nominal_ghz); // bytes per ns
        table.row(vec![level.name().to_owned(), fmt_f(ss, 2), fmt_f(aps, 2), fmt_f(gbs, 1)]);
    }
    println!("─ memory hierarchy (streaming loads) ─\n{}", table.render());

    // Saturation knee.
    let program = programs_by_unroll_shared(run.ctx(), &load_stream(Mnemonic::Movaps, 8, 8))
        .expect("generation succeeds")
        .remove(0);
    let o = LauncherOptions {
        machine: preset,
        residence: Some(Level::Ram),
        verify: false,
        ..LauncherOptions::default()
    };
    let total = machine.sockets * machine.cores_per_socket;
    let series = core_sweep(run.ctx(), &o, &program, total).expect("sweep succeeds");
    let knee = mc_report::experiments::knee_x(&series, 1.1);
    println!("─ fork-mode RAM saturation ─");
    println!(
        "  1 core {:.1} cycles/iter → {} cores {:.1} cycles/iter; knee at {} cores\n",
        series.points[0].1,
        total,
        series.points.last().expect("points").1,
        knee.map_or("none".to_owned(), |k| format!("{k:.0}")),
    );

    // Energy optima per residence level.
    println!("─ energy-optimal core frequency (movaps ×8) ─");
    for level in Level::ALL {
        let w = Workload::resident_at(machine, level);
        let p = MicroCreator::new()
            .generate(&load_stream(Mnemonic::Movaps, 8, 8))
            .expect("generation succeeds")
            .programs
            .remove(0);
        let points = energy_frequency_sweep(&p, &w, machine);
        if let Some(ghz) = energy_optimal_frequency(&points) {
            println!("  {:4}: {ghz:.2} GHz", level.name());
        }
    }
    drop(probe_span);
    (exitcode::OK, Some(manifest))
}

/// `--explain`: run the canonical bottleneck kernels through the timing
/// model and print what each is bound on. With `--evidence` (or an
/// installed `--profile` collector) every estimate also records an
/// mc-scope profile; evidence mode then cites, per verdict, the profile
/// lines that back it.
fn explain(ctx: &Ctx, preset: MachinePreset, evidence_mode: bool) {
    let machine = preset.config();
    println!("══ {} — bottleneck attribution ══", machine.name);
    let generated = |desc: &mc_kernel::KernelDesc| -> Program {
        MicroCreator::new().generate(desc).expect("generation succeeds").programs.remove(0)
    };
    let fp_chain = Program::from_asm_text(
        "fp_add_chain",
        ".L0:\nmovsd (%rsi), %xmm0\naddsd %xmm0, %xmm15\naddq $8, %rsi\nsubq $1, %rdi\njge .L0\n",
    )
    .expect("assembles");
    let store_burst = Program::from_asm_text(
        "store_burst",
        ".L0:\nmovaps %xmm0, (%rsi)\nmovaps %xmm1, 16(%rsi)\nmovaps %xmm2, 32(%rsi)\n\
         movaps %xmm3, 48(%rsi)\naddq $64, %rsi\nsubq $16, %rdi\njge .L0\n",
    )
    .expect("assembles");
    let cases: Vec<(Program, Level)> = vec![
        (fp_chain, Level::L1),
        (store_burst, Level::L1),
        (generated(&load_stream(Mnemonic::Movaps, 8, 8)), Level::L1),
        (generated(&load_stream(Mnemonic::Movaps, 8, 8)), Level::Ram),
        (generated(&strided_stream(Mnemonic::Movss, &[16])), Level::Ram),
    ];
    let mut table = AsciiTable::new(vec![
        "kernel",
        "resid",
        "est c/i",
        "bound on",
        "bound c/i",
        "share",
        "runner-up",
    ]);
    let profiler = ctx.profiling();
    let mut cited: Vec<(String, String, String, Vec<mc_insight::EvidenceLine>)> = Vec::new();
    for (program, level) in &cases {
        let env = ExecEnv::single_core(preset.config().clone());
        let workload = Workload::resident_at(&env.machine, *level);
        let profiling = evidence_mode || profiler.is_some();
        let mut collector = profiling.then(|| mc_scope::Collector::new(program.name.clone()));
        let timing = match collector.as_mut() {
            Some(c) => mc_simarch::estimate_with_scope(program, &workload, &env, c),
            None => estimate(program, &workload, &env),
        };
        let a = attribute(&timing, &env.machine);
        if let Some(collector) = collector {
            let mut prof = collector.finish();
            prof.program_fingerprint =
                format!("{:016x}", mc_launcher::batch::program_fingerprint(program));
            // Key the profile exactly as a launcher run of this case would.
            let o = LauncherOptions {
                machine: preset,
                residence: Some(*level),
                verify: false,
                ..LauncherOptions::default()
            };
            prof.options_fingerprint = format!("{:016x}", o.fingerprint());
            prof.set_verdict(mc_insight::verdict_of(&a));
            if evidence_mode {
                cited.push((
                    program.name.clone(),
                    level.name().to_owned(),
                    format!("{} ({}.jsonl)", a.class.name(), prof.key()),
                    mc_insight::evidence(&prof),
                ));
            }
            if let Some(p) = &profiler {
                p.record(prof);
            }
        }
        mc_trace::event(
            "insight.attribution",
            vec![
                ("kernel", program.name.as_str().into()),
                ("residence", level.name().into()),
                ("class", a.class.name().into()),
                ("bound_cycles", a.bound_cycles.into()),
                ("share", a.share().into()),
            ],
        );
        table.row(vec![
            program.name.clone(),
            level.name().to_owned(),
            fmt_f(timing.cycles_per_iteration, 2),
            a.class.name().to_owned(),
            fmt_f(a.bound_cycles, 2),
            fmt_f(a.share(), 2),
            a.runner_up.map_or("-".to_owned(), |r| r.name().to_owned()),
        ]);
    }
    println!("{}", table.render());
    if evidence_mode {
        println!("─ evidence (profile line: record backing the verdict) ─");
        for (kernel, level, verdict, lines) in &cited {
            println!("{kernel} @ {level} — {verdict}");
            if lines.is_empty() {
                println!("  (no profile records back this verdict)");
            }
            for l in lines {
                println!("  L{}: {}", l.line, l.text);
            }
        }
    }
}
