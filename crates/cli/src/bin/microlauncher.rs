//! `microlauncher` — measure kernels in the controlled environment (§4).
//!
//! ```text
//! microlauncher <kernel.s | description.xml> [launcher options…]
//! ```
//!
//! `.s` inputs are parsed as AT&T assembly (one kernel loop); `.bin`
//! inputs are disassembled raw machine code (the §4.1 object path). `.xml`
//! inputs run through MicroCreator first and every generated variant is
//! measured — the full paper workflow in one command. All other flags are
//! MicroLauncher's 30+ options (`--machine=x5650`, `--residence=l3`,
//! `--mode=fork`, `--cores=12`, …); see `--help`.
//!
//! Every CSV document opens with a `# key: value` run-manifest header
//! (tool, version, machine, options hash, seed, …) that
//! `mc_report::CsvTable::parse` skips, so downstream tooling keeps
//! working while runs stay attributable.

use mc_creator::MicroCreator;
use mc_launcher::launcher::RunReport;
use mc_launcher::{KernelInput, LauncherOptions, MicroLauncher};
use mc_tools::{exitcode, Run};
use mc_trace::diag;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> String {
    format!(
        "usage: microlauncher <kernel.s | description.xml> [options]\n\
         options (MicroLauncher's §4.2 surface):\n  {}\n  \
         --jobs=N (parallel batch evaluation; MICROTOOLS_JOBS)\n  \
         --deadline-ms=N --retries=N --max-failures=N --keep-going | --fail-fast \
         (supervised execution; see README)\n  \
         --store=DIR (persistent evaluation store; MICROTOOLS_STORE)\n  \
         --profile[=DIR] (per-evaluation mc-scope profiles; MICROTOOLS_PROFILE)\n  \
         --trace=PATH --metrics --quiet (observability; see README)\n  \
         --register --registry=DIR (persist this run; see README)\n  \
         --progress[=tty|jsonl|jsonl:PATH] --metrics-listen=ADDR (live view)\n\
         env: MICROTOOLS_ADAPTIVE=bool|MIN..MAX (adaptive sampling default; \
         flags win)",
        LauncherOptions::OPTION_NAMES.join("\n  ")
    )
}

/// Builds the `# key: value` provenance header that precedes the CSV
/// rows. `stable` is the run-level verdict: every emitted row passed the
/// stability protocol. Diff tooling reads it to decide whether the
/// document is a trustworthy baseline. Supervised runs also record how
/// many evaluations failed terminally.
fn build_manifest(
    options: &LauncherOptions,
    input: &str,
    stable: bool,
    run: &Run,
    failures: usize,
) -> mc_report::RunManifest {
    let mut manifest = options.manifest("microlauncher", env!("CARGO_PKG_VERSION"));
    manifest.set("input", input);
    manifest.set("stable", if stable { "true" } else { "false" });
    if failures > 0 {
        manifest.set("failed_rows", failures.to_string());
    }
    run.note_store(&mut manifest);
    if let Ok(elapsed) = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        manifest.set("timestamp_unix", elapsed.as_secs().to_string());
    }
    manifest
}

/// The registry document name for an input path: its file stem, so the
/// same kernel file joins across registered runs.
fn document_name(input: &str) -> String {
    std::path::Path::new(input).file_stem().and_then(|s| s.to_str()).unwrap_or(input).to_owned()
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = match Run::from_flags(&mut args) {
        Ok(run) => run,
        Err(e) => {
            diag!("{e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    let (code, manifest) = launch(args, &mut run);
    run.finish("microlauncher", manifest, code)
}

/// Measures the input and prints its CSV document. Returns the exit code
/// and, once the document is out, the manifest to register.
fn launch(args: Vec<String>, run: &mut Run) -> (u8, Option<mc_report::RunManifest>) {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return (exitcode::OK, None);
    }
    let Some(input) = args.first().filter(|a| !a.starts_with("--")) else {
        diag!("{}", usage());
        return (exitcode::USAGE, None);
    };
    // Environment-derived defaults first, explicit flags on top.
    let mut env_base = LauncherOptions::default();
    if let Err(e) = env_base.apply_adaptive_env() {
        diag!("{e}\n{}", usage());
        return (exitcode::USAGE, None);
    }
    let options = match LauncherOptions::from_args_over(env_base, &args[1..]) {
        Ok(o) => o,
        Err(e) => {
            diag!("{e}\n{}", usage());
            return (exitcode::USAGE, None);
        }
    };

    // Object input: raw machine code, disassembled by mc-asm.
    if input.ends_with(".bin") {
        let bytes = match std::fs::read(input) {
            Ok(b) => b,
            Err(e) => {
                diag!("cannot read {input}: {e}");
                return (exitcode::USAGE, None);
            }
        };
        let name = input.rsplit('/').next().unwrap_or(input).trim_end_matches(".bin");
        let kernel_input = match KernelInput::object(name, &bytes) {
            Ok(k) => k,
            Err(e) => {
                diag!("disassembly failed: {e}");
                return (exitcode::USAGE, None);
            }
        };
        let launcher = MicroLauncher::new(options.clone());
        return match launcher.run_in(run.ctx(), &kernel_input) {
            Ok(report) => {
                let manifest = build_manifest(&options, input, report.stable, run, 0);
                let document = format!(
                    "{}{}\n{}\n",
                    manifest.render(),
                    RunReport::csv_header(),
                    report.csv_row()
                );
                print!("{document}");
                run.record_document(&document_name(input), &document);
                (exitcode::OK, Some(manifest))
            }
            Err(e) => {
                diag!("run failed: {e}");
                (exitcode::EVAL, None)
            }
        };
    }

    let contents = match std::fs::read_to_string(input) {
        Ok(c) => c,
        Err(e) => {
            diag!("cannot read {input}: {e}");
            return (exitcode::USAGE, None);
        }
    };

    // Assemble the kernel set: one parsed program, or a whole generation.
    let programs = if input.ends_with(".xml") {
        match MicroCreator::new().generate_from_xml(&contents) {
            Ok(r) => r.programs,
            Err(e) => {
                diag!("generation failed: {e}");
                return (exitcode::USAGE, None);
            }
        }
    } else {
        let name = input.rsplit('/').next().unwrap_or(input).trim_end_matches(".s");
        match mc_kernel::Program::from_asm_text(name, &contents) {
            Ok(mut p) => {
                // Hand-written kernels carry no metadata; honor the
                // launcher's overrides.
                if options.nb_vectors > 0 {
                    p.nb_arrays = options.nb_vectors;
                }
                if options.element_bytes > 0 {
                    p.element_bytes = options.element_bytes;
                }
                vec![p]
            }
            Err(e) => {
                diag!("assembly parse failed: {e}");
                return (exitcode::USAGE, None);
            }
        }
    };

    // Fan the variant set across the supervised evaluation engine; rows
    // come back in generation order. A failed variant (panic, timeout,
    // exhausted retries) stays visible as a `status=failed` row instead
    // of silently shrinking the document. The rows are collected before
    // printing so the manifest can carry the run-level verdicts.
    let programs: Vec<Arc<mc_kernel::Program>> = programs.into_iter().map(Arc::new).collect();
    let base = Arc::new(options);
    let points = programs.iter().map(|p| mc_launcher::EvalPoint::new(p.clone(), base.clone()));
    let mut failures = 0usize;
    let mut all_stable = true;
    let mut rows = Vec::with_capacity(programs.len());
    for (program, result) in
        programs.iter().zip(run.ctx().try_run_batch_supervised(points.collect()))
    {
        match result {
            Ok(report) => {
                all_stable &= report.stable;
                rows.push(report.csv_row());
            }
            Err(e) => {
                diag!("run failed: {} ({e})", program.name);
                rows.push(RunReport::failed_csv_row(
                    &program.name,
                    &program.name,
                    &base,
                    e.kind.name(),
                ));
                failures += 1;
            }
        }
    }
    let manifest = build_manifest(&base, input, all_stable, run, failures);
    let mut document = manifest.render();
    document.push_str(RunReport::csv_header());
    document.push('\n');
    for row in rows {
        document.push_str(&row);
        document.push('\n');
    }
    print!("{document}");
    run.record_document(&document_name(input), &document);
    (run.exit_code(false), Some(manifest))
}
