//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce                  # run all experiments
//! reproduce --exp fig11      # one experiment
//! reproduce --quick          # a fast smoke subset of the experiments
//! reproduce --jobs=4         # worker threads for the evaluation engine
//! reproduce --list           # list experiment keys
//! reproduce --summary        # verdict lines only, no charts
//! reproduce --csv-dir=out    # also write each experiment's series as CSV
//! reproduce --adaptive       # adaptive repetition control (μOpTime)
//! reproduce --store=DIR      # persistent evaluation store (warm reruns)
//! reproduce --profile[=DIR]  # per-evaluation mc-scope profiles
//! ```
//!
//! `--adaptive[=bool]` switches every experiment's sweeps to adaptive
//! sampling: each point starts at `--min-samples` (default 2) outer
//! experiments and grows geometrically only while unstable, capped at
//! `--max-samples` (default 8). They parse as the launcher's own
//! options do (`LauncherOptions::from_args_over`).
//!
//! For each experiment the tool prints the regenerated data (terminal
//! chart or table), the shape checks against the paper's claims as
//! `[PASS]`/`[FAIL]` lines, and the measured-vs-paper notes that feed
//! EXPERIMENTS.md. The shared observability flags (`--trace=PATH`,
//! `--metrics`, `--quiet`) and supervision flags (`--deadline-ms`,
//! `--retries`, `--max-failures`, `--keep-going`/`--fail-fast`) apply;
//! each experiment runs under one `bench.experiment` span. A killed run
//! resumes by rerunning it with the same `--store=DIR`. Exit codes
//! follow the shared convention: 0 ok, 2 usage, 3 evaluation failures
//! over budget, 4 shape-check regression.

use mc_bench::figures::{quick_options, run_all, run_many, run_one, FigureResult};
use mc_launcher::LauncherOptions;
use mc_report::experiments::ExperimentId;
use mc_report::series::render_chart;
use mc_report::{CsvWriter, RunManifest};
use mc_tools::{exitcode, Run};
use mc_trace::diag;
use std::path::Path;
use std::process::ExitCode;

/// One experiment's series as a CSV document (columns: series, x, y),
/// preceded by a `# key: value` provenance header. The same text is
/// written by `--csv-dir` and registered by `--register`.
fn experiment_document(r: &FigureResult, base: &LauncherOptions, run: &Run) -> String {
    let mut manifest = RunManifest::new();
    manifest.set("tool", "reproduce");
    manifest.set("version", env!("CARGO_PKG_VERSION"));
    manifest.set("experiment", r.id.key());
    manifest.set("claim", r.id.paper_claim());
    // Record the sampling policy the sweeps actually ran under, so
    // `mc-report diff` can warn before comparing a fixed-budget baseline
    // against an adaptive run (or vice versa).
    manifest.set("adaptive", if base.adaptive { "true" } else { "false" });
    manifest.set("sampling", base.sampling_policy());
    run.note_store(&mut manifest);
    let mut csv = CsvWriter::new(vec!["series", "x", "y"]);
    for s in &r.series {
        for (x, y) in &s.points {
            csv.row(&[s.label.clone(), x.to_string(), y.to_string()]);
        }
    }
    let mut document = manifest.render();
    document.push_str(&csv.finish());
    document
}

/// Writes one experiment's document as `<key>.csv`. The write is atomic
/// (temp file + rename), so a killed run leaves complete documents only.
fn write_csv(dir: &Path, r: &FigureResult, document: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    mc_report::atomic_write(&dir.join(format!("{}.csv", r.id.key())), document.as_bytes())
}

fn print_result(r: &FigureResult, summary_only: bool) {
    println!("━━━ {} ━━━", r.title);
    println!("paper claim: {}", r.id.paper_claim());
    if !summary_only {
        if let Some(table) = &r.table {
            println!("{table}");
        }
        if !r.series.is_empty() {
            println!("{}", render_chart(&r.series, 72, 18, r.scale));
        }
    }
    print!("{}", r.outcome.render());
    for note in &r.notes {
        println!("  note: {note}");
    }
    println!();
}

/// The `--quick` smoke subset: the cheap experiments, still covering the
/// creator, the sweep drivers, and both fork and frequency modes.
const QUICK: &[ExperimentId] = &[
    ExperimentId::Counts,
    ExperimentId::Table1,
    ExperimentId::Fig3,
    ExperimentId::Fig11,
    ExperimentId::Fig13,
    ExperimentId::Fig14,
];

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut run = match Run::from_flags(&mut args) {
        Ok(run) => run,
        Err(e) => {
            diag!("{e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    let (code, manifest) = reproduce(args, &mut run);
    run.finish("reproduce", manifest, code)
}

/// Runs the selected experiments and prints their results. Returns the
/// exit code and, once the results are out, the manifest to register.
fn reproduce(args: Vec<String>, run: &mut Run) -> (u8, Option<RunManifest>) {
    let mut exp: Option<String> = None;
    let mut summary_only = false;
    let mut quick = false;
    let mut csv_dir: Option<String> = None;
    let mut sampling_flags: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for id in ExperimentId::ALL {
                    println!("{:8} {}", id.key(), id.paper_claim());
                }
                return (exitcode::OK, None);
            }
            "--summary" => summary_only = true,
            "--quick" => quick = true,
            "--exp" => exp = iter.next().cloned(),
            other if other.starts_with("--exp=") => {
                exp = Some(other.trim_start_matches("--exp=").to_owned());
            }
            other if other.starts_with("--csv-dir=") => {
                csv_dir = Some(other.trim_start_matches("--csv-dir=").to_owned());
            }
            other
                if ["--adaptive", "--min-samples", "--max-samples"]
                    .iter()
                    .any(|flag| other.starts_with(flag)) =>
            {
                sampling_flags.push(other)
            }
            other => {
                diag!(
                    "unknown argument `{other}` (try --list, --summary, --quick, --adaptive, \
                     --exp <key>)"
                );
                return (exitcode::USAGE, None);
            }
        }
    }
    // The reproduce defaults (2..8) are tighter than the launcher's
    // because the quick suite's fixed budget is only 3 outer experiments.
    let defaults = LauncherOptions { min_samples: 2, max_samples: 8, ..LauncherOptions::default() };
    let sampling = match LauncherOptions::from_args_over(defaults, &sampling_flags) {
        Ok(sampling) => sampling,
        Err(e) => {
            diag!("{e}");
            return (exitcode::USAGE, None);
        }
    };
    if sampling.adaptive && sampling.max_samples > 0 && sampling.max_samples < sampling.min_samples
    {
        diag!("--max-samples must be >= --min-samples");
        return (exitcode::USAGE, None);
    }
    // Every figure harness starts its sweeps from `base`; a fixed run
    // keeps the quick options' own sample bounds.
    let mut base = quick_options();
    if sampling.adaptive {
        base.adaptive = true;
        base.min_samples = sampling.min_samples.max(1);
        base.max_samples = sampling.max_samples;
    }

    let input_label = exp.clone().unwrap_or_else(|| if quick { "quick" } else { "all" }.to_owned());
    let results: Vec<FigureResult> = match exp {
        Some(key) => {
            let Some(id) = ExperimentId::from_key(&key) else {
                diag!("unknown experiment `{key}`; --list shows the available keys");
                return (exitcode::USAGE, None);
            };
            match run_one(run.ctx(), id, &base) {
                Ok(r) => vec![r],
                Err(e) => {
                    diag!("experiment failed: {e}");
                    return (exitcode::EVAL, None);
                }
            }
        }
        None => {
            let ctx = run.ctx();
            let results = if quick { run_many(ctx, QUICK, &base) } else { run_all(ctx, &base) };
            match results {
                Ok(rs) => rs,
                Err(e) => {
                    diag!("reproduction failed: {e}");
                    return (exitcode::EVAL, None);
                }
            }
        }
    };

    for r in &results {
        print_result(r, summary_only);
        if (csv_dir.is_some() || run.registering()) && !r.series.is_empty() {
            let document = experiment_document(r, &base, run);
            if let Some(dir) = &csv_dir {
                if let Err(e) = write_csv(Path::new(dir), r, &document) {
                    diag!("could not write {}.csv: {e}", r.id.key());
                }
            }
            run.record_document(r.id.key(), &document);
        }
    }

    let total: usize = results.iter().map(|r| r.outcome.checks.len()).sum();
    let passed: usize =
        results.iter().map(|r| r.outcome.checks.iter().filter(|c| c.passed).count()).sum();
    println!("════ {passed}/{total} shape checks passed across {} experiments ════", results.len());
    let code = run.exit_code(passed != total);
    let mut manifest = RunManifest::new();
    manifest.set("tool", "reproduce");
    manifest.set("input", input_label.as_str());
    manifest.set("experiments", results.len().to_string());
    manifest.set("checks_passed", passed.to_string());
    manifest.set("checks_total", total.to_string());
    manifest.set("adaptive", if base.adaptive { "true" } else { "false" });
    run.note_store(&mut manifest);
    (code, Some(manifest))
}
