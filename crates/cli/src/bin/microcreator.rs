//! `microcreator` — expand an XML kernel description into benchmark
//! programs (§3).
//!
//! ```text
//! microcreator <input.xml> [output-dir] [--format=asm|c] [--limit=N]
//!              [--seed=S] [--no-comments] [--stats] [--list] [--print=NAME]
//!              [--trace=PATH] [--metrics] [--quiet]
//! ```
//!
//! Without an output directory the tool reports what it would generate;
//! with one it writes one `.s` (or `.c`) translation unit per variant.

use mc_creator::emit::{render_asm_unit, write_programs};
use mc_creator::{CreatorConfig, MicroCreator};
use mc_report::Flags;
use mc_tools::{exitcode, Run};
use mc_trace::diag;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: microcreator <input.xml> [output-dir] [options]
options:
  --format=asm|c|bin  emitted form: assembly, C, or raw machine code
  --limit=N        cap the number of generated programs (§3.2)
  --seed=S         RNG seed for stochastic passes
  --random=V,L     random instruction selection: V variants of length L (§3.2)
  --no-comments    omit the Figure 8-style comments
  --stats          print per-pass candidate counts
  --list           list generated variant names
  --print=NAME     print one variant's assembly to stdout
  --jobs=N         worker threads for batch evaluation
  --deadline-ms=N --retries=N --max-failures=N --keep-going | --fail-fast
                   supervised execution (see README)
  --store=DIR      persistent evaluation store
  --profile[=DIR]  per-evaluation mc-scope profiles
  --trace=PATH     stream trace events as JSONL to PATH (or `stderr`)
  --metrics        print the end-of-run span summary (one row per pass)
                   and metrics registry to stderr
  --quiet          suppress diagnostic messages and progress displays
  --register       persist this run in the registry (--registry=DIR,
                   default .microtools)
  --metrics-listen=ADDR  serve live OpenMetrics on ADDR";

fn main() -> ExitCode {
    let mut flags = Flags::from_env(USAGE);
    let run = match Run::from_flags(&mut flags) {
        Ok(run) => run,
        Err(e) => {
            diag!("{e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    let (code, manifest) = create(flags, &run).unwrap_or_else(|e| {
        diag!("{e}\n{USAGE}");
        (exitcode::USAGE, None)
    });
    run.finish("microcreator", manifest, code)
}

/// Generates and emits the programs. Returns the exit code and, once
/// generation succeeded, the manifest to register; a command-line error
/// is `Err`.
fn create(mut flags: Flags, run: &Run) -> Result<(u8, Option<mc_report::RunManifest>), String> {
    let mut config = CreatorConfig::default();
    #[derive(PartialEq)]
    enum Format {
        Asm,
        C,
        Bin,
    }
    let format = match flags.value("--format").as_deref() {
        None | Some("asm") => Format::Asm,
        Some("c") => Format::C,
        Some("bin") => Format::Bin,
        Some(other) => return Err(format!("unknown --format `{other}` (asm, c or bin)")),
    };
    config.limit = flags.parse("--limit")?;
    if let Some(seed) = flags.parse("--seed")? {
        config.seed = seed;
    }
    if let Some(v) = flags.value("--random") {
        let parsed = v.split_once(',').map(|(v, l)| (v.parse(), l.parse()));
        let Some((Ok(variants), Ok(length))) = parsed else {
            return Err("--random expects `variants,length` (e.g. --random=8,4)".into());
        };
        config.random_selection = Some(mc_creator::RandomSelection { variants, length });
    }
    config.emit_comments = !flags.switch("--no-comments")?;
    let want_stats = flags.switch("--stats")?;
    let want_list = flags.switch("--list")?;
    let print_one = flags.value("--print");
    let mut positional = flags.positionals().into_iter();
    flags.finish()?;
    let input = positional.next().ok_or("missing <input.xml>")?;
    let output_dir = positional.next().map(PathBuf::from);

    let xml = match std::fs::read_to_string(&input) {
        Ok(x) => x,
        Err(e) => {
            diag!("cannot read {input}: {e}");
            return Ok((exitcode::USAGE, None));
        }
    };
    let creator = MicroCreator::with_config(config);
    let result = match creator.generate_from_xml(&xml) {
        Ok(r) => r,
        Err(e) => {
            diag!("generation failed: {e}");
            return Ok((exitcode::USAGE, None));
        }
    };

    // Status lines go to stderr: stdout carries only what was asked for
    // (`--stats`, `--list`, `--print`), so `--list | wc -l` counts variants.
    diag!("generated {} benchmark programs from {input}", result.programs.len());
    if want_stats {
        println!("{:28} {:>4} {:>10}", "pass", "ran", "candidates");
        for s in &result.stats {
            println!("{:28} {:>4} {:>10}", s.pass, if s.ran { "yes" } else { "no" }, s.candidates);
        }
    }
    if want_list {
        for p in &result.programs {
            println!("{}", p.name);
        }
    }
    if let Some(name) = print_one {
        match result.programs.iter().find(|p| p.name == name) {
            Some(p) => print!("{}", render_asm_unit(p)),
            None => {
                diag!("no variant named `{name}` (try --list)");
                return Ok((exitcode::USAGE, None));
            }
        }
    }
    if let Some(dir) = output_dir {
        if format == Format::Bin {
            if let Err(e) = std::fs::create_dir_all(&dir) {
                diag!("cannot create {}: {e}", dir.display());
                return Ok((exitcode::EVAL, None));
            }
            let mut written = 0usize;
            for p in &result.programs {
                match p.to_machine_code() {
                    Ok(bytes) => {
                        let file = dir.join(format!("{}.bin", p.name.replace('-', "_")));
                        if let Err(e) = mc_report::atomic_write(&file, &bytes) {
                            diag!("cannot write {}: {e}", file.display());
                            return Ok((exitcode::EVAL, None));
                        }
                        written += 1;
                    }
                    Err(e) => {
                        diag!("{}: {e}", p.name);
                        return Ok((exitcode::EVAL, None));
                    }
                }
            }
            diag!("wrote {written} .bin files to {}", dir.display());
        } else {
            match write_programs(&result.programs, &dir, format == Format::C) {
                Ok(files) => diag!(
                    "wrote {} {} files to {}",
                    files.len(),
                    if format == Format::C { ".c" } else { ".s" },
                    dir.display()
                ),
                Err(e) => {
                    diag!("emit failed: {e}");
                    return Ok((exitcode::EVAL, None));
                }
            }
        }
    }
    // Generation produces no measurement CSV; the registered record is
    // the manifest alone, so trend listings still show the run happened.
    let mut manifest = mc_report::RunManifest::new();
    manifest.set("tool", "microcreator");
    manifest.set("input", input.as_str());
    manifest.set("programs", result.programs.len().to_string());
    manifest.set("seed", creator.config().seed.to_string());
    run.note_store(&mut manifest);
    Ok((exitcode::OK, Some(manifest)))
}
