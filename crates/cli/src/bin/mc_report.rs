//! `mc-report` — utilities over MicroTools CSV artifacts and the run
//! registry.
//!
//! ```text
//! mc-report diff <base.csv> <new.csv> [--threshold=FRACTION] [--top=N]
//! mc-report history <series> [--registry=DIR] [--last=N] [--top=N]
//! mc-report trend [--registry=DIR] [--last=N] [--top=N]
//!                 [--threshold=FRACTION] [--json[=PATH]]
//! mc-report import-bench <BENCH.json>... [--registry=DIR]
//! mc-report store stats <dir> [--gc --max-bytes=N] [--json[=PATH]]
//! mc-report profile <file.jsonl> [--check] [--format=chrome[:OUT]]
//! ```
//!
//! `diff` joins two sweep CSVs (microlauncher output, or the
//! `reproduce --csv-dir` series files) by their manifest-backed keys and
//! flags every point that moved beyond its noise threshold, naming what
//! each side was bound on. Provenance warnings go to stderr; stdout is
//! the table alone. Exit code 0 means no regressions; 4 means at least
//! one point regressed.
//!
//! `history` and `trend` read runs persisted by `--register` (root:
//! `--registry=DIR`, else `.microtools`).
//! `history` lists one series' value across runs; `trend` joins every
//! series, builds a noise band from each run's recorded stability
//! spreads, and exits 4 when the latest run regressed beyond its band.
//!
//! `import-bench` backfills historical `BENCH_*.json` acceptance
//! snapshots into the registry so trends start with history.
//!
//! `store stats` summarizes a persistent evaluation store directory
//! (`--store=DIR` on the measurement tools): entry count and bytes per
//! record kind, the version/fingerprint histogram, cumulative hit-ledger
//! totals, and — with `--gc --max-bytes=N` — evicts oldest records until
//! the store fits the byte budget. `--json` emits the same summary as
//! one JSON object (machine-readable, like `trend --json`).
//!
//! `profile` renders a per-evaluation mc-scope profile (written by the
//! measurement tools' `--profile`): port-pressure heatmap, critical-path
//! table, instruction timeline, and the evidence-backed verdict.
//! `--check` validates the file and prints a one-line summary instead;
//! `--format=chrome:OUT` exports the instruction timeline as a
//! Chrome-trace document for `chrome://tracing` / Perfetto.

use mc_insight::{diff_documents, render_diff};
use mc_pulse::{import_bench, Registry};
use mc_report::gate::{GateOptions, DEFAULT_FLOOR};
use mc_tools::{exitcode, split_args, take_flag, Trace};
use mc_trace::diag;
use std::process::ExitCode;

const USAGE: &str = "usage: mc-report <command> [options]\n\
  diff <base.csv> <new.csv>   [--threshold=FRACTION] [--top=N]\n\
  history <series>            [--registry=DIR] [--last=N] [--top=N]\n\
  trend                       [--registry=DIR] [--last=N] [--top=N]\n\
                              [--threshold=FRACTION] [--json[=PATH]]\n\
  import-bench <BENCH.json>.. [--registry=DIR]\n\
  store stats <dir>           [--gc --max-bytes=N] [--json[=PATH]]\n\
  profile <file.jsonl>        [--check] [--format=chrome[:OUT]]\n\
common: [--trace=PATH] [--metrics] [--quiet]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut flags, positional) = split_args(&args);
    let mut trace = match Trace::from_flags(&mut flags) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    let code = run(flags, positional);
    trace.finish();
    code
}

fn usage_error(message: &str) -> ExitCode {
    diag!("{message}\n{USAGE}");
    ExitCode::from(exitcode::USAGE)
}

fn run(flags: Vec<String>, positional: Vec<String>) -> ExitCode {
    match positional.first().map(String::as_str) {
        Some("diff") => diff(flags, &positional[1..]),
        Some("history") => history(flags, &positional[1..]),
        Some("trend") => trend(flags, &positional[1..]),
        Some("import-bench") => import(flags, &positional[1..]),
        Some("store") => store_cmd(flags, &positional[1..]),
        Some("profile") => profile_cmd(flags, &positional[1..]),
        Some(other) => usage_error(&format!("unknown command `{other}`")),
        None => usage_error("missing command"),
    }
}

/// `--threshold=FRACTION` (the regression floor, default 1%) and
/// `--top=N` (table rows, default `top`): the options `diff` and `trend`
/// share.
fn take_gate_options(flags: &mut Vec<String>, top: usize) -> Result<GateOptions, String> {
    let floor = match take_flag(flags, "--threshold") {
        None => DEFAULT_FLOOR,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => t,
            _ => return Err(format!("--threshold: expected a non-negative fraction, got `{v}`")),
        },
    };
    Ok(GateOptions { floor, top: take_count(flags, "--top")?.unwrap_or(top) })
}

/// A positive count flag (`--top`, `--last`).
fn take_count(flags: &mut Vec<String>, name: &str) -> Result<Option<usize>, String> {
    let Some(v) = take_flag(flags, name) else { return Ok(None) };
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!("{name}: expected a positive count, got `{v}`")),
    }
}

/// The registry the subcommand reads or writes: `--registry=DIR`, else
/// `.microtools`.
fn take_registry(flags: &mut Vec<String>) -> Result<Registry, String> {
    let flag = take_flag(flags, "--registry");
    if flag.as_deref() == Some("") {
        return Err("--registry requires a directory path".into());
    }
    Ok(Registry::resolve(flag.as_deref()))
}

fn reject_unknown(flags: &[String]) -> Result<(), String> {
    match flags.first() {
        Some(unknown) => Err(format!("unknown option `{unknown}`")),
        None => Ok(()),
    }
}

fn diff(mut flags: Vec<String>, positional: &[String]) -> ExitCode {
    let opts = match take_gate_options(&mut flags, 10) {
        Ok(opts) => opts,
        Err(e) => return usage_error(&e),
    };
    if let Err(e) = reject_unknown(&flags) {
        return usage_error(&e);
    }
    let [base_path, new_path] = positional else {
        return usage_error("diff takes exactly two CSV paths");
    };
    let read = |path: &str| -> Result<String, ExitCode> {
        std::fs::read_to_string(path).map_err(|e| {
            diag!("cannot read {path}: {e}");
            ExitCode::from(exitcode::USAGE)
        })
    };
    let base = match read(base_path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let new = match read(new_path) {
        Ok(text) => text,
        Err(code) => return code,
    };
    let mut span = mc_trace::span("report.diff");
    let report = match diff_documents(&base, &new, &opts) {
        Ok(report) => report,
        Err(e) => {
            diag!("{e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    span.field("points", report.entries.len());
    span.field("regressions", report.regressions().len());
    span.field("improvements", report.improvements().len());
    // Provenance warnings are diagnostics: stderr, so piped stdout stays
    // a clean table.
    for warning in &report.warnings {
        diag!("warning: {warning}");
    }
    print!("{}", render_diff(&report, &opts));
    if report.regressions().is_empty() {
        ExitCode::from(exitcode::OK)
    } else {
        ExitCode::from(exitcode::REGRESSION)
    }
}

fn history(mut flags: Vec<String>, positional: &[String]) -> ExitCode {
    let (top, last) = match take_count(&mut flags, "--top")
        .and_then(|top| Ok((top, take_count(&mut flags, "--last")?)))
    {
        Ok(counts) => counts,
        Err(e) => return usage_error(&e),
    };
    let registry = match take_registry(&mut flags) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    if let Err(e) = reject_unknown(&flags) {
        return usage_error(&e);
    }
    let [series] = positional else {
        return usage_error("history takes exactly one series filter (substring of doc:key)");
    };
    let runs = match mc_pulse::load_runs(&registry, last) {
        Ok(runs) => runs,
        Err(e) => {
            diag!("{}: {e}", registry.root().display());
            return ExitCode::from(exitcode::USAGE);
        }
    };
    if runs.is_empty() {
        diag!("no registered runs under {} (run with --register first)", registry.root().display());
        return ExitCode::from(exitcode::USAGE);
    }
    print!("{}", mc_pulse::render_history(&runs, series, top.unwrap_or(20)));
    ExitCode::from(exitcode::OK)
}

fn trend(mut flags: Vec<String>, positional: &[String]) -> ExitCode {
    let (opts, last) = match take_gate_options(&mut flags, 20)
        .and_then(|opts| Ok((opts, take_count(&mut flags, "--last")?)))
    {
        Ok(parsed) => parsed,
        Err(e) => return usage_error(&e),
    };
    let json = take_flag(&mut flags, "--json");
    let registry = match take_registry(&mut flags) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    if let Err(e) = reject_unknown(&flags) {
        return usage_error(&e);
    }
    if !positional.is_empty() {
        return usage_error("trend takes no positional arguments");
    }
    let mut span = mc_trace::span("report.trend");
    let runs = match mc_pulse::load_runs(&registry, last) {
        Ok(runs) => runs,
        Err(e) => {
            diag!("{}: {e}", registry.root().display());
            return ExitCode::from(exitcode::USAGE);
        }
    };
    if runs.is_empty() {
        diag!("no registered runs under {} (run with --register first)", registry.root().display());
        return ExitCode::from(exitcode::USAGE);
    }
    let report = mc_pulse::compute_trend(&runs, &opts);
    span.field("runs", report.runs.len());
    span.field("series", report.series.len());
    span.field("regressions", report.regressions().len());
    match json.as_deref() {
        None => print!("{}", mc_pulse::render_trend(&report, &opts)),
        Some("") => println!("{}", mc_pulse::trend_to_json(&report)),
        Some(path) => {
            let mut text = mc_pulse::trend_to_json(&report);
            text.push('\n');
            if let Err(e) = std::fs::write(path, text) {
                diag!("--json: cannot write {path}: {e}");
                return ExitCode::from(exitcode::USAGE);
            }
            print!("{}", mc_pulse::render_trend(&report, &opts));
        }
    }
    if report.regressions().is_empty() {
        ExitCode::from(exitcode::OK)
    } else {
        ExitCode::from(exitcode::REGRESSION)
    }
}

/// `store stats <dir>`: what a persistent evaluation store holds and how
/// it has been hit across processes, plus opt-in size-budget GC and a
/// `--json` machine-readable mode.
fn store_cmd(mut flags: Vec<String>, positional: &[String]) -> ExitCode {
    let want_gc = take_flag(&mut flags, "--gc").is_some();
    let max_bytes = match take_flag(&mut flags, "--max-bytes") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => return usage_error(&format!("--max-bytes: invalid byte count `{v}`")),
        },
        None => None,
    };
    let json = take_flag(&mut flags, "--json");
    if want_gc != max_bytes.is_some() {
        return usage_error("store stats: --gc and --max-bytes=N go together");
    }
    if let Err(e) = reject_unknown(&flags) {
        return usage_error(&e);
    }
    let [stats, dir] = positional else {
        return usage_error("store takes a subcommand and a directory: store stats <dir>");
    };
    if stats != "stats" {
        return usage_error(&format!("unknown store subcommand `{stats}` (expected `stats`)"));
    }
    let root = std::path::Path::new(dir);
    if !root.is_dir() {
        diag!("{dir}: not a directory");
        return ExitCode::from(exitcode::USAGE);
    }
    let mut gc_report = None;
    if let Some(budget) = max_bytes {
        match mc_store::gc(root, budget) {
            Ok(report) => {
                if json.as_deref() != Some("") {
                    println!(
                        "gc: removed {} of {} entries ({} of {} bytes) to fit {budget} bytes",
                        report.removed_entries,
                        report.scanned_entries,
                        report.removed_bytes,
                        report.scanned_bytes
                    );
                }
                gc_report = Some(report);
            }
            Err(e) => {
                diag!("gc failed under {dir}: {e}");
                return ExitCode::from(exitcode::EVAL);
            }
        }
    }
    let scan = match mc_store::scan(root) {
        Ok(scan) => scan,
        Err(e) => {
            diag!("cannot scan {dir}: {e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    let ledger = mc_store::ledger_totals(root);
    let ledger_bytes = mc_store::ledger_size(root);
    if json.is_some() {
        let text =
            store_stats_json(dir, &scan, &ledger, ledger_bytes, max_bytes, gc_report.as_ref());
        match json.as_deref() {
            Some("") => println!("{text}"),
            Some(path) => {
                if let Err(e) = std::fs::write(path, format!("{text}\n")) {
                    diag!("--json: cannot write {path}: {e}");
                    return ExitCode::from(exitcode::USAGE);
                }
            }
            None => unreachable!("json.is_some() checked above"),
        }
        if json.as_deref() == Some("") {
            return ExitCode::from(exitcode::OK);
        }
    }
    println!("store {dir}");
    println!(
        "  entries: {} ({}, {} bytes)",
        scan.entries,
        mc_report::table::human_bytes(scan.bytes),
        scan.bytes
    );
    for (kind, count) in &scan.kinds {
        println!("    {kind}: {count}");
    }
    if scan.unreadable > 0 {
        println!("  unreadable: {} (skipped at load, removed first by --gc)", scan.unreadable);
    }
    if !scan.versions.is_empty() {
        println!("  versions (format/schema/calibration -> entries):");
        for ((version, schema, calib), count) in &scan.versions {
            println!("    v{version} schema={schema:016x} calib={calib:016x}: {count}");
        }
    }
    if ledger.processes == 0 {
        println!("  ledger: no recorded processes");
    } else {
        let c = &ledger.counters;
        println!(
            "  ledger: {} process(es); hit_mem={} hit_disk={} miss={} saved={} \
             corrupt={} stale={} write_failed={}",
            ledger.processes,
            c.hit_mem,
            c.hit_disk,
            c.miss,
            c.saved,
            c.skipped_corrupt,
            c.stale,
            c.write_failed
        );
        // The on-disk size after any auto-compaction (flushes fold the
        // ledger past mc_store::LEDGER_COMPACT_BYTES into one rollup).
        println!(
            "  ledger file: {} bytes ({}, compacts past {})",
            ledger_bytes,
            mc_report::table::human_bytes(ledger_bytes),
            mc_report::table::human_bytes(mc_store::LEDGER_COMPACT_BYTES)
        );
    }
    ExitCode::from(exitcode::OK)
}

/// The `store stats --json` document: one canonical JSON object, shaped
/// like `trend --json` (sorted keys, numbers as numbers).
fn store_stats_json(
    dir: &str,
    scan: &mc_store::StoreScan,
    ledger: &mc_store::LedgerTotals,
    ledger_bytes: u64,
    budget: Option<u64>,
    gc: Option<&mc_store::GcReport>,
) -> String {
    use mc_report::Json;
    use std::collections::BTreeMap;
    let mut o = BTreeMap::new();
    o.insert("root".to_owned(), Json::Str(dir.to_owned()));
    o.insert("entries".to_owned(), Json::from(scan.entries));
    o.insert("bytes".to_owned(), Json::from(scan.bytes));
    o.insert("bytes_human".to_owned(), Json::Str(mc_report::table::human_bytes(scan.bytes)));
    o.insert("unreadable".to_owned(), Json::from(scan.unreadable));
    let kinds: BTreeMap<String, Json> =
        scan.kinds.iter().map(|(k, n)| (k.clone(), Json::from(*n))).collect();
    o.insert("kinds".to_owned(), Json::Obj(kinds));
    let versions: Vec<Json> = scan
        .versions
        .iter()
        .map(|((version, schema, calib), count)| {
            let mut v = BTreeMap::new();
            v.insert("version".to_owned(), Json::from(*version));
            v.insert("schema".to_owned(), Json::Str(format!("{schema:016x}")));
            v.insert("calibration".to_owned(), Json::Str(format!("{calib:016x}")));
            v.insert("entries".to_owned(), Json::from(*count));
            Json::Obj(v)
        })
        .collect();
    o.insert("versions".to_owned(), Json::Arr(versions));
    let mut l = BTreeMap::new();
    l.insert("processes".to_owned(), Json::from(ledger.processes));
    let c = &ledger.counters;
    for (key, n) in [
        ("hit_mem", c.hit_mem),
        ("hit_disk", c.hit_disk),
        ("miss", c.miss),
        ("saved", c.saved),
        ("corrupt", c.skipped_corrupt),
        ("stale", c.stale),
        ("write_failed", c.write_failed),
        ("file_bytes", ledger_bytes),
        ("compact_threshold_bytes", mc_store::LEDGER_COMPACT_BYTES),
    ] {
        l.insert(key.to_owned(), Json::from(n));
    }
    o.insert("ledger".to_owned(), Json::Obj(l));
    if let (Some(budget), Some(gc)) = (budget, gc) {
        let mut g = BTreeMap::new();
        g.insert("budget_bytes".to_owned(), Json::from(budget));
        g.insert("removed_entries".to_owned(), Json::from(gc.removed_entries));
        g.insert("scanned_entries".to_owned(), Json::from(gc.scanned_entries));
        g.insert("removed_bytes".to_owned(), Json::from(gc.removed_bytes));
        g.insert("scanned_bytes".to_owned(), Json::from(gc.scanned_bytes));
        o.insert("gc".to_owned(), Json::Obj(g));
    }
    Json::Obj(o).render()
}

/// `profile <file.jsonl>`: render (or validate, or export) one
/// per-evaluation mc-scope profile.
fn profile_cmd(mut flags: Vec<String>, positional: &[String]) -> ExitCode {
    let check = take_flag(&mut flags, "--check").is_some();
    let format = take_flag(&mut flags, "--format");
    if let Err(e) = reject_unknown(&flags) {
        return usage_error(&e);
    }
    let [path] = positional else {
        return usage_error("profile takes exactly one profile .jsonl path");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            diag!("cannot read {path}: {e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    if check {
        return match mc_scope::jsonl::validate(&text) {
            Ok(summary) => {
                println!("{path}: {summary}");
                ExitCode::from(exitcode::OK)
            }
            Err(e) => {
                diag!("{path}: invalid profile: {e}");
                ExitCode::from(exitcode::REGRESSION)
            }
        };
    }
    let profile = match mc_scope::jsonl::decode(&text) {
        Ok(p) => p,
        Err(e) => {
            diag!("{path}: invalid profile: {e}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    match format.as_deref() {
        None => {
            print!("{}", mc_scope::render::full_report(&profile));
            let lines = mc_insight::evidence(&profile);
            if !lines.is_empty() {
                println!("─ evidence (profile line: record backing the verdict) ─");
                for l in &lines {
                    println!("  L{}: {}", l.line, l.text);
                }
            }
            ExitCode::from(exitcode::OK)
        }
        Some(spec) if spec == "chrome" || spec.starts_with("chrome:") => {
            let out = spec.strip_prefix("chrome:").filter(|s| !s.is_empty());
            let document = profile_chrome_trace(&profile);
            match out {
                None => print!("{document}"),
                Some(out_path) => {
                    if let Err(e) =
                        mc_report::atomic_write_str(std::path::Path::new(out_path), &document)
                    {
                        diag!("--format=chrome: cannot write {out_path}: {e}");
                        return ExitCode::from(exitcode::USAGE);
                    }
                    println!("wrote Chrome trace to {out_path}");
                }
            }
            ExitCode::from(exitcode::OK)
        }
        Some(other) => usage_error(&format!("--format: unknown format `{other}` (chrome[:OUT])")),
    }
}

/// Renders the profile's reconstructed instruction timeline as one
/// Chrome-trace document, reusing the mc-trace exporter: one span per
/// instruction lifetime (issue → retire, microseconds stand in for
/// cycles), named by the instruction text, on a per-port "thread".
fn profile_chrome_trace(profile: &mc_scope::EvalProfile) -> String {
    let insts: std::collections::HashMap<usize, &mc_scope::InstScope> =
        profile.insts().into_iter().map(|(_, i)| (i.index, i)).collect();
    let sink = mc_trace::ChromeTraceSink::in_memory();
    for (seq, (_, t)) in profile.timeline().into_iter().enumerate() {
        let name =
            insts.get(&t.inst).map_or_else(|| format!("inst#{}", t.inst), |i| i.text.clone());
        let mut event = mc_trace::TraceEvent::new(mc_trace::EventKind::Span, name)
            .with("inst", t.inst as u64)
            .with("iteration", u64::from(t.iteration))
            .with("port", t.port.as_str())
            .with("waited_on", t.wait.as_str());
        event.seq = seq as u64;
        event.micros = t.issue.round() as u64;
        event.duration_micros = Some((t.retire - t.issue).round().max(1.0) as u64);
        mc_trace::TraceSink::record(&sink, &event);
    }
    sink.render()
}

fn import(mut flags: Vec<String>, positional: &[String]) -> ExitCode {
    let registry = match take_registry(&mut flags) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    if let Err(e) = reject_unknown(&flags) {
        return usage_error(&e);
    }
    if positional.is_empty() {
        return usage_error("import-bench takes one or more BENCH_*.json paths");
    }
    let mut imported = 0usize;
    for path in positional {
        let record = match import_bench(std::path::Path::new(path)) {
            Ok(record) => record,
            Err(e) => {
                diag!("{e}");
                return ExitCode::from(exitcode::USAGE);
            }
        };
        match registry.register(&record) {
            Ok(run_id) => {
                diag!("imported {path} as run {run_id} ({} points)", record.points.len());
                imported += 1;
            }
            Err(e) => {
                diag!("{path}: registration failed: {e}");
                return ExitCode::from(exitcode::USAGE);
            }
        }
    }
    diag!("{imported} snapshot(s) imported into {}", registry.root().display());
    ExitCode::from(exitcode::OK)
}
