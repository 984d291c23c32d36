//! Golden output of the regression gate: `mc-report diff`, `trend` and
//! `history` render byte for byte what `tests/golden/*.txt` holds.
//!
//! Each case appends to one transcript per subcommand: a `== name`
//! header, the provenance warnings (the lines `mc-report` writes to
//! stderr), the regression and improvement verdicts with the exit code
//! they map to, then the rendered report (stdout). The inputs cover the
//! launcher and series schemas, failed and unstable rows, the p95 noise
//! floor, `--threshold` overrides, top-N truncation, added and missing
//! keys, streaks, single-run series and the median baseline.

use mc_insight::{diff_documents, render_diff};
use mc_pulse::{
    compute_trend, render_history, render_trend, trend_to_json, IndexEntry, LoadedRun, RunRecord,
};
use mc_report::gate::{GateOptions, Verdict, DEFAULT_FLOOR};
use mc_report::RunManifest;
use std::fmt::Write as _;

const LAUNCHER_HEADER: &str =
    "kernel,label,machine,mode,workers,cycles_per_iteration,min,median,max,stable,bottleneck,status";

/// A launcher CSV: `(kernel, cycles, spread, stable, bottleneck)` rows,
/// plus raw extra lines (failed rows) appended verbatim.
fn launcher_csv(manifest: &str, rows: &[(&str, f64, f64, bool, &str)], extra: &str) -> String {
    let mut doc = format!("{manifest}{LAUNCHER_HEADER}\n");
    for (kernel, cycles, spread, stable, bottleneck) in rows {
        let min = cycles * (1.0 - spread / 2.0);
        let max = cycles * (1.0 + spread / 2.0);
        let _ = writeln!(
            doc,
            "{kernel},L1,x5650,simulated,1,{cycles:.4},{min:.4},{cycles:.4},{max:.4},{stable},\
             {bottleneck},ok"
        );
    }
    doc.push_str(extra);
    doc
}

fn exit_code(regressions: usize) -> u8 {
    if regressions == 0 {
        0
    } else {
        4
    }
}

fn diff_case(
    out: &mut String,
    name: &str,
    base: &str,
    new: &str,
    threshold: Option<f64>,
    top: usize,
) {
    let _ = writeln!(out, "== {name}");
    let opts = GateOptions { floor: threshold.unwrap_or(DEFAULT_FLOOR), top };
    let report = match diff_documents(base, new, &opts) {
        Ok(report) => report,
        Err(e) => {
            let _ = writeln!(out, "error: {e}\nexit: 2");
            return;
        }
    };
    for warning in &report.warnings {
        let _ = writeln!(out, "warning: {warning}");
    }
    let keys = |entries: Vec<&Verdict>| {
        entries.iter().map(|v| v.first().key.as_str()).collect::<Vec<_>>().join(" ")
    };
    let _ = writeln!(out, "regressed: {}", keys(report.regressions()));
    let _ = writeln!(out, "improved: {}", keys(report.improvements()));
    let _ = writeln!(out, "exit: {}", exit_code(report.regressions().len()));
    out.push_str(&render_diff(&report, &opts));
}

fn diff_transcript() -> String {
    let manifest = "# machine: x5650\n# options_hash: aa11\n# seed: 42\n# sampling: fixed:8\n";
    // Spreads 1–4%: the p95 noise floor (2 × p95 of these) is wider
    // than most points' own band, so k3's +7% stays inside it.
    let base = launcher_csv(
        manifest,
        &[
            ("k1", 4.0, 0.01, true, "load-port"),
            ("k2", 8.0, 0.02, true, "dep-chain"),
            ("k3", 10.0, 0.01, true, "store-port"),
            ("k4", 2.0, 0.01, true, "frontend"),
            ("k5", 20.0, 0.04, false, "ram-bound"),
            ("k6", 3.0, 0.01, true, "load-port"),
            ("k7", 0.0, 0.0, true, "l1-bound"),
            ("k8", 5.0, 0.01, true, "warp-drive"),
        ],
        "k9,L1,x5650,simulated,1,-,-,-,-,-,-,panic\n",
    );
    let new = launcher_csv(
        &manifest.replace("seed: 42", "seed: 43").replace("fixed:8", "adaptive:2..8"),
        &[
            ("k1", 6.0, 0.01, true, "ram-bound"),
            ("k2", 7.0, 0.02, true, "dep-chain"),
            ("k3", 10.7, 0.01, true, "store-port"),
            ("k4", 2.5, 0.03, true, "frontend"),
            ("k5", 21.0, 0.04, true, "ram-bound"),
            ("k7", 1.0, 0.0, true, "l1-bound"),
            ("k8", 5.0, 0.01, true, "-"),
            ("k10", 1.0, 0.01, true, "load-port"),
        ],
        "k11,L1,x5650,simulated,1,-,-,-,-,-,-,failed\n",
    );
    let series_base = "# experiment: fig11\nseries,x,y\nL1,1,10.0\nL1,2,6.0\nL1,4,0.0\n\
                       L2,1,20.0\nL2,2,18.0\nRAM,1,100.0\nRAM,2,50.0\n";
    let series_new = "# experiment: fig12\nseries,x,y\nL1,1,10.0\nL1,2,9.0\nL1,3,5.0\nL1,4,3.0\n\
                      L2,1,19.0\nL2,2,18.1\nRAM,2,49.0\n";

    let mut out = String::new();
    diff_case(&mut out, "launcher", &base, &new, None, 10);
    diff_case(&mut out, "launcher --threshold=0.3", &base, &new, Some(0.3), 10);
    diff_case(&mut out, "launcher --top=2", &base, &new, None, 2);
    diff_case(&mut out, "launcher identical", &base, &base, None, 10);
    diff_case(&mut out, "series", series_base, series_new, None, 10);
    diff_case(&mut out, "series --threshold=0", series_base, series_new, Some(0.0), 10);
    diff_case(&mut out, "series reversed", series_new, series_base, None, 10);
    diff_case(&mut out, "launcher vs series", &base, series_new, None, 10);
    diff_case(&mut out, "unknown schema", "a,b\n1,2\n", "a,b\n1,2\n", None, 10);
    out
}

/// One registered run built from a launcher document (`sweep`) and a
/// series document (`fig11`).
fn run(seq: u64, status: i32, sweep: &[(&str, f64, f64, bool, &str)], fig11: &str) -> LoadedRun {
    let mut record = RunRecord::new("microlauncher", "0.1.0", status, RunManifest::new());
    record.add_document("sweep", &launcher_csv("", sweep, "")).unwrap();
    record.add_document("fig11", &format!("series,x,y\n{fig11}")).unwrap();
    LoadedRun {
        entry: IndexEntry {
            seq,
            run_id: format!("{:016x}", (seq + 1) * 0x1111_1111_1111_1111),
            tool: if seq == 0 { "import-bench".into() } else { "microlauncher".into() },
            version: "0.1.0".into(),
            status,
            points: record.points.len() as u64,
            timestamp_unix: 1_700_000_000 + seq,
            label: if seq == 1 { String::new() } else { format!("run{seq}") },
        },
        points: record.points,
    }
}

fn runs() -> Vec<LoadedRun> {
    let steady = |v: f64| ("k1", v, 0.02, true, "load-port");
    vec![
        run(
            0,
            0,
            &[
                steady(4.0),
                ("k2", 8.0, 0.01, true, "dep-chain"),
                ("k3", 5.0, 0.01, true, "load-port"),
                ("k4", 6.0, 0.01, true, "load-port"),
                ("k5", 4.0, 0.01, true, "load-port"),
            ],
            "L1,1,10.0\nL1,2,0.0\nL1,3,2.0\nL2,1,7.0\n",
        ),
        run(
            1,
            0,
            &[
                steady(4.02),
                ("k2", 8.0, 0.01, true, "dep-chain"),
                ("k3", 9.0, 0.01, true, "load-port"),
                ("k4", 6.0, 0.01, true, "load-port"),
                ("k5", 4.0, 0.30, false, "load-port"),
            ],
            "L1,1,10.0\nL1,2,0.0\nL1,3,2.0\n",
        ),
        run(
            2,
            4,
            &[
                steady(3.99),
                ("k2", 8.0, 0.01, true, "dep-chain"),
                ("k3", 5.0, 0.01, true, "load-port"),
                ("k4", 6.0, 0.01, true, "load-port"),
                ("k5", 4.0, 0.01, true, "load-port"),
            ],
            "L1,1,10.0\nL1,2,0.0\nL1,3,3.0\nL2,1,7.1\n",
        ),
        run(
            3,
            0,
            &[
                steady(4.01),
                ("k2", 10.0, 0.01, true, "dep-chain"),
                ("k3", 5.0, 0.01, true, "load-port"),
                ("k4", 6.0, 0.01, true, "load-port"),
                ("k5", 4.0, 0.01, true, "load-port"),
            ],
            "L1,1,10.0\nL1,2,0.0\nL1,3,3.0\n",
        ),
        run(
            4,
            0,
            &[
                steady(4.0),
                ("k2", 10.2, 0.01, true, "dep-chain"),
                ("k3", 5.0, 0.01, true, "load-port"),
                ("k4", 5.0, 0.01, true, "load-port"),
                ("k5", 4.8, 0.01, true, "load-port"),
                ("k6", 1.0, 0.01, true, "load-port"),
            ],
            "L1,1,12.0\nL1,2,0.0\nL1,3,3.0\nL2,1,6.0\n",
        ),
    ]
}

fn trend_case(out: &mut String, name: &str, runs: &[LoadedRun], floor: Option<f64>, top: usize) {
    let _ = writeln!(out, "== {name}");
    let opts = GateOptions { floor: floor.unwrap_or(DEFAULT_FLOOR), top };
    let report = compute_trend(runs, &opts);
    let names = |series: Vec<&Verdict>| {
        series
            .iter()
            .map(|v| format!("{}:{}", v.first().document, v.first().key))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(out, "regressed: {}", names(report.regressions()));
    let _ = writeln!(out, "improved: {}", names(report.improvements()));
    let _ = writeln!(out, "exit: {}", exit_code(report.regressions().len()));
    out.push_str(&render_trend(&report, &opts));
    let _ = writeln!(out, "{}", trend_to_json(&report));
}

fn trend_transcript() -> String {
    let runs = runs();
    let mut out = String::new();
    trend_case(&mut out, "trend", &runs, None, 20);
    trend_case(&mut out, "trend --top=3", &runs, None, 3);
    trend_case(&mut out, "trend --threshold=0.3", &runs, Some(0.3), 20);
    trend_case(&mut out, "trend --threshold=0", &runs, Some(0.0), 20);
    trend_case(&mut out, "trend --last=2", &runs[3..], None, 20);
    trend_case(&mut out, "trend single run", &runs[..1], None, 20);
    out
}

fn history_transcript() -> String {
    let runs = runs();
    let mut out = String::new();
    for (filter, top) in [("k2", 20), ("k5", 20), ("fig11:", 20), ("", 3), ("k6", 20), ("nope", 20)]
    {
        let _ = writeln!(out, "== history `{filter}` --top={top}");
        out.push_str(&render_history(&runs, filter, top));
    }
    out
}

#[test]
fn diff_output_is_pinned() {
    assert_eq!(diff_transcript(), include_str!("golden/diff.txt"));
}

#[test]
fn trend_output_is_pinned() {
    assert_eq!(trend_transcript(), include_str!("golden/trend.txt"));
}

#[test]
fn history_output_is_pinned() {
    assert_eq!(history_transcript(), include_str!("golden/history.txt"));
}
