//! Run-diff: compare two sweep CSVs and flag movements beyond noise.
//!
//! Both documents are parsed with [`mc_report::CsvTable`]; their
//! `# key: value` comment blocks are read back as
//! [`mc_report::RunManifest`]s so provenance mismatches (different
//! machine, options hash or seed) surface as warnings instead of silent
//! nonsense. Two schemas are understood:
//!
//! * **launcher CSVs** (`microlauncher` output): keyed by
//!   `kernel|label|mode|workers`, valued by `cycles_per_iteration`; the
//!   per-row `min`/`median`/`max` stability samples give each point its
//!   own noise width, and the `bottleneck` column names what each side is
//!   bound on;
//! * **series CSVs** (`reproduce --csv-dir` output): keyed by
//!   `series|x`, valued by `y`; no per-point samples, so only the global
//!   floor applies.
//!
//! Each matched key is a two-observation series judged by
//! [`mc_report::gate`] under its [`Band::Pair`] rule: a point regresses
//! when its relative delta exceeds `max(floor, 2 × own spread, noise
//! floor)`, where the noise floor is twice the 95th percentile of the
//! baseline's per-row spreads — runs whose own replication is noisy get
//! proportionally wider bands.

use crate::attribution::BottleneckClass;
use mc_report::gate::{self, Band, GateOptions, Point, Verdict};
use mc_report::table::AsciiTable;
use mc_report::{CsvTable, RunManifest};

/// The outcome of diffing two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// All matched points, worst movers first: two-observation series
    /// (baseline row, new row) whose band is the threshold they had to
    /// clear.
    pub entries: Vec<Verdict>,
    /// Keys present in the baseline only.
    pub missing_in_new: Vec<String>,
    /// Keys present in the new document only.
    pub added_in_new: Vec<String>,
    /// Provenance/stability caveats.
    pub warnings: Vec<String>,
    /// The global noise floor applied to every point.
    pub noise_floor: f64,
}

impl DiffReport {
    /// Matched points that slowed beyond threshold, worst first.
    pub fn regressions(&self) -> Vec<&Verdict> {
        self.entries.iter().filter(|v| v.regressed()).collect()
    }

    /// Matched points that sped up beyond threshold.
    pub fn improvements(&self) -> Vec<&Verdict> {
        self.entries.iter().filter(|v| v.improved()).collect()
    }
}

/// One parsed CSV document after schema detection.
pub struct SweepDoc {
    /// Provenance read back from the `# key: value` comment block.
    pub manifest: RunManifest,
    /// Every successfully measured point.
    pub points: Vec<Point>,
    /// Rows whose `stable` column reads `false`.
    pub unstable_rows: usize,
    /// Rows whose `status` column marks a failed evaluation — excluded
    /// from the points, surfaced as a warning.
    pub failed_rows: usize,
}

fn cell(table: &CsvTable, row: &[String], name: &str) -> Option<String> {
    table.column(name).map(|i| row[i].clone())
}

fn numeric_cell(table: &CsvTable, row: &[String], name: &str) -> Option<f64> {
    cell(table, row, name).and_then(|v| v.parse().ok())
}

/// Parses a sweep CSV (launcher or reproduce schema) into its manifest
/// and measurement points. `document` names the points' source and the
/// document in error messages.
pub fn load_document(text: &str, document: &str) -> Result<SweepDoc, String> {
    let table = CsvTable::parse(text).map_err(|e| format!("{document}: {e}"))?;
    let manifest = RunManifest::from_comments(&table.comments);
    let mut points = Vec::new();
    let mut unstable_rows = 0usize;
    let mut failed_rows = 0usize;
    if table.column("cycles_per_iteration").is_some() {
        for row in &table.rows {
            // Failed evaluations (mc-guard `status` column) carry no
            // measurements — drop them from the comparison, but keep
            // count so the verdict can say so.
            if let Some(status) = cell(&table, row, "status") {
                if status != "ok" {
                    failed_rows += 1;
                    continue;
                }
            }
            let key = ["kernel", "label", "mode", "workers"]
                .iter()
                .filter_map(|c| cell(&table, row, c))
                .collect::<Vec<_>>()
                .join("|");
            let Some(value) = numeric_cell(&table, row, "cycles_per_iteration") else { continue };
            let spread = match (
                numeric_cell(&table, row, "min"),
                numeric_cell(&table, row, "median"),
                numeric_cell(&table, row, "max"),
            ) {
                (Some(min), Some(median), Some(max)) if median > 0.0 => (max - min) / median,
                _ => 0.0,
            };
            let stable = cell(&table, row, "stable").as_deref() != Some("false");
            if !stable {
                unstable_rows += 1;
            }
            let bottleneck = cell(&table, row, "bottleneck")
                .filter(|b| BottleneckClass::from_name(b).is_some())
                .unwrap_or_else(|| "-".to_owned());
            let document = document.to_owned();
            points.push(Point { document, key, value, spread, stable, bottleneck });
        }
    } else if table.column("y").is_some() {
        for row in &table.rows {
            let key = ["series", "x"]
                .iter()
                .filter_map(|c| cell(&table, row, c))
                .collect::<Vec<_>>()
                .join("|");
            let Some(value) = numeric_cell(&table, row, "y") else { continue };
            points.push(Point {
                document: document.to_owned(),
                key,
                value,
                spread: 0.0,
                stable: true,
                bottleneck: "-".to_owned(),
            });
        }
    } else {
        return Err(format!(
            "{document}: unrecognized schema (want a `cycles_per_iteration` or `y` column)"
        ));
    }
    Ok(SweepDoc { manifest, points, unstable_rows, failed_rows })
}

/// Diffs two CSV documents (baseline first).
pub fn diff_documents(
    base_text: &str,
    new_text: &str,
    opts: &GateOptions,
) -> Result<DiffReport, String> {
    let base = load_document(base_text, "baseline")?;
    let new = load_document(new_text, "new")?;

    let mut warnings = Vec::new();
    // `adaptive`/`sampling`/`samples` describe the measurement sampling
    // policy: comparing a fixed-budget baseline against an adaptive run
    // is legitimate, but the reader should know the sample counts differ.
    for key in ["machine", "options_hash", "seed", "experiment", "adaptive", "sampling", "samples"]
    {
        if let (Some(b), Some(n)) = (base.manifest.get(key), new.manifest.get(key)) {
            if b != n {
                warnings.push(format!("manifest `{key}` differs: baseline `{b}` vs new `{n}`"));
            }
        }
    }
    if base.unstable_rows > 0 {
        warnings.push(format!(
            "baseline has {} unstable row(s); its thresholds are widened accordingly",
            base.unstable_rows
        ));
    }
    for (label, doc) in [("baseline", &base), ("new", &new)] {
        if doc.failed_rows > 0 {
            warnings.push(format!(
                "{label} has {} failed row(s), excluded from the comparison",
                doc.failed_rows
            ));
        }
    }

    let spreads: Vec<f64> = base.points.iter().map(|p| p.spread).collect();
    let noise_floor = gate::noise_floor(&spreads);
    // Key indexes built once: the join is linear in the point count. A
    // key repeated in the new document joins on its first row.
    let mut new_by_key = std::collections::HashMap::new();
    for np in &new.points {
        new_by_key.entry(np.key.as_str()).or_insert(np);
    }
    let base_keys: std::collections::HashSet<&str> =
        base.points.iter().map(|p| p.key.as_str()).collect();
    let mut entries = Vec::new();
    let mut missing_in_new = Vec::new();
    for bp in &base.points {
        let Some(&np) = new_by_key.get(bp.key.as_str()) else {
            missing_in_new.push(bp.key.clone());
            continue;
        };
        let pair = vec![bp.clone(), np.clone()];
        entries.extend(gate::judge(pair, Band::Pair { noise_floor }, opts.floor));
    }
    let added_in_new = new
        .points
        .iter()
        .filter(|p| !base_keys.contains(p.key.as_str()))
        .map(|p| p.key.clone())
        .collect();
    entries.sort_by(gate::worst_first);

    Ok(DiffReport { entries, missing_in_new, added_in_new, warnings, noise_floor })
}

/// Renders the top-N movers as an ASCII table plus a one-line verdict.
///
/// Warnings are *not* part of the rendering: they are diagnostics, and
/// callers route them to stderr (see `mc-report diff`) so stdout stays a
/// clean, machine-readable report.
pub fn render_diff(report: &DiffReport, opts: &GateOptions) -> String {
    let mut out = String::new();
    let mut table = AsciiTable::new(vec!["point", "base", "new", "delta", "threshold", "bound on"]);
    for v in report.entries.iter().take(opts.top) {
        let (base, new) = (v.first(), v.latest());
        let bound = if base.bottleneck == new.bottleneck {
            base.bottleneck.clone()
        } else {
            format!("{} -> {}", base.bottleneck, new.bottleneck)
        };
        let mut row = vec![base.key.clone()];
        row.extend(v.cells());
        row.push(bound);
        table.row(row);
    }
    out.push_str(&table.render());
    let regressions = report.regressions();
    let improvements = report.improvements();
    out.push_str(&format!(
        "{} point(s) compared, {} regression(s), {} improvement(s), noise floor {:.2}%\n",
        report.entries.len(),
        regressions.len(),
        improvements.len(),
        report.noise_floor * 100.0
    ));
    if !report.missing_in_new.is_empty() || !report.added_in_new.is_empty() {
        out.push_str(&format!(
            "{} point(s) only in baseline, {} only in new\n",
            report.missing_in_new.len(),
            report.added_in_new.len()
        ));
    }
    if let Some(worst) = regressions.first() {
        out.push_str(&format!(
            "worst regression: {} ({:+.2}%, bound on {})\n",
            worst.first().key,
            worst.delta_rel * 100.0,
            worst.latest().bottleneck
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_report::gate::DEFAULT_FLOOR;

    const OPTS: GateOptions = GateOptions { floor: DEFAULT_FLOOR, top: 10 };

    const HEADER: &str = "kernel,label,machine,mode,workers,cycles_per_iteration,energy_nj,\
                          seconds_full,min,median,max,stable,residence,verified,bottleneck,\
                          bound_cycles,bound_share,status";

    fn launcher_csv(rows: &[(&str, f64, f64, &str)]) -> String {
        let mut doc = String::from("# machine: x5650\n# options_hash: abc123\n# seed: 42\n");
        doc.push_str(HEADER);
        doc.push('\n');
        for (kernel, cycles, spread, bottleneck) in rows {
            let min = cycles * (1.0 - spread / 2.0);
            let max = cycles * (1.0 + spread / 2.0);
            doc.push_str(&format!(
                "{kernel},L1,x5650,simulated,1,{cycles:.4},1.0,1e-3,{min:.4},{cycles:.4},\
                 {max:.4},true,L1,true,{bottleneck},{cycles:.4},1.00,ok\n"
            ));
        }
        doc
    }

    #[test]
    fn identical_documents_have_no_regressions() {
        let doc = launcher_csv(&[("k1", 4.0, 0.01, "load-port"), ("k2", 8.0, 0.01, "dep-chain")]);
        let report = diff_documents(&doc, &doc, &OPTS).unwrap();
        assert_eq!(report.entries.len(), 2);
        assert!(report.regressions().is_empty());
        assert!(report.improvements().is_empty());
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn a_real_slowdown_regresses_with_its_bottleneck_named() {
        let base = launcher_csv(&[("k1", 4.0, 0.01, "load-port"), ("k2", 8.0, 0.01, "dep-chain")]);
        let new = launcher_csv(&[("k1", 6.0, 0.01, "ram-bound"), ("k2", 8.0, 0.01, "dep-chain")]);
        let report = diff_documents(&base, &new, &OPTS).unwrap();
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        let r = regressions[0];
        assert!(r.first().key.starts_with("k1|"));
        assert!((r.delta_rel - 0.5).abs() < 1e-9);
        assert_eq!(r.first().bottleneck, "load-port");
        assert_eq!(r.latest().bottleneck, "ram-bound");
        // Worst mover sorts first and the rendering names the bottleneck.
        assert_eq!(report.entries[0].first().key, r.first().key);
        let rendered = render_diff(&report, &OPTS);
        assert!(rendered.contains("load-port -> ram-bound"), "{rendered}");
        assert!(rendered.contains("1 regression(s)"), "{rendered}");
    }

    #[test]
    fn a_repeated_key_joins_on_the_first_new_row() {
        let base = launcher_csv(&[("k1", 4.0, 0.01, "load-port"), ("k1", 6.0, 0.01, "load-port")]);
        let new = launcher_csv(&[
            ("k1", 4.0, 0.01, "load-port"),
            ("k1", 9.0, 0.01, "ram-bound"),
            ("k2", 1.0, 0.01, "dep-chain"),
        ]);
        let report = diff_documents(&base, &new, &OPTS).unwrap();
        // Both baseline rows pair with the first `k1` row of the new run.
        assert_eq!(report.entries.len(), 2);
        assert!(report
            .entries
            .iter()
            .all(|v| v.latest().value == 4.0 && v.first().key.starts_with("k1|")));
        assert!(report.regressions().is_empty());
        assert_eq!(report.improvements().len(), 1);
        assert!(report.missing_in_new.is_empty());
        assert_eq!(report.added_in_new.len(), 1);
        assert!(report.added_in_new[0].starts_with("k2|"));
    }

    #[test]
    fn noisy_baselines_widen_the_band() {
        // A 10% move under a 30% replication spread is not a regression.
        let base = launcher_csv(&[("k1", 4.0, 0.3, "load-port")]);
        let new = launcher_csv(&[("k1", 4.4, 0.3, "load-port")]);
        let report = diff_documents(&base, &new, &OPTS).unwrap();
        assert!(report.regressions().is_empty());
        let band = report.entries[0].band_rel;
        assert!(band >= 0.59, "{band}");
    }

    #[test]
    fn provenance_mismatches_warn() {
        let base = launcher_csv(&[("k1", 4.0, 0.01, "load-port")]);
        let new = base.replace("# seed: 42", "# seed: 43");
        let report = diff_documents(&base, &new, &OPTS).unwrap();
        assert!(report.warnings.iter().any(|w| w.contains("seed")), "{:?}", report.warnings);
    }

    #[test]
    fn sampling_policy_mismatches_warn() {
        // A fixed-budget baseline vs an adaptive re-run is comparable but
        // worth flagging: the sample counts behind each point differ.
        let with_sampling = |policy: &str, adaptive: &str| {
            launcher_csv(&[("k1", 4.0, 0.01, "load-port")]).replace(
                "# seed: 42\n",
                &format!("# seed: 42\n# adaptive: {adaptive}\n# sampling: {policy}\n"),
            )
        };
        let base = with_sampling("fixed:8", "false");
        let new = with_sampling("adaptive:2..8", "true");
        let report = diff_documents(&base, &new, &OPTS).unwrap();
        assert!(report.warnings.iter().any(|w| w.contains("sampling")), "{:?}", report.warnings);
        assert!(report.warnings.iter().any(|w| w.contains("`adaptive`")), "{:?}", report.warnings);
        // Same policy on both sides stays quiet.
        let same = diff_documents(&base, &base, &OPTS).unwrap();
        assert!(same.warnings.is_empty(), "{:?}", same.warnings);
    }

    #[test]
    fn unstable_baseline_rows_warn() {
        let base = launcher_csv(&[("k1", 4.0, 0.01, "load-port")]).replace(",true,L1", ",false,L1");
        let new = launcher_csv(&[("k1", 4.0, 0.01, "load-port")]);
        let report = diff_documents(&base, &new, &OPTS).unwrap();
        assert!(report.warnings.iter().any(|w| w.contains("unstable")), "{:?}", report.warnings);
    }

    #[test]
    fn failed_rows_are_excluded_and_warned_about() {
        let base = launcher_csv(&[("k1", 4.0, 0.01, "load-port"), ("k2", 8.0, 0.01, "dep-chain")]);
        let mut new = launcher_csv(&[("k1", 4.0, 0.01, "load-port")]);
        new.push_str("k2,L1,x5650,simulated,1,-,-,-,-,-,-,-,L1,-,-,-,-,panic\n");
        let report = diff_documents(&base, &new, &OPTS).unwrap();
        // The failed row never becomes a point: k2 shows up as missing,
        // not as a bogus comparison, and a warning names the count.
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.missing_in_new.len(), 1);
        assert!(report.missing_in_new[0].starts_with("k2|"));
        assert!(
            report.warnings.iter().any(|w| w.contains("1 failed row(s)") && w.contains("new")),
            "{:?}",
            report.warnings
        );
    }

    #[test]
    fn series_schema_diffs_by_series_and_x() {
        let base = "# experiment: fig11\nseries,x,y\nL1,1,10.0\nL1,2,6.0\n";
        let new = "# experiment: fig11\nseries,x,y\nL1,1,10.0\nL1,2,9.0\nL1,3,5.0\n";
        let report = diff_documents(base, new, &OPTS).unwrap();
        assert_eq!(report.entries.len(), 2);
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].first().key, "L1|2");
        assert_eq!(report.added_in_new, vec!["L1|3"]);
    }

    #[test]
    fn disjoint_points_land_in_missing_and_added() {
        let base = "series,x,y\na,1,1.0\n";
        let new = "series,x,y\nb,1,1.0\n";
        let report = diff_documents(base, new, &OPTS).unwrap();
        assert!(report.entries.is_empty());
        assert_eq!(report.missing_in_new, vec!["a|1"]);
        assert_eq!(report.added_in_new, vec!["b|1"]);
    }

    #[test]
    fn unknown_schema_errors() {
        let err = diff_documents("a,b\n1,2\n", "a,b\n1,2\n", &OPTS).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn custom_threshold_overrides_the_floor() {
        let base = "series,x,y\na,1,100.0\n";
        let new = "series,x,y\na,1,103.0\n";
        let loose = GateOptions { floor: 0.05, top: 10 };
        assert!(diff_documents(base, new, &loose).unwrap().regressions().is_empty());
        let tight = GateOptions { floor: 0.02, top: 10 };
        assert_eq!(diff_documents(base, new, &tight).unwrap().regressions().len(), 1);
    }
}
