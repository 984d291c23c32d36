//! Cross-run trend analysis over the registry.
//!
//! A *series* is one `(document, key)` pair — the join keys `mc-report
//! diff` uses — observed across N registrations in index order. Every
//! series with at least two observations is judged by [`mc_report::gate`],
//! the same baseline/band/streak verdict `diff` gives a two-observation
//! series, under its [`Band::History`] rule: the noise band is
//! `max(floor, 2 × median recorded spread, 2 × worst unstable spread)`, so
//! runs that recorded wider replication spreads (mc-launcher's stability
//! samples) get proportionally wider bands.
//!
//! `mc-report trend` exits 4 when any series regresses; `history` prints
//! the per-run values of the series matching a filter.

use crate::registry::{IndexEntry, Registry};
use mc_report::gate::{self, Band, GateOptions, Point, Verdict};
use mc_report::table::{fmt_f, AsciiTable};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One registered run with its points loaded.
#[derive(Debug, Clone)]
pub struct LoadedRun {
    /// The index record.
    pub entry: IndexEntry,
    /// The run's measurement points.
    pub points: Vec<Point>,
}

/// The computed trend across every series.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// The runs the trend walked, in registration order.
    pub runs: Vec<IndexEntry>,
    /// Every series with ≥ 2 observations, worst movers first.
    pub series: Vec<Verdict>,
    /// Series seen in only one run (listed, never flagged).
    pub single_run_series: usize,
}

impl TrendReport {
    /// Series whose latest value regressed beyond their band.
    pub fn regressions(&self) -> Vec<&Verdict> {
        self.series.iter().filter(|v| v.regressed()).collect()
    }

    /// Series whose latest value improved beyond their band.
    pub fn improvements(&self) -> Vec<&Verdict> {
        self.series.iter().filter(|v| v.improved()).collect()
    }
}

/// Loads the last `last` registered runs (points included).
pub fn load_runs(registry: &Registry, last: Option<usize>) -> Result<Vec<LoadedRun>, String> {
    let index = registry.load_index().map_err(|e| format!("reading index: {e}"))?;
    let skip = last.map_or(0, |n| index.len().saturating_sub(n));
    let mut runs = Vec::new();
    for entry in index.into_iter().skip(skip) {
        let points = registry.load_points(&entry.run_id)?;
        runs.push(LoadedRun { entry, points });
    }
    Ok(runs)
}

/// Groups every point by `(document, key)` in first-seen order; each
/// series lists its observations with their runs, in registration order.
fn group(runs: &[LoadedRun]) -> Vec<Vec<(&IndexEntry, &Point)>> {
    let mut index: HashMap<(&str, &str), usize> = HashMap::new();
    let mut series: Vec<Vec<(&IndexEntry, &Point)>> = Vec::new();
    for run in runs {
        for p in &run.points {
            let i = *index.entry((&p.document, &p.key)).or_insert_with(|| {
                series.push(Vec::new());
                series.len() - 1
            });
            series[i].push((&run.entry, p));
        }
    }
    series
}

/// `document:key`, the name `trend` and `history` list a series under.
fn name(p: &Point) -> String {
    format!("{}:{}", p.document, p.key)
}

/// Least-squares slope of the series' values over run index, relative to
/// the baseline: "this series drifts +0.4% per run".
fn slope_rel(v: &Verdict) -> f64 {
    let values = v.points();
    let n = values.len() as f64;
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = values.iter().map(|p| p.value).sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, p) in values.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (p.value - mean_y);
        den += dx * dx;
    }
    if den > 0.0 {
        (num / den) / v.baseline
    } else {
        0.0
    }
}

/// Computes the trend over `runs` (registration order).
pub fn compute_trend(runs: &[LoadedRun], opts: &GateOptions) -> TrendReport {
    let mut series = Vec::new();
    let mut single_run_series = 0usize;
    for observations in group(runs) {
        if observations.len() < 2 {
            single_run_series += 1;
            continue;
        }
        let points = observations.into_iter().map(|(_, p)| p.clone()).collect();
        series.extend(gate::judge(points, Band::History, opts.floor));
    }
    series.sort_by(gate::worst_first);
    TrendReport { runs: runs.iter().map(|r| r.entry.clone()).collect(), series, single_run_series }
}

fn short_id(run_id: &str) -> &str {
    run_id.get(..8).unwrap_or(run_id)
}

/// Renders the trend as a run listing, the top-N series table, and a
/// one-line verdict.
pub fn render_trend(report: &TrendReport, opts: &GateOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} registered run(s):", report.runs.len());
    for run in &report.runs {
        let _ = writeln!(
            out,
            "  #{} {} {} status={} points={}{}",
            run.seq,
            short_id(&run.run_id),
            run.tool,
            run.status,
            run.points,
            if run.label.is_empty() { String::new() } else { format!(" ({})", run.label) }
        );
    }
    let mut table =
        AsciiTable::new(vec!["series", "runs", "baseline", "latest", "delta", "band", "slope/run"]);
    for v in report.series.iter().take(opts.top) {
        let mut row = vec![name(v.first()), v.points().len().to_string()];
        row.extend(v.cells());
        row.push(format!("{:+.3}%", slope_rel(v) * 100.0));
        table.row(row);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "{} series tracked across {} run(s), {} regression(s), {} improvement(s)",
        report.series.len(),
        report.runs.len(),
        report.regressions().len(),
        report.improvements().len()
    );
    if report.series.len() > opts.top {
        let _ = writeln!(out, "showing worst {} of {} series", opts.top, report.series.len());
    }
    if report.single_run_series > 0 {
        let _ = writeln!(
            out,
            "{} series seen in only one run (need 2+ registrations to trend)",
            report.single_run_series
        );
    }
    if let Some(worst) = report.regressions().first() {
        let _ = writeln!(
            out,
            "worst regression: {} ({:+.2}% vs baseline {}, band {:.2}%)",
            name(worst.first()),
            worst.delta_rel * 100.0,
            fmt_f(worst.baseline, 4),
            worst.band_rel * 100.0
        );
    }
    out
}

/// Renders the trend as a JSON document (compact, canonical key order).
pub fn trend_to_json(report: &TrendReport) -> String {
    use mc_report::Json;
    use std::collections::BTreeMap;
    let runs: Vec<Json> = report
        .runs
        .iter()
        .map(|r| {
            let mut o = BTreeMap::new();
            o.insert("seq".to_owned(), Json::from(r.seq));
            o.insert("run_id".to_owned(), Json::Str(r.run_id.clone()));
            o.insert("tool".to_owned(), Json::Str(r.tool.clone()));
            o.insert("status".to_owned(), Json::from(i64::from(r.status)));
            o.insert("points".to_owned(), Json::from(r.points));
            o.insert("timestamp_unix".to_owned(), Json::from(r.timestamp_unix));
            o.insert("label".to_owned(), Json::Str(r.label.clone()));
            Json::Obj(o)
        })
        .collect();
    let series: Vec<Json> = report
        .series
        .iter()
        .map(|v| {
            let mut o = BTreeMap::new();
            o.insert("document".to_owned(), Json::Str(v.first().document.clone()));
            o.insert("key".to_owned(), Json::Str(v.first().key.clone()));
            let values = v.points().iter().map(|p| Json::from(p.value)).collect();
            o.insert("values".to_owned(), Json::Arr(values));
            o.insert("baseline".to_owned(), Json::from(v.baseline));
            o.insert("latest".to_owned(), Json::from(v.latest().value));
            o.insert("delta_rel".to_owned(), Json::from(v.delta_rel));
            o.insert("band_rel".to_owned(), Json::from(v.band_rel));
            o.insert("slope_rel".to_owned(), Json::from(slope_rel(v)));
            o.insert("streak".to_owned(), Json::from(v.streak));
            o.insert("regressed".to_owned(), Json::Bool(v.regressed()));
            o.insert("improved".to_owned(), Json::Bool(v.improved()));
            Json::Obj(o)
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("runs".to_owned(), Json::Arr(runs));
    doc.insert("series".to_owned(), Json::Arr(series));
    doc.insert("regressions".to_owned(), Json::from(report.regressions().len()));
    doc.insert("improvements".to_owned(), Json::from(report.improvements().len()));
    Json::Obj(doc).render()
}

/// Renders per-run history tables for every series whose
/// `document:key` name contains `filter` (all series when empty).
/// Unlike `trend`, a series seen in a single run is still listed — the
/// history of a freshly imported registry is one row, not an error.
pub fn render_history(runs: &[LoadedRun], filter: &str, top: usize) -> String {
    let mut matched: Vec<(String, Vec<(&IndexEntry, &Point)>)> = group(runs)
        .into_iter()
        .map(|observations| (name(observations[0].1), observations))
        .filter(|(name, _)| filter.is_empty() || name.contains(filter))
        .collect();
    matched.sort_by(|a, b| a.0.cmp(&b.0));
    if matched.is_empty() {
        return format!("no tracked series match `{filter}`\n");
    }
    let total_matched = matched.len();
    let mut out = String::new();
    for (name, observations) in matched.iter().take(top) {
        let _ = writeln!(out, "{name}");
        let mut table = AsciiTable::new(vec!["run", "id", "value", "delta", "spread", "stable"]);
        let mut prev: Option<f64> = None;
        for (run, obs) in observations {
            let delta = match prev {
                Some(p) if p > 0.0 => format!("{:+.2}%", (obs.value - p) / p * 100.0),
                _ => "-".to_owned(),
            };
            prev = Some(obs.value);
            table.row(vec![
                format!("#{}", run.seq),
                short_id(&run.run_id).to_owned(),
                fmt_f(obs.value, 4),
                delta,
                format!("{:.2}%", obs.spread * 100.0),
                obs.stable.to_string(),
            ]);
        }
        out.push_str(&table.render());
    }
    if total_matched > top {
        let _ = writeln!(out, "showing first {top} of {total_matched} matching series");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_report::gate::DEFAULT_FLOOR;

    const OPTS: GateOptions = GateOptions { floor: DEFAULT_FLOOR, top: 20 };

    fn run(seq: u64, values: &[(&str, f64, f64, bool)]) -> LoadedRun {
        LoadedRun {
            entry: IndexEntry {
                seq,
                run_id: format!("{seq:016x}"),
                tool: "microlauncher".into(),
                version: "0.1.0".into(),
                status: 0,
                points: values.len() as u64,
                timestamp_unix: 1_000 + seq,
                label: "sweep".into(),
            },
            points: values
                .iter()
                .map(|(key, value, spread, stable)| Point {
                    document: "sweep".into(),
                    key: (*key).to_owned(),
                    value: *value,
                    spread: *spread,
                    stable: *stable,
                    bottleneck: "-".into(),
                })
                .collect(),
        }
    }

    #[test]
    fn steady_series_stays_inside_the_band() {
        let runs = vec![
            run(0, &[("k1", 4.00, 0.02, true)]),
            run(1, &[("k1", 4.02, 0.02, true)]),
            run(2, &[("k1", 3.99, 0.02, true)]),
        ];
        let report = compute_trend(&runs, &OPTS);
        assert_eq!(report.series.len(), 1);
        assert!(report.regressions().is_empty());
        assert!(report.improvements().is_empty());
        // Band honors the recorded spreads: 2 × 2% = 4%.
        assert!((report.series[0].band_rel - 0.04).abs() < 1e-9);
    }

    #[test]
    fn a_degraded_latest_run_regresses() {
        let runs = vec![
            run(0, &[("k1", 4.0, 0.01, true), ("k2", 8.0, 0.01, true)]),
            run(1, &[("k1", 4.0, 0.01, true), ("k2", 8.0, 0.01, true)]),
            run(2, &[("k1", 5.0, 0.01, true), ("k2", 8.0, 0.01, true)]),
        ];
        let report = compute_trend(&runs, &OPTS);
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].first().key, "k1");
        assert!((regressions[0].delta_rel - 0.25).abs() < 1e-9);
        assert_eq!(regressions[0].streak, 1);
        let rendered = render_trend(&report, &OPTS);
        assert!(rendered.contains("REGRESSED"), "{rendered}");
        assert!(rendered.contains("worst regression: sweep:k1"), "{rendered}");
    }

    #[test]
    fn sustained_regressions_report_their_streak() {
        let runs = vec![
            run(0, &[("k1", 4.0, 0.01, true)]),
            run(1, &[("k1", 4.0, 0.01, true)]),
            run(2, &[("k1", 5.0, 0.01, true)]),
            run(3, &[("k1", 5.1, 0.01, true)]),
        ];
        let report = compute_trend(&runs, &OPTS);
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].streak, 2, "two trailing runs above the band");
        let rendered = render_trend(&report, &OPTS);
        assert!(rendered.contains("REGRESSED x2"), "{rendered}");
    }

    #[test]
    fn one_noisy_historical_run_cannot_move_the_baseline() {
        // Median baseline: the outlier in run 1 does not become the
        // reference, so run 3's return to 4.0 is not an "improvement".
        let runs = vec![
            run(0, &[("k1", 4.0, 0.01, true)]),
            run(1, &[("k1", 9.0, 0.01, true)]),
            run(2, &[("k1", 4.0, 0.01, true)]),
            run(3, &[("k1", 4.0, 0.01, true)]),
        ];
        let report = compute_trend(&runs, &OPTS);
        assert!(report.regressions().is_empty());
        assert!(report.improvements().is_empty(), "{:?}", report.series[0]);
    }

    #[test]
    fn unstable_observations_widen_the_band() {
        let runs = vec![run(0, &[("k1", 4.0, 0.30, false)]), run(1, &[("k1", 4.8, 0.01, true)])];
        let report = compute_trend(&runs, &OPTS);
        // +20% would regress under the default band, but the unstable
        // 30%-spread observation widens it to 60%.
        assert!(report.regressions().is_empty());
        assert!(report.series[0].band_rel >= 0.6);
    }

    #[test]
    fn single_run_series_are_counted_not_flagged() {
        let runs = vec![
            run(0, &[("k1", 4.0, 0.01, true)]),
            run(1, &[("k1", 4.0, 0.01, true), ("k2", 1.0, 0.01, true)]),
        ];
        let report = compute_trend(&runs, &OPTS);
        assert_eq!(report.series.len(), 1);
        assert_eq!(report.single_run_series, 1);
        let rendered = render_trend(&report, &OPTS);
        assert!(rendered.contains("only one run"), "{rendered}");
    }

    #[test]
    fn slope_tracks_steady_drift() {
        let runs: Vec<LoadedRun> =
            (0..5).map(|i| run(i, &[("k1", 4.0 + 0.04 * i as f64, 0.01, true)])).collect();
        let report = compute_trend(&runs, &OPTS);
        // 0.04 per run over a ~4.0 baseline ≈ +1% per run.
        assert!(
            (slope_rel(&report.series[0]) - 0.01).abs() < 2e-3,
            "{}",
            slope_rel(&report.series[0])
        );
    }

    #[test]
    fn history_renders_per_run_rows_and_filters() {
        let runs = vec![
            run(0, &[("k1", 4.0, 0.01, true), ("k2", 1.0, 0.01, true)]),
            run(1, &[("k1", 4.4, 0.01, true), ("k2", 1.0, 0.01, true)]),
        ];
        let text = render_history(&runs, "k1", 10);
        assert!(text.contains("sweep:k1"), "{text}");
        assert!(!text.contains("sweep:k2"), "{text}");
        assert!(text.contains("+10.00%"), "{text}");
        assert!(render_history(&runs, "nope", 10).contains("no tracked series"), "filter miss");
    }

    #[test]
    fn json_export_is_valid_and_complete() {
        let runs = vec![run(0, &[("k1", 4.0, 0.01, true)]), run(1, &[("k1", 5.0, 0.01, true)])];
        let report = compute_trend(&runs, &OPTS);
        let text = trend_to_json(&report);
        let doc = mc_report::Json::parse(&text).unwrap();
        assert_eq!(doc.get("regressions").and_then(mc_report::Json::as_u64), Some(1));
        let series = doc.get("series").unwrap().as_array().unwrap();
        assert_eq!(series[0].get("regressed").and_then(mc_report::Json::as_bool), Some(true));
        assert_eq!(series[0].get("values").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn last_n_limits_the_window() {
        // load_runs applies the window; compute honors whatever it gets.
        let runs = [
            run(0, &[("k1", 9.0, 0.01, true)]),
            run(1, &[("k1", 4.0, 0.01, true)]),
            run(2, &[("k1", 4.0, 0.01, true)]),
        ];
        let windowed = &runs[1..];
        let report = compute_trend(windowed, &OPTS);
        assert!((report.series[0].baseline - 4.0).abs() < 1e-9);
    }
}
