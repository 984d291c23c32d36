//! Cross-run trend analysis over the registry.
//!
//! A *series* is one `(document, key)` pair — the same join keys
//! mc-insight's run-diff uses — observed across N registrations in index
//! order. For each series with at least two observations:
//!
//! * the **baseline** is the median of every observation before the
//!   latest, so one noisy historical run cannot drag the reference;
//! * the **noise band** is `max(floor, 2 × median recorded spread)` —
//!   runs that recorded wider replication spreads (mc-launcher's
//!   stability samples) get proportionally wider bands, and unstable
//!   observations widen the band to twice their own spread;
//! * the latest observation **regresses** when its relative delta from
//!   the baseline exceeds the band (improves when below it), and the
//!   trailing `streak` counts how many consecutive runs sat above the
//!   band — a streak > 1 is a sustained regression, not a blip.
//!
//! `mc-report trend` exits 4 when any series regresses; `history` prints
//! the per-run values of the series matching a filter.

use crate::registry::{IndexEntry, Registry, SeriesPoint};
use mc_report::stats::percentile;
use mc_report::table::{fmt_f, AsciiTable};
use std::fmt::Write as _;

/// Default relative noise floor (1%).
const DEFAULT_FLOOR: f64 = 0.01;

/// Knobs for trend computation.
#[derive(Debug, Clone)]
pub struct TrendOptions {
    /// Relative-delta floor below which movement is never flagged.
    pub floor: f64,
    /// Band width as a multiple of the median recorded spread.
    pub band_factor: f64,
    /// Only consider the last N registrations (`None` = all).
    pub last: Option<usize>,
    /// Maximum series rows in the rendered table.
    pub top: usize,
}

impl Default for TrendOptions {
    fn default() -> Self {
        TrendOptions { floor: DEFAULT_FLOOR, band_factor: 2.0, last: None, top: 20 }
    }
}

/// One registered run with its points loaded.
#[derive(Debug, Clone)]
pub struct LoadedRun {
    /// The index line.
    pub entry: IndexEntry,
    /// The run's measurement points.
    pub points: Vec<SeriesPoint>,
}

/// One observation of a series in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Index sequence number of the run.
    pub seq: u64,
    /// Run ID (shared by identical-content registrations).
    pub run_id: String,
    /// Measured value.
    pub value: f64,
    /// Recorded relative spread.
    pub spread: f64,
    /// Stability verdict recorded with the measurement.
    pub stable: bool,
}

/// One series tracked across runs.
#[derive(Debug, Clone)]
pub struct TrendSeries {
    /// Source document name.
    pub document: String,
    /// Join key within the document.
    pub key: String,
    /// Observations in registration order.
    pub observations: Vec<Observation>,
    /// Median of all but the latest observation.
    pub baseline: f64,
    /// The latest observation's value.
    pub latest: f64,
    /// `(latest − baseline) / baseline`.
    pub delta_rel: f64,
    /// Relative noise band the delta must clear.
    pub band_rel: f64,
    /// Least-squares slope per run, relative to the baseline.
    pub slope_rel: f64,
    /// Trailing runs whose value sat above `baseline × (1 + band)`.
    pub streak: usize,
}

impl TrendSeries {
    /// True when the latest value slowed beyond the noise band.
    pub fn is_regression(&self) -> bool {
        self.delta_rel > self.band_rel
    }

    /// True when the latest value improved beyond the noise band.
    pub fn is_improvement(&self) -> bool {
        self.delta_rel < -self.band_rel
    }

    fn name(&self) -> String {
        format!("{}:{}", self.document, self.key)
    }
}

/// The computed trend across every series.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// The runs the trend walked, in registration order.
    pub runs: Vec<IndexEntry>,
    /// Every series with ≥ 2 observations, worst movers first.
    pub series: Vec<TrendSeries>,
    /// Series seen in only one run (listed, never flagged).
    pub single_run_series: usize,
}

impl TrendReport {
    /// Series whose latest value regressed beyond their band.
    pub fn regressions(&self) -> Vec<&TrendSeries> {
        self.series.iter().filter(|s| s.is_regression()).collect()
    }

    /// Series whose latest value improved beyond their band.
    pub fn improvements(&self) -> Vec<&TrendSeries> {
        self.series.iter().filter(|s| s.is_improvement()).collect()
    }
}

/// Loads the last `opts.last` registered runs (points included).
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

/// Computes the trend over `runs` (registration order).
pub fn compute_trend(runs: &[LoadedRun], opts: &TrendOptions) -> TrendReport {
    // Group observations by (document, key), preserving first-seen order.
    let mut order: Vec<(String, String)> = Vec::new();
    let mut by_series: std::collections::HashMap<(String, String), Vec<Observation>> =
        std::collections::HashMap::new();
    for run in runs {
        for p in &run.points {
            let series_key = (p.document.clone(), p.key.clone());
            let obs = Observation {
                seq: run.entry.seq,
                run_id: run.entry.run_id.clone(),
                value: p.value,
                spread: p.spread,
                stable: p.stable,
            };
            match by_series.get_mut(&series_key) {
                Some(list) => list.push(obs),
                None => {
                    order.push(series_key.clone());
                    by_series.insert(series_key, vec![obs]);
                }
            }
        }
    }

    let mut series = Vec::new();
    let mut single_run_series = 0usize;
    for series_key in order {
        let observations = by_series.remove(&series_key).expect("grouped above");
        if observations.len() < 2 {
            single_run_series += 1;
            continue;
        }
        let (document, key) = series_key;
        let values: Vec<f64> = observations.iter().map(|o| o.value).collect();
        let prior = &values[..values.len() - 1];
        let baseline = percentile(prior, 50.0).unwrap_or(values[0]);
        if baseline <= 0.0 {
            continue;
        }
        let latest = *values.last().expect("len >= 2");
        let delta_rel = (latest - baseline) / baseline;

        // Band: the recorded replication spreads are the noise model.
        let spreads: Vec<f64> = observations.iter().map(|o| o.spread).collect();
        let median_spread = percentile(&spreads, 50.0).unwrap_or(0.0);
        let mut band_rel = opts.floor.max(opts.band_factor * median_spread);
        if let Some(unstable_max) = observations
            .iter()
            .filter(|o| !o.stable)
            .map(|o| o.spread)
            .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        {
            band_rel = band_rel.max(opts.band_factor * unstable_max);
        }

        // Least-squares slope of value over run index, relative to the
        // baseline: "this series drifts +0.4% per run".
        let n = values.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y = values.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, v) in values.iter().enumerate() {
            let dx = i as f64 - mean_x;
            num += dx * (v - mean_y);
            den += dx * dx;
        }
        let slope_rel = if den > 0.0 { (num / den) / baseline } else { 0.0 };

        let streak =
            values.iter().rev().take_while(|v| (**v - baseline) / baseline > band_rel).count();

        series.push(TrendSeries {
            document,
            key,
            observations,
            baseline,
            latest,
            delta_rel,
            band_rel,
            slope_rel,
            streak,
        });
    }

    series.sort_by(|a, b| {
        b.delta_rel
            .abs()
            .partial_cmp(&a.delta_rel.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.document.as_str(), a.key.as_str()).cmp(&(&b.document, &b.key)))
    });

    TrendReport { runs: runs.iter().map(|r| r.entry.clone()).collect(), series, single_run_series }
}

fn short_id(run_id: &str) -> &str {
    run_id.get(..8).unwrap_or(run_id)
}

/// Renders the trend as a run listing, the top-N series table, and a
/// one-line verdict.
pub fn render_trend(report: &TrendReport, opts: &TrendOptions) -> String {
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
    for s in report.series.iter().take(opts.top) {
        let verdict = if s.is_regression() {
            if s.streak > 1 {
                format!(" REGRESSED x{}", s.streak)
            } else {
                " REGRESSED".to_owned()
            }
        } else if s.is_improvement() {
            " improved".to_owned()
        } else {
            String::new()
        };
        table.row(vec![
            s.name(),
            s.observations.len().to_string(),
            fmt_f(s.baseline, 4),
            fmt_f(s.latest, 4),
            format!("{:+.2}%{verdict}", s.delta_rel * 100.0),
            format!("{:.2}%", s.band_rel * 100.0),
            format!("{:+.3}%", s.slope_rel * 100.0),
        ]);
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
            worst.name(),
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
        .map(|s| {
            let mut o = BTreeMap::new();
            o.insert("document".to_owned(), Json::Str(s.document.clone()));
            o.insert("key".to_owned(), Json::Str(s.key.clone()));
            o.insert(
                "values".to_owned(),
                Json::Arr(s.observations.iter().map(|obs| Json::from(obs.value)).collect()),
            );
            o.insert("baseline".to_owned(), Json::from(s.baseline));
            o.insert("latest".to_owned(), Json::from(s.latest));
            o.insert("delta_rel".to_owned(), Json::from(s.delta_rel));
            o.insert("band_rel".to_owned(), Json::from(s.band_rel));
            o.insert("slope_rel".to_owned(), Json::from(s.slope_rel));
            o.insert("streak".to_owned(), Json::from(s.streak));
            o.insert("regressed".to_owned(), Json::Bool(s.is_regression()));
            o.insert("improved".to_owned(), Json::Bool(s.is_improvement()));
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
    let mut order: Vec<(String, String)> = Vec::new();
    let mut by_series: std::collections::HashMap<(String, String), Vec<Observation>> =
        std::collections::HashMap::new();
    for run in runs {
        for p in &run.points {
            let series_key = (p.document.clone(), p.key.clone());
            let obs = Observation {
                seq: run.entry.seq,
                run_id: run.entry.run_id.clone(),
                value: p.value,
                spread: p.spread,
                stable: p.stable,
            };
            match by_series.get_mut(&series_key) {
                Some(list) => list.push(obs),
                None => {
                    order.push(series_key.clone());
                    by_series.insert(series_key, vec![obs]);
                }
            }
        }
    }
    let mut matched: Vec<(String, Vec<Observation>)> = order
        .into_iter()
        .map(|(document, key)| {
            let observations = by_series.remove(&(document.clone(), key.clone())).expect("grouped");
            (format!("{document}:{key}"), observations)
        })
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
        for obs in observations {
            let delta = match prev {
                Some(p) if p > 0.0 => format!("{:+.2}%", (obs.value - p) / p * 100.0),
                _ => "-".to_owned(),
            };
            prev = Some(obs.value);
            table.row(vec![
                format!("#{}", obs.seq),
                short_id(&obs.run_id).to_owned(),
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
                .map(|(key, value, spread, stable)| SeriesPoint {
                    document: "sweep".into(),
                    key: (*key).to_owned(),
                    value: *value,
                    spread: *spread,
                    stable: *stable,
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
        let report = compute_trend(&runs, &TrendOptions::default());
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
        let report = compute_trend(&runs, &TrendOptions::default());
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "k1");
        assert!((regressions[0].delta_rel - 0.25).abs() < 1e-9);
        assert_eq!(regressions[0].streak, 1);
        let rendered = render_trend(&report, &TrendOptions::default());
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
        let report = compute_trend(&runs, &TrendOptions::default());
        let regressions = report.regressions();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].streak, 2, "two trailing runs above the band");
        let rendered = render_trend(&report, &TrendOptions::default());
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
        let report = compute_trend(&runs, &TrendOptions::default());
        assert!(report.regressions().is_empty());
        assert!(report.improvements().is_empty(), "{:?}", report.series[0]);
    }

    #[test]
    fn unstable_observations_widen_the_band() {
        let runs = vec![run(0, &[("k1", 4.0, 0.30, false)]), run(1, &[("k1", 4.8, 0.01, true)])];
        let report = compute_trend(&runs, &TrendOptions::default());
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
        let report = compute_trend(&runs, &TrendOptions::default());
        assert_eq!(report.series.len(), 1);
        assert_eq!(report.single_run_series, 1);
        let rendered = render_trend(&report, &TrendOptions::default());
        assert!(rendered.contains("only one run"), "{rendered}");
    }

    #[test]
    fn slope_tracks_steady_drift() {
        let runs: Vec<LoadedRun> =
            (0..5).map(|i| run(i, &[("k1", 4.0 + 0.04 * i as f64, 0.01, true)])).collect();
        let report = compute_trend(&runs, &TrendOptions::default());
        // 0.04 per run over a ~4.0 baseline ≈ +1% per run.
        assert!((report.series[0].slope_rel - 0.01).abs() < 2e-3, "{}", report.series[0].slope_rel);
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
        let report = compute_trend(&runs, &TrendOptions::default());
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
        let report = compute_trend(windowed, &TrendOptions::default());
        assert!((report.series[0].baseline - 4.0).abs() < 1e-9);
    }
}
