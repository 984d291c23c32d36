//! Backfill: `BENCH_*.json` snapshots → registry records.
//!
//! Earlier PRs recorded their acceptance benchmarks as standalone JSON
//! snapshots. `mc-report import-bench` converts each one into a run
//! record so trend lines start with history instead of an empty
//! registry. Each `results[]` entry becomes one point: the `config`
//! string is the key, and the value is the first recognized measurement
//! field (`sweep_ms`, `timed_kernel_calls`, …) — ratio fields like
//! `speedup_vs_serial` are never the primary value.

use crate::registry::RunRecord;
use mc_report::gate::Point;
use mc_report::{Json, RunManifest};
use std::path::Path;

/// Measurement fields tried in order for each result entry.
const VALUE_FIELDS: &[&str] = &["sweep_ms", "timed_kernel_calls", "wall_ms", "seconds", "value"];

/// Fields that are derived ratios, never a primary measurement.
const RATIO_FIELDS: &[&str] =
    &["speedup_vs_serial", "relative_timed_calls", "samples_per_quiet_point"];

/// Parses one BENCH snapshot file into an unregistered [`RunRecord`].
pub fn import_bench(path: &Path) -> Result<RunRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let document = path.file_stem().and_then(|s| s.to_str()).unwrap_or("bench").to_owned();

    let mut manifest = RunManifest::new();
    manifest.set("tool", "import-bench");
    manifest.set("source", document.clone());
    for key in ["bench", "workload", "method"] {
        if let Some(value) = doc.get(key).and_then(Json::as_str) {
            manifest.set(key, value);
        }
    }
    if let Some(cpus) = doc.get("host").and_then(|h| h.get("cpus")).and_then(Json::as_f64) {
        manifest.set("host_cpus", format!("{}", cpus as u64));
    }

    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no `results` array", path.display()))?;
    let mut points = Vec::new();
    for (i, entry) in results.iter().enumerate() {
        let key = entry
            .get("config")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("result[{i}]"));
        let Some(value) = pick_value(entry) else { continue };
        points.push(Point {
            document: document.clone(),
            key,
            value,
            spread: 0.0,
            stable: true,
            bottleneck: "-".to_owned(),
        });
    }
    if points.is_empty() {
        return Err(format!("{}: no numeric measurement in any result", path.display()));
    }

    let pass =
        doc.get("acceptance").and_then(|a| a.get("pass")).and_then(Json::as_bool).unwrap_or(true);
    let status = if pass { 0 } else { 4 };

    let mut record = RunRecord::new("import-bench", env!("CARGO_PKG_VERSION"), status, manifest);
    // Snapshots predate the registry; the file's mtime is the closest
    // thing to their registration time (and keeps re-imports stable).
    if let Ok(meta) = std::fs::metadata(path) {
        if let Ok(mtime) = meta.modified() {
            if let Ok(since) = mtime.duration_since(std::time::UNIX_EPOCH) {
                record.timestamp_unix = since.as_secs();
            }
        }
    }
    record.points = points;
    Ok(record)
}

/// The first preferred measurement field, else the first numeric field
/// that is not a known ratio.
fn pick_value(entry: &Json) -> Option<f64> {
    for field in VALUE_FIELDS {
        if let Some(v) = entry.get(field).and_then(Json::as_f64) {
            return Some(v);
        }
    }
    if let Json::Obj(map) = entry {
        for (key, value) in map {
            if RATIO_FIELDS.contains(&key.as_str()) {
                continue;
            }
            if let Some(v) = value.as_f64() {
                return Some(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_snapshot(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mc_pulse_import_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn bench_snapshot_becomes_points() {
        let path = write_snapshot(
            "BENCH_x.json",
            r#"{"bench":"exec sweep","workload":"32 points","method":"median of 3",
               "host":{"cpus":1},
               "results":[
                 {"config":"serial","sweep_ms":0.7,"speedup_vs_serial":1.0},
                 {"config":"parallel","sweep_ms":0.2,"speedup_vs_serial":3.5}],
               "acceptance":{"pass":true}}"#,
        );
        let record = import_bench(&path).unwrap();
        assert_eq!(record.tool, "import-bench");
        assert_eq!(record.status, 0);
        assert_eq!(record.points.len(), 2);
        assert_eq!(record.points[0].document, "BENCH_x");
        assert_eq!(record.points[0].key, "serial");
        assert!((record.points[1].value - 0.2).abs() < 1e-12, "sweep_ms wins over the ratio");
        assert_eq!(record.manifest.get("bench"), Some("exec sweep"));
        assert_eq!(record.manifest.get("host_cpus"), Some("1"));
    }

    #[test]
    fn call_count_snapshots_use_timed_calls() {
        let path = write_snapshot(
            "BENCH_y.json",
            r#"{"bench":"adaptive","results":[
                 {"config":"fixed","samples_per_quiet_point":8,"timed_kernel_calls":238624},
                 {"config":"adaptive","samples_per_quiet_point":2,"timed_kernel_calls":59560}]}"#,
        );
        let record = import_bench(&path).unwrap();
        assert_eq!(record.points[0].value, 238624.0);
        assert_eq!(record.points[1].value, 59560.0);
    }

    #[test]
    fn failing_acceptance_maps_to_status_4() {
        let path = write_snapshot(
            "BENCH_fail.json",
            r#"{"results":[{"config":"c","sweep_ms":1.0}],"acceptance":{"pass":false}}"#,
        );
        assert_eq!(import_bench(&path).unwrap().status, 4);
    }

    #[test]
    fn missing_results_error() {
        let path = write_snapshot("BENCH_none.json", r#"{"bench":"empty"}"#);
        assert!(import_bench(&path).unwrap_err().contains("results"));
    }

    #[test]
    fn the_repo_snapshots_import() {
        // The real files this shim exists for, when present.
        for name in ["BENCH_pr3.json", "BENCH_pr6.json"] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
            if !path.exists() {
                continue;
            }
            let record = import_bench(&path).unwrap_or_else(|e| panic!("{e}"));
            assert!(!record.points.is_empty(), "{name}");
            assert_eq!(record.status, 0, "{name} passed its acceptance");
        }
    }
}
