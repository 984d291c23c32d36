//! The persistent run registry.
//!
//! Every registered invocation becomes a run record under
//! `.microtools/runs/<run_id>/`:
//!
//! ```text
//! .microtools/
//!   index.frames           append-only registration log (one record each)
//!   runs/<run_id>/
//!     manifest.txt         `# key: value` provenance block
//!     points.csv           extracted measurement points
//!     metrics.txt          OpenMetrics snapshot of the metrics registry
//! ```
//!
//! Run IDs are *content-derived*: an FNV-1a fingerprint over the tool
//! name, the manifest (minus volatile keys like timestamps), the exit
//! status, and every measurement point. Re-registering a bit-identical
//! run reuses its directory — the record is already on disk — but still
//! appends an index record, because the index is the time axis: trends
//! walk registrations, not directories.
//!
//! Durability discipline: record directories are staged under a temp
//! name and atomically renamed into place. The index is a small log of
//! [`mc_report::fsio`] frames, each one registration's trace event as
//! JSON, appended in one `O_APPEND` write (safe against concurrent
//! registrars); the reader skips damaged, torn or foreign records instead
//! of refusing the whole index. An older `index.jsonl` is ignored.

use crate::openmetrics;
use mc_report::gate::Point;
use mc_report::{atomic_write, fnv1a64, fsio, CsvTable, CsvWriter, RunManifest};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Default registry root, relative to the working directory.
pub const DEFAULT_ROOT: &str = ".microtools";

/// File name and record kind of the registration log.
const INDEX_FILE: &str = "index.frames";
const INDEX_KIND: &str = "index";

/// Manifest keys excluded from the run fingerprint: they vary between
/// bit-identical runs (wall clock, scheduling width, store path).
/// `checkpoint` and `resumed_rows` are only in documents written by
/// older builds; they stay listed so those documents fingerprint the
/// same.
const VOLATILE_KEYS: &[&str] =
    &["timestamp_unix", "registered_unix", "jobs", "checkpoint", "resumed_rows", "store"];

/// Everything one registration writes.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Producing tool (`microlauncher`, `reproduce`, `import-bench`, …).
    pub tool: String,
    /// Tool version.
    pub version: String,
    /// Process exit status the run finished with.
    pub status: i32,
    /// Provenance manifest.
    pub manifest: RunManifest,
    /// Extracted measurement points; `points.csv` stores every field but
    /// the bottleneck.
    pub points: Vec<Point>,
    /// OpenMetrics rendering of the metrics registry (may be empty).
    pub metrics_text: String,
    /// Registration wall-clock time (unix seconds); not fingerprinted.
    pub timestamp_unix: u64,
}

impl RunRecord {
    /// A record stamped with the current wall clock.
    pub fn new(tool: &str, version: &str, status: i32, manifest: RunManifest) -> RunRecord {
        let timestamp_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        RunRecord {
            tool: tool.to_owned(),
            version: version.to_owned(),
            status,
            manifest,
            points: Vec::new(),
            metrics_text: String::new(),
            timestamp_unix,
        }
    }

    /// Extracts points from a sweep CSV (launcher or reproduce schema)
    /// and appends them under `document`.
    pub fn add_document(&mut self, document: &str, csv_text: &str) -> Result<usize, String> {
        let doc = mc_insight::load_document(csv_text, document)?;
        let added = doc.points.len();
        self.points.extend(doc.points);
        Ok(added)
    }

    /// The content-derived run ID: 16 hex digits of FNV-1a over the
    /// tool, non-volatile manifest entries, exit status, and points.
    pub fn run_id(&self) -> String {
        let mut canon = String::new();
        let _ = writeln!(canon, "tool={}", self.tool);
        let _ = writeln!(canon, "version={}", self.version);
        let _ = writeln!(canon, "status={}", self.status);
        let mut entries: Vec<&(String, String)> = self
            .manifest
            .entries()
            .iter()
            .filter(|(k, _)| !VOLATILE_KEYS.contains(&k.as_str()))
            .collect();
        entries.sort();
        for (k, v) in entries {
            let _ = writeln!(canon, "m:{k}={v}");
        }
        for p in &self.points {
            let _ = writeln!(
                canon,
                "p:{}|{}={:?},{:?},{}",
                p.document, p.key, p.value, p.spread, p.stable
            );
        }
        format!("{:016x}", fnv1a64(canon.as_bytes()))
    }
}

/// One record of the registration log, read back.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Position in the index (0-based registration order).
    pub seq: u64,
    /// Content-derived run ID.
    pub run_id: String,
    /// Producing tool.
    pub tool: String,
    /// Tool version.
    pub version: String,
    /// Exit status at registration.
    pub status: i32,
    /// Number of measurement points in the record.
    pub points: u64,
    /// Registration wall-clock time (unix seconds).
    pub timestamp_unix: u64,
    /// Human label: the input path or experiment list, when known.
    pub label: String,
}

/// A handle on one registry root.
#[derive(Debug, Clone)]
pub struct Registry {
    root: PathBuf,
}

impl Registry {
    /// A registry rooted at `root` (nothing is created until a write).
    pub fn open(root: impl Into<PathBuf>) -> Registry {
        Registry { root: root.into() }
    }

    /// Resolves the root: the `--registry` flag, else [`DEFAULT_ROOT`].
    pub fn resolve(flag: Option<&str>) -> Registry {
        Registry::open(flag.unwrap_or(DEFAULT_ROOT))
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the append-only registration log.
    pub fn index_path(&self) -> PathBuf {
        self.root.join(INDEX_FILE)
    }

    /// Directory holding one subdirectory per run ID.
    pub fn runs_dir(&self) -> PathBuf {
        self.root.join("runs")
    }

    /// Directory of one run record.
    pub fn run_dir(&self, run_id: &str) -> PathBuf {
        self.runs_dir().join(run_id)
    }

    /// Writes `record` into the registry and returns its run ID.
    ///
    /// The record directory is staged under a temporary name and renamed
    /// into place; if a directory for the same ID already exists the
    /// content is by construction identical, so the stage is discarded.
    /// Either way one record is appended to the index.
    pub fn register(&self, record: &RunRecord) -> std::io::Result<String> {
        match self.try_register(record) {
            Ok(run_id) => Ok(run_id),
            Err(e) => {
                // Registration is provenance, not a correctness
                // dependency: a full disk is counted and surfaced, and
                // the caller's run is unaffected.
                if mc_trace::metrics_enabled() {
                    mc_trace::metrics().inc("pulse.write_failed", 1);
                }
                Err(e)
            }
        }
    }

    fn try_register(&self, record: &RunRecord) -> std::io::Result<String> {
        let run_id = record.run_id();
        let runs = self.runs_dir();
        fs::create_dir_all(&runs)?;
        let final_dir = runs.join(&run_id);
        if !final_dir.exists() {
            let stage = runs.join(format!(".stage-{run_id}-{}", std::process::id()));
            fs::create_dir_all(&stage)?;
            // Any staging failure (including injected `enospc@I` disk-full
            // faults) removes the stage so a torn record directory can
            // never be observed, let alone renamed into place.
            if let Err(e) = self.write_stage(record, &run_id, &stage) {
                let _ = fs::remove_dir_all(&stage);
                return Err(e);
            }
            match fs::rename(&stage, &final_dir) {
                Ok(()) => {}
                // A concurrent registrar of the same content may win the
                // rename race; its directory is equally valid.
                Err(_) if final_dir.exists() => {
                    let _ = fs::remove_dir_all(&stage);
                }
                Err(e) => {
                    let _ = fs::remove_dir_all(&stage);
                    return Err(e);
                }
            }
        }
        self.append_index(record, &run_id)?;
        Ok(run_id)
    }

    fn write_stage(&self, record: &RunRecord, run_id: &str, stage: &Path) -> std::io::Result<()> {
        let mut manifest = record.manifest.clone();
        manifest.set("run_id", run_id.to_owned());
        manifest.set("status", record.status.to_string());
        manifest.set("registered_unix", record.timestamp_unix.to_string());
        mc_guard::fire_write("manifest.txt")?;
        atomic_write(&stage.join("manifest.txt"), manifest.render().as_bytes())?;
        let mut csv = CsvWriter::new(vec!["document", "key", "value", "spread", "stable"]);
        for p in &record.points {
            csv.row(&[
                p.document.clone(),
                p.key.clone(),
                format!("{:?}", p.value),
                format!("{:?}", p.spread),
                p.stable.to_string(),
            ]);
        }
        mc_guard::fire_write("points.csv")?;
        atomic_write(&stage.join("points.csv"), csv.finish().as_bytes())?;
        mc_guard::fire_write("metrics.txt")?;
        atomic_write(&stage.join("metrics.txt"), record.metrics_text.as_bytes())
    }

    fn append_index(&self, record: &RunRecord, run_id: &str) -> std::io::Result<()> {
        mc_guard::fire_write(INDEX_FILE)?;
        let label = record
            .manifest
            .get("input")
            .or_else(|| record.manifest.get("experiment"))
            .or_else(|| record.manifest.get("source"))
            .unwrap_or("")
            .to_owned();
        let event = mc_trace::TraceEvent::new(mc_trace::EventKind::Event, "pulse.run")
            .with("run_id", run_id)
            .with("tool", record.tool.as_str())
            .with("version", record.version.as_str())
            .with("status", i64::from(record.status))
            .with("points", record.points.len() as u64)
            .with("timestamp_unix", record.timestamp_unix)
            .with("label", label.as_str());
        // One O_APPEND write per registration: concurrent processes
        // interleave whole frames, never bytes within a frame.
        let frame = fsio::encode(0, 0, INDEX_KIND, &event.name, &event.to_json());
        fsio::append_frame(&self.index_path(), &frame)?.sync_all()
    }

    /// Reads the registration log in order, skipping damaged, torn or
    /// foreign records (the journal-reload discipline: a crash mid-append
    /// must not poison every later read).
    pub fn load_index(&self) -> std::io::Result<Vec<IndexEntry>> {
        let mut entries = Vec::new();
        for payload in fsio::read_log(&self.index_path(), INDEX_KIND)? {
            let event = mc_trace::TraceEvent::from_json(&payload).ok();
            let Some(event) = event.filter(|e| e.name == "pulse.run") else { continue };
            let str_field =
                |k: &str| event.field(k).and_then(mc_trace::Value::as_str).map(str::to_owned);
            let num_field = |k: &str| event.field(k).and_then(mc_trace::Value::as_i64);
            let (Some(run_id), Some(tool)) = (str_field("run_id"), str_field("tool")) else {
                continue;
            };
            entries.push(IndexEntry {
                seq: entries.len() as u64,
                run_id,
                tool,
                version: str_field("version").unwrap_or_default(),
                status: num_field("status").unwrap_or(0) as i32,
                points: num_field("points").unwrap_or(0).max(0) as u64,
                timestamp_unix: num_field("timestamp_unix").unwrap_or(0).max(0) as u64,
                label: str_field("label").unwrap_or_default(),
            });
        }
        Ok(entries)
    }

    /// Loads the measurement points of one registered run.
    pub fn load_points(&self, run_id: &str) -> Result<Vec<Point>, String> {
        let path = self.run_dir(run_id).join("points.csv");
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let table = CsvTable::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let col = |name: &str| {
            table.column(name).ok_or_else(|| format!("{}: no `{name}` column", path.display()))
        };
        let (d, k, v, s, st) =
            (col("document")?, col("key")?, col("value")?, col("spread")?, col("stable")?);
        let mut points = Vec::new();
        for row in &table.rows {
            points.push(Point {
                document: row[d].clone(),
                key: row[k].clone(),
                value: row[v].parse().unwrap_or(f64::NAN),
                spread: row[s].parse().unwrap_or(0.0),
                stable: row[st] != "false",
                bottleneck: "-".to_owned(),
            });
        }
        Ok(points)
    }

    /// Loads the manifest of one registered run.
    pub fn load_manifest(&self, run_id: &str) -> Result<RunManifest, String> {
        let path = self.run_dir(run_id).join("manifest.txt");
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        // `render` writes `# key: value` lines; `from_comments` expects
        // them with the comment marker already stripped (CsvTable style).
        let comments: Vec<&str> =
            text.lines().filter_map(|l| l.strip_prefix('#')).map(str::trim_start).collect();
        Ok(RunManifest::from_comments(&comments))
    }
}

/// Convenience: a record carrying the current metrics-registry snapshot.
pub fn snapshot_metrics() -> String {
    let snapshot = mc_trace::metrics().snapshot();
    if snapshot.is_empty() {
        String::new()
    } else {
        openmetrics::render(&snapshot, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mc_pulse_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_record(cycles: f64) -> RunRecord {
        let mut manifest = RunManifest::new();
        manifest.set("machine", "x5650").set("input", "fig6.xml");
        let mut record = RunRecord::new("microlauncher", "0.1.0", 0, manifest);
        record.points.push(Point {
            document: "sweep".into(),
            key: "k1|L1|simulated|1".into(),
            value: cycles,
            spread: 0.02,
            stable: true,
            bottleneck: "-".into(),
        });
        record
    }

    #[test]
    fn identical_content_same_id_new_index_lines() {
        let dir = scratch("ident");
        let reg = Registry::open(&dir);
        let a = reg.register(&sample_record(4.0)).unwrap();
        let mut later = sample_record(4.0);
        later.timestamp_unix += 3600; // wall clock moves; content does not
        let b = reg.register(&later).unwrap();
        assert_eq!(a, b, "content-derived IDs ignore the clock");
        let index = reg.load_index().unwrap();
        assert_eq!(index.len(), 2, "every registration appends");
        assert_eq!(index[0].run_id, index[1].run_id);
        assert_eq!(index[1].seq, 1);
        assert_eq!(index[0].label, "fig6.xml");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_content_different_id() {
        let dir = scratch("differ");
        let reg = Registry::open(&dir);
        let a = reg.register(&sample_record(4.0)).unwrap();
        let b = reg.register(&sample_record(5.0)).unwrap();
        assert_ne!(a, b);
        assert!(reg.run_dir(&a).join("points.csv").exists());
        assert!(reg.run_dir(&b).join("points.csv").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn points_and_manifest_round_trip() {
        let dir = scratch("roundtrip");
        let reg = Registry::open(&dir);
        let record = sample_record(4.125);
        let id = reg.register(&record).unwrap();
        let points = reg.load_points(&id).unwrap();
        assert_eq!(points, record.points);
        let manifest = reg.load_manifest(&id).unwrap();
        assert_eq!(manifest.get("machine"), Some("x5650"));
        assert_eq!(manifest.get("run_id"), Some(id.as_str()));
        assert_eq!(manifest.get("status"), Some("0"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_records_are_skipped() {
        let dir = scratch("foreign");
        let reg = Registry::open(&dir);
        reg.register(&sample_record(4.0)).unwrap();
        let other = "{\"seq\":0,\"us\":0,\"kind\":\"event\",\"name\":\"other.thing\"}";
        for frame in [
            fsio::encode(0, 0, INDEX_KIND, "other.thing", other),
            fsio::encode(0, 0, INDEX_KIND, "pulse.run", "not json"),
            fsio::encode(0, 0, "journal", "pulse.run", "{}"),
        ] {
            fsio::append_frame(&reg.index_path(), &frame).unwrap();
        }
        reg.register(&sample_record(5.0)).unwrap();
        let index = reg.load_index().unwrap();
        assert_eq!(index.len(), 2, "only the pulse.run records count: {index:?}");
        assert_eq!(index[1].seq, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stray_byte_between_registrations_loses_neither() {
        let dir = scratch("stray");
        let reg = Registry::open(&dir);
        reg.register(&sample_record(4.0)).unwrap();
        let mut index = fs::OpenOptions::new().append(true).open(reg.index_path()).unwrap();
        std::io::Write::write_all(&mut index, &[0xff]).unwrap();
        drop(index);
        reg.register(&sample_record(5.0)).unwrap();
        assert_eq!(reg.load_index().unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_registrations_never_corrupt_the_index() {
        let dir = scratch("concurrent");
        let threads = 8;
        let per_thread = 12;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let root = dir.clone();
                scope.spawn(move || {
                    // Separate Registry handles, same root — the on-disk
                    // contract is what protects concurrent writers.
                    let reg = Registry::open(root);
                    for i in 0..per_thread {
                        let record = sample_record(4.0 + (t * per_thread + i) as f64);
                        reg.register(&record).unwrap();
                    }
                });
            }
        });
        let reg = Registry::open(&dir);
        let index = reg.load_index().unwrap();
        assert_eq!(index.len(), threads * per_thread, "no record lost or torn");
        for entry in &index {
            assert_eq!(entry.tool, "microlauncher");
            assert!(reg.run_dir(&entry.run_id).join("points.csv").exists(), "{}", entry.run_id);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_is_empty_not_an_error() {
        let dir = scratch("empty");
        let reg = Registry::open(dir.join("never-written"));
        assert!(reg.load_index().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn add_document_extracts_launcher_rows() {
        let csv = "# machine: x5650\nkernel,label,mode,workers,cycles_per_iteration,min,median,\
                   max,stable,status\nk1,L1,simulated,1,4.0,3.9,4.0,4.1,true,ok\n\
                   k2,L1,simulated,1,8.0,7.9,8.0,8.1,false,ok\n\
                   k3,L1,simulated,1,-,-,-,-,-,panic\n";
        let mut record = RunRecord::new("microlauncher", "0.1.0", 0, RunManifest::new());
        let added = record.add_document("sweep", csv).unwrap();
        assert_eq!(added, 2, "failed rows never become points");
        assert!(!record.points[1].stable);
        assert!((record.points[0].spread - 0.05).abs() < 1e-9);

        // The content-derived ID and the stored points are pinned: a
        // launcher and a series document, registered, read back.
        record.add_document("fig11", "series,x,y\nL1,1,10.5\nL1,2,0.1\n").unwrap();
        let dir = scratch("pinned");
        let id = Registry::open(&dir).register(&record).unwrap();
        let points = fs::read_to_string(dir.join("runs").join(&id).join("points.csv")).unwrap();
        assert_eq!(id, "f9cf993096b5987e");
        assert_eq!(
            points,
            "document,key,value,spread,stable\n\
             sweep,k1|L1|simulated|1,4.0,0.04999999999999993,true\n\
             sweep,k2|L1|simulated|1,8.0,0.02499999999999991,false\n\
             fig11,L1|1,10.5,0.0,true\nfig11,L1|2,0.1,0.0,true\n"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
