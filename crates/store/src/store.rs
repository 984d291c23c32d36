//! The disk tier: fanned-out record files, a hit ledger, and GC.
//!
//! Layout under one store root:
//!
//! ```text
//! <root>/
//!   ledger.jsonl          append-only per-process hit/miss tallies
//!   eval/<xx>/<key>.rec   one record per evaluation fingerprint pair
//!   gen/<xx>/<key>.rec    one record per generation fingerprint
//! ```
//!
//! `<xx>` is the last two hex digits of the key — the low byte of an
//! FNV fingerprint — so records fan out over up to 256 directories per
//! namespace instead of one unbounded directory.
//!
//! Every write is atomic (temp file + fsync + rename through
//! [`mc_report::atomic_write`]), so concurrent processes sharing a store can
//! only ever observe complete records; two writers racing on one key
//! write identical bytes, and either rename winning is correct. Reads
//! validate the record header before trusting a byte of payload; any
//! failure is counted and treated as a miss — a damaged store can cost
//! simulator time, never correctness.

use crate::record::{self, Expect, RecordIssue};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File extension of record files.
const RECORD_EXT: &str = "rec";

/// Name of the append-only hit ledger.
const LEDGER: &str = "ledger.jsonl";

/// Per-process activity tallies of one store handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Front-tier (in-memory memo cache) hits while this store was
    /// installed.
    pub hit_mem: u64,
    /// Records served from disk.
    pub hit_disk: u64,
    /// Lookups not served from disk: no record, or a record skipped as
    /// corrupt or stale (those are also counted below).
    pub miss: u64,
    /// Records skipped as torn, checksum-failed, or unparseable.
    pub skipped_corrupt: u64,
    /// Records skipped as version/schema/calibration mismatches.
    pub stale: u64,
    /// Records written this process.
    pub saved: u64,
    /// Record writes that failed (full disk, permissions) and were
    /// skipped — the result stayed unpersisted, the cache uncorrupted.
    pub write_failed: u64,
}

impl StoreCounters {
    /// True when nothing was looked up or written.
    pub fn is_empty(&self) -> bool {
        *self == StoreCounters::default()
    }
}

/// What a disk lookup produced.
enum Lookup {
    Hit(String),
    Miss,
    Skipped(RecordIssue),
}

/// One content-addressed disk store rooted at a directory.
///
/// The handle is cheap and does no I/O until the first lookup or write;
/// a store pointed at a directory that never materializes behaves as an
/// always-miss cache.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    schema: u64,
    calib: u64,
    hit_mem: AtomicU64,
    hit_disk: AtomicU64,
    miss: AtomicU64,
    corrupt: AtomicU64,
    stale: AtomicU64,
    saved: AtomicU64,
    write_failed: AtomicU64,
}

impl DiskStore {
    /// A store rooted at `root`, validating records against the given
    /// schema and calibration fingerprints.
    pub fn open(root: impl Into<PathBuf>, schema: u64, calib: u64) -> DiskStore {
        DiskStore {
            root: root.into(),
            schema,
            calib,
            hit_mem: AtomicU64::new(0),
            hit_disk: AtomicU64::new(0),
            miss: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            saved: AtomicU64::new(0),
            write_failed: AtomicU64::new(0),
        }
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The schema fingerprint this handle validates against.
    pub fn schema(&self) -> u64 {
        self.schema
    }

    /// The calibration fingerprint this handle validates against.
    pub fn calib(&self) -> u64 {
        self.calib
    }

    /// `<root>/<kind>/<xx>/<key>.rec`, sharded on the key's low byte.
    fn record_path(&self, kind: &str, key: &str) -> PathBuf {
        let tail: String = key.chars().rev().take(2).collect();
        self.root.join(kind).join(tail).join(format!("{key}.{RECORD_EXT}"))
    }

    fn tick(&self, outcome: &str) {
        if mc_trace::metrics_enabled() {
            mc_trace::metrics().inc(outcome, 1);
        }
    }

    /// Counts a front-tier hit (the in-memory memo cache answered while
    /// this store was installed).
    pub fn note_mem_hit(&self) {
        self.hit_mem.fetch_add(1, Ordering::Relaxed);
        self.tick("store.hit_mem");
    }

    fn lookup(&self, kind: &str, key: &str) -> Lookup {
        let path = self.record_path(kind, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => {
                return Lookup::Skipped(RecordIssue::Corrupt(format!(
                    "unreadable: {e} ({})",
                    path.display()
                )))
            }
        };
        let expect = Expect { schema: self.schema, calib: self.calib, kind, key };
        match record::decode(&bytes, &expect) {
            Ok(payload) => Lookup::Hit(payload),
            Err(issue) => Lookup::Skipped(issue),
        }
    }

    /// Loads the payload stored under `kind`/`key`, counting the outcome.
    /// Anything other than a fully validated record is `None`.
    pub fn load(&self, kind: &str, key: &str) -> Option<String> {
        match self.lookup(kind, key) {
            Lookup::Hit(payload) => {
                self.hit_disk.fetch_add(1, Ordering::Relaxed);
                self.tick("store.hit_disk");
                Some(payload)
            }
            Lookup::Miss => {
                self.miss.fetch_add(1, Ordering::Relaxed);
                self.tick("store.miss");
                None
            }
            Lookup::Skipped(issue) => {
                self.miss.fetch_add(1, Ordering::Relaxed);
                self.tick("store.miss");
                match &issue {
                    RecordIssue::Corrupt(why) => {
                        self.corrupt.fetch_add(1, Ordering::Relaxed);
                        self.tick("store.skipped_corrupt");
                        mc_trace::diag!("store: skipping corrupt record {kind}:{key}: {why}");
                    }
                    RecordIssue::Version(v) => {
                        self.stale.fetch_add(1, Ordering::Relaxed);
                        self.tick("store.stale");
                        mc_trace::diag!("store: skipping v{v} record {kind}:{key}");
                    }
                    RecordIssue::Stale { .. } => {
                        self.stale.fetch_add(1, Ordering::Relaxed);
                        self.tick("store.stale");
                    }
                }
                None
            }
        }
    }

    /// Writes `payload` under `kind`/`key`. Persistence is best-effort
    /// durability, never a failure mode of the sweep itself: a full disk
    /// or permission error is diagnosed and the result simply stays
    /// unpersisted.
    pub fn save(&self, kind: &str, key: &str, payload: &str) {
        let path = self.record_path(kind, key);
        let bytes = record::encode(self.schema, self.calib, kind, key, payload);
        let written = path
            .parent()
            .map(fs::create_dir_all)
            .unwrap_or(Ok(()))
            // Deterministic disk-full injection (`enospc@I`): a failed
            // record write must surface to the skip-and-count path below
            // before any bytes land, never as a half-written file.
            .and_then(|()| mc_guard::fire_write(&format!("{key}.{RECORD_EXT}")))
            .and_then(|()| mc_report::atomic_write(&path, &bytes));
        match written {
            Ok(()) => {
                self.saved.fetch_add(1, Ordering::Relaxed);
                self.tick("store.saved");
            }
            Err(e) => {
                self.write_failed.fetch_add(1, Ordering::Relaxed);
                self.tick("store.write_failed");
                mc_trace::diag!("store: cannot write {}: {e}", path.display());
            }
        }
    }

    /// This handle's process-local tallies.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hit_mem: self.hit_mem.load(Ordering::Relaxed),
            hit_disk: self.hit_disk.load(Ordering::Relaxed),
            miss: self.miss.load(Ordering::Relaxed),
            skipped_corrupt: self.corrupt.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            saved: self.saved.load(Ordering::Relaxed),
            write_failed: self.write_failed.load(Ordering::Relaxed),
        }
    }

    /// Appends this process's tallies as one ledger line (a single
    /// `O_APPEND` write, safe against concurrent processes). A handle
    /// with no activity appends nothing. Call once, at end of run.
    ///
    /// The ledger is append-only and would grow without bound across a
    /// long-lived daemon's uptime, so a flush that leaves the file past
    /// [`LEDGER_COMPACT_BYTES`] folds it into one rollup line
    /// ([`compact_ledger`]).
    pub fn flush_ledger(&self) {
        let c = self.counters();
        if c.is_empty() {
            return;
        }
        let event = mc_trace::TraceEvent::new(mc_trace::EventKind::Event, "store.ledger")
            .with("pid", u64::from(std::process::id()))
            .with("hit_mem", c.hit_mem)
            .with("hit_disk", c.hit_disk)
            .with("miss", c.miss)
            .with("skipped_corrupt", c.skipped_corrupt)
            .with("stale", c.stale)
            .with("saved", c.saved)
            .with("write_failed", c.write_failed);
        let append = mc_guard::fire_write(LEDGER)
            .and_then(|()| fs::create_dir_all(&self.root))
            .and_then(|()| {
                let file = fs::OpenOptions::new()
                    .create(true)
                    .read(true)
                    .append(true)
                    .open(self.root.join(LEDGER))?;
                mc_trace::append_line(&file, &event.to_json())?;
                file.sync_all()
            });
        if let Err(e) = append {
            self.tick("store.write_failed");
            mc_trace::diag!("store: cannot append ledger in {}: {e}", self.root.display());
            return;
        }
        if ledger_size(&self.root) > LEDGER_COMPACT_BYTES {
            if let Err(e) = compact_ledger(&self.root) {
                mc_trace::diag!("store: cannot compact ledger in {}: {e}", self.root.display());
            }
        }
    }
}

/// Cumulative ledger totals across every process that used a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerTotals {
    /// Ledger lines (≈ processes) summed.
    pub processes: u64,
    /// Summed counters.
    pub counters: StoreCounters,
}

/// Sums the hit ledger under `root`, skipping torn or foreign lines.
/// Rollup lines written by [`compact_ledger`] carry the process count
/// they folded, so totals survive any number of compactions.
pub fn ledger_totals(root: &Path) -> LedgerTotals {
    let Ok(text) = fs::read_to_string(root.join(LEDGER)) else {
        return LedgerTotals::default();
    };
    sum_ledger_text(&text)
}

fn sum_ledger_text(text: &str) -> LedgerTotals {
    let mut totals = LedgerTotals::default();
    for line in text.lines() {
        let Ok(event) = mc_trace::TraceEvent::from_json(line) else { continue };
        let get = |k: &str| event.field(k).and_then(mc_trace::Value::as_u64).unwrap_or(0);
        match event.name.as_str() {
            "store.ledger" => totals.processes += 1,
            "store.rollup" => totals.processes += get("processes"),
            _ => continue,
        }
        totals.counters.hit_mem += get("hit_mem");
        totals.counters.hit_disk += get("hit_disk");
        totals.counters.miss += get("miss");
        totals.counters.skipped_corrupt += get("skipped_corrupt");
        totals.counters.stale += get("stale");
        totals.counters.saved += get("saved");
        totals.counters.write_failed += get("write_failed");
    }
    totals
}

/// Ledger size in bytes (0 when absent).
pub fn ledger_size(root: &Path) -> u64 {
    fs::metadata(root.join(LEDGER)).map(|m| m.len()).unwrap_or(0)
}

/// Ledger size past which [`DiskStore::flush_ledger`] compacts. At ~200
/// bytes per line this is thousands of flushes between compactions.
pub const LEDGER_COMPACT_BYTES: u64 = 64 * 1024;

/// What one ledger compaction did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Ledger lines folded (including earlier rollups).
    pub lines_before: u64,
    /// Ledger bytes before.
    pub bytes_before: u64,
    /// Ledger bytes after (one rollup line, or 0 for an empty ledger).
    pub bytes_after: u64,
}

/// Folds the ledger into a single `store.rollup` line carrying the
/// summed counters and the process count, via the atomic temp+rename
/// discipline. Totals read back identically before and after.
///
/// The tallies are advisory: a process appending concurrently with the
/// rename may land its line on the unlinked file and lose it — an
/// accepted trade for a bounded file, and why compaction only runs from
/// ledger owners (end-of-run flushes past the size threshold, daemon
/// maintenance), never on the read path.
pub fn compact_ledger(root: &Path) -> std::io::Result<CompactReport> {
    let text = match fs::read_to_string(root.join(LEDGER)) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(CompactReport::default()),
        Err(e) => return Err(e),
    };
    let report = CompactReport {
        lines_before: text.lines().count() as u64,
        bytes_before: text.len() as u64,
        ..CompactReport::default()
    };
    if report.lines_before <= 1 {
        return Ok(CompactReport { bytes_after: report.bytes_before, ..report });
    }
    let totals = sum_ledger_text(&text);
    let c = totals.counters;
    let event = mc_trace::TraceEvent::new(mc_trace::EventKind::Event, "store.rollup")
        .with("processes", totals.processes)
        .with("hit_mem", c.hit_mem)
        .with("hit_disk", c.hit_disk)
        .with("miss", c.miss)
        .with("skipped_corrupt", c.skipped_corrupt)
        .with("stale", c.stale)
        .with("saved", c.saved)
        .with("write_failed", c.write_failed);
    let mut line = event.to_json();
    line.push('\n');
    mc_guard::fire_write(LEDGER)?;
    mc_report::atomic_write(&root.join(LEDGER), line.as_bytes())?;
    Ok(CompactReport { bytes_after: line.len() as u64, ..report })
}

/// One record file found by a scan.
#[derive(Debug, Clone)]
struct ScannedRecord {
    path: PathBuf,
    bytes: u64,
    modified: Option<std::time::SystemTime>,
    version: Option<(u32, u64, u64)>,
}

/// Aggregate shape of a store directory.
#[derive(Debug, Clone, Default)]
pub struct StoreScan {
    /// Total record files.
    pub entries: u64,
    /// Total record bytes.
    pub bytes: u64,
    /// Entries per namespace (`eval`, `gen`), sorted by name.
    pub kinds: Vec<(String, u64)>,
    /// Entries per `(format version, schema, calib)` triple, sorted.
    pub versions: Vec<((u32, u64, u64), u64)>,
    /// Record files whose header would not even peek-parse.
    pub unreadable: u64,
}

fn scan_records(root: &Path) -> std::io::Result<Vec<(String, ScannedRecord)>> {
    let mut out = Vec::new();
    let kinds = match fs::read_dir(root) {
        Ok(it) => it,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for kind_entry in kinds.flatten() {
        let kind_path = kind_entry.path();
        if !kind_path.is_dir() {
            continue;
        }
        let kind = kind_entry.file_name().to_string_lossy().into_owned();
        for shard in fs::read_dir(&kind_path)?.flatten() {
            let shard_path = shard.path();
            if !shard_path.is_dir() {
                continue;
            }
            for file in fs::read_dir(&shard_path)?.flatten() {
                let path = file.path();
                if path.extension().and_then(|e| e.to_str()) != Some(RECORD_EXT) {
                    continue;
                }
                let meta = file.metadata()?;
                let version = fs::read(&path).ok().as_deref().and_then(crate::record::peek_header);
                out.push((
                    kind.clone(),
                    ScannedRecord {
                        path,
                        bytes: meta.len(),
                        modified: meta.modified().ok(),
                        version,
                    },
                ));
            }
        }
    }
    Ok(out)
}

/// Walks a store directory and aggregates its shape.
pub fn scan(root: &Path) -> std::io::Result<StoreScan> {
    let records = scan_records(root)?;
    let mut result = StoreScan::default();
    let mut kinds: std::collections::BTreeMap<String, u64> = Default::default();
    let mut versions: std::collections::BTreeMap<(u32, u64, u64), u64> = Default::default();
    for (kind, r) in &records {
        result.entries += 1;
        result.bytes += r.bytes;
        *kinds.entry(kind.clone()).or_default() += 1;
        match r.version {
            Some(v) => *versions.entry(v).or_default() += 1,
            None => result.unreadable += 1,
        }
    }
    result.kinds = kinds.into_iter().collect();
    result.versions = versions.into_iter().collect();
    Ok(result)
}

/// What one GC pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Records found before the pass.
    pub scanned_entries: u64,
    /// Bytes found before the pass.
    pub scanned_bytes: u64,
    /// Records removed.
    pub removed_entries: u64,
    /// Bytes reclaimed.
    pub removed_bytes: u64,
}

/// Size-bounded compaction: removes unreadable records first, then the
/// oldest records (by modification time, path as a deterministic
/// tiebreak) until total record bytes fit under `max_bytes`. Record
/// removal is safe against concurrent readers — a reader either sees a
/// complete record or a miss.
pub fn gc(root: &Path, max_bytes: u64) -> std::io::Result<GcReport> {
    let mut records: Vec<(String, ScannedRecord)> = scan_records(root)?;
    let mut report = GcReport {
        scanned_entries: records.len() as u64,
        scanned_bytes: records.iter().map(|(_, r)| r.bytes).sum(),
        ..GcReport::default()
    };
    let mut live = report.scanned_bytes;
    // Unreadable records are pure waste: reclaim them regardless of size.
    records.sort_by(|a, b| {
        let unreadable = |r: &ScannedRecord| r.version.is_some(); // false (unreadable) sorts first
        (unreadable(&a.1), a.1.modified, a.1.path.clone()).cmp(&(
            unreadable(&b.1),
            b.1.modified,
            b.1.path.clone(),
        ))
    });
    for (_, r) in &records {
        let unreadable = r.version.is_none();
        if !unreadable && live <= max_bytes {
            break;
        }
        fs::remove_file(&r.path)?;
        live -= r.bytes;
        report.removed_entries += 1;
        report.removed_bytes += r.bytes;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mc_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trip_and_counters() {
        let root = scratch("roundtrip");
        let store = DiskStore::open(&root, 1, 2);
        assert_eq!(store.load("eval", "00000000000000aa-00000000000000bb"), None);
        store.save("eval", "00000000000000aa-00000000000000bb", "payload-1");
        assert_eq!(
            store.load("eval", "00000000000000aa-00000000000000bb").as_deref(),
            Some("payload-1")
        );
        let c = store.counters();
        assert_eq!((c.miss, c.hit_disk, c.saved), (1, 1, 1));
        assert_eq!(c.skipped_corrupt + c.stale, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn namespaces_do_not_collide() {
        let root = scratch("kinds");
        let store = DiskStore::open(&root, 1, 2);
        store.save("eval", "00000000000000aa", "eval payload");
        store.save("gen", "00000000000000aa", "gen payload");
        assert_eq!(store.load("eval", "00000000000000aa").as_deref(), Some("eval payload"));
        assert_eq!(store.load("gen", "00000000000000aa").as_deref(), Some("gen payload"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn records_fan_out_over_prefix_shards() {
        let root = scratch("shards");
        let store = DiskStore::open(&root, 1, 2);
        for i in 0..64u64 {
            store.save("eval", &format!("{i:016x}-{i:016x}"), "p");
        }
        let shards = fs::read_dir(root.join("eval")).unwrap().count();
        assert!(shards > 16, "expected fan-out, got {shards} shard dirs");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_different_calibration_reads_as_stale_not_served() {
        let root = scratch("stale");
        DiskStore::open(&root, 1, 2).save("eval", "00000000000000aa", "old");
        let recalibrated = DiskStore::open(&root, 1, 3);
        assert_eq!(recalibrated.load("eval", "00000000000000aa"), None);
        assert_eq!(recalibrated.counters().stale, 1);
        assert_eq!(recalibrated.counters().miss, 1, "a stale record is a miss");
        // Saving under the new calibration replaces the record.
        recalibrated.save("eval", "00000000000000aa", "new");
        assert_eq!(recalibrated.load("eval", "00000000000000aa").as_deref(), Some("new"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn every_lookup_a_recalibrated_store_cannot_serve_is_a_miss() {
        let root = scratch("recalibrated");
        let old = DiskStore::open(&root, 1, 2);
        let keys: Vec<String> = (0..6u64).map(|i| format!("{i:016x}")).collect();
        for key in &keys[..4] {
            old.save("eval", key, "old");
        }
        let recalibrated = DiskStore::open(&root, 1, 3);
        let torn = recalibrated.record_path("eval", &keys[4]);
        fs::create_dir_all(torn.parent().unwrap()).unwrap();
        fs::write(&torn, b"torn").unwrap();
        for key in &keys {
            assert_eq!(recalibrated.load("eval", key), None);
        }
        let c = recalibrated.counters();
        assert_eq!(c.miss, keys.len() as u64, "every lookup missed: {c:?}");
        assert_eq!((c.hit_disk, c.stale, c.skipped_corrupt), (0, 4, 1), "{c:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn ledger_sums_across_handles() {
        let root = scratch("ledger");
        let a = DiskStore::open(&root, 1, 2);
        a.save("eval", "00000000000000aa", "p");
        a.load("eval", "00000000000000aa");
        a.note_mem_hit();
        a.flush_ledger();
        // A crash tore the next process's ledger line; later flushes must
        // not be glued onto it.
        let mut ledger = fs::OpenOptions::new().append(true).open(root.join(LEDGER)).unwrap();
        std::io::Write::write_all(
            &mut ledger,
            b"{\"seq\":0,\"us\":0,\"kind\":\"event\",\"name\":\"store.led",
        )
        .unwrap();
        drop(ledger);
        let b = DiskStore::open(&root, 1, 2);
        b.load("eval", "00000000000000aa");
        b.load("eval", "00000000000000ff"); // miss
        b.flush_ledger();
        let totals = ledger_totals(&root);
        assert_eq!(totals.processes, 2);
        assert_eq!(totals.counters.hit_disk, 2);
        assert_eq!(totals.counters.miss, 1);
        assert_eq!(totals.counters.hit_mem, 1);
        assert_eq!(totals.counters.saved, 1);
        // An idle handle appends nothing.
        DiskStore::open(&root, 1, 2).flush_ledger();
        assert_eq!(ledger_totals(&root).processes, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn compaction_folds_lines_and_preserves_totals() {
        let root = scratch("compact");
        for i in 0..5u64 {
            let handle = DiskStore::open(&root, 1, 2);
            handle.save("eval", &format!("{i:016x}"), "p");
            handle.load("eval", &format!("{i:016x}"));
            handle.flush_ledger();
        }
        let before = ledger_totals(&root);
        assert_eq!(before.processes, 5);
        let report = compact_ledger(&root).unwrap();
        assert_eq!(report.lines_before, 5);
        assert!(report.bytes_after < report.bytes_before, "{report:?}");
        assert_eq!(ledger_size(&root), report.bytes_after);
        assert_eq!(ledger_totals(&root), before, "totals survive compaction");
        // A rollup folds with later lines — and with further rollups.
        let late = DiskStore::open(&root, 1, 2);
        late.load("eval", "00000000000000ff"); // miss
        late.flush_ledger();
        let with_late = ledger_totals(&root);
        assert_eq!(with_late.processes, 6);
        assert_eq!(with_late.counters.miss, before.counters.miss + 1);
        compact_ledger(&root).unwrap();
        assert_eq!(ledger_totals(&root), with_late);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn compacting_an_empty_or_single_line_ledger_is_a_no_op() {
        let root = scratch("compact_noop");
        assert_eq!(compact_ledger(&root).unwrap(), CompactReport::default());
        let store = DiskStore::open(&root, 1, 2);
        store.save("eval", "00000000000000aa", "p");
        store.flush_ledger();
        let size = ledger_size(&root);
        let report = compact_ledger(&root).unwrap();
        assert_eq!((report.lines_before, report.bytes_after), (1, size));
        assert_eq!(ledger_totals(&root).processes, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn an_oversized_ledger_compacts_on_flush() {
        let root = scratch("autocompact");
        fs::create_dir_all(&root).unwrap();
        // Seed a ledger past the threshold with real (parseable) lines —
        // written directly, since flushes self-compact at the threshold.
        {
            let mut text = String::new();
            while text.len() as u64 <= LEDGER_COMPACT_BYTES {
                let event = mc_trace::TraceEvent::new(mc_trace::EventKind::Event, "store.ledger")
                    .with("pid", 1u64)
                    .with("miss", 1u64);
                text.push_str(&event.to_json());
                text.push('\n');
            }
            fs::write(root.join("ledger.jsonl"), text).unwrap();
        }
        assert!(ledger_size(&root) > LEDGER_COMPACT_BYTES);
        let expected = ledger_totals(&root);
        let store = DiskStore::open(&root, 1, 2);
        store.load("eval", "00000000000000bb");
        store.flush_ledger();
        assert!(
            ledger_size(&root) < LEDGER_COMPACT_BYTES,
            "flush past the threshold compacts: {} bytes",
            ledger_size(&root)
        );
        let totals = ledger_totals(&root);
        assert_eq!(totals.processes, expected.processes + 1);
        assert_eq!(totals.counters.miss, expected.counters.miss + 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_reports_entries_bytes_and_versions() {
        let root = scratch("scan");
        let store = DiskStore::open(&root, 7, 9);
        store.save("eval", "00000000000000aa", "payload");
        store.save("gen", "00000000000000bb", "other");
        fs::write(root.join("eval").join("aa").join("junk.rec"), b"garbage\n").unwrap();
        let scan = scan(&root).unwrap();
        assert_eq!(scan.entries, 3);
        assert!(scan.bytes > 0);
        assert_eq!(scan.kinds, vec![("eval".to_owned(), 2), ("gen".to_owned(), 1)]);
        assert_eq!(scan.versions, vec![((1, 7, 9), 2)]);
        assert_eq!(scan.unreadable, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_removes_unreadable_then_oldest_until_under_budget() {
        let root = scratch("gc");
        let store = DiskStore::open(&root, 1, 2);
        for i in 0..8u64 {
            store.save("eval", &format!("{i:016x}"), &format!("payload {i}"));
        }
        fs::write(root.join("eval").join("00").join("junk.rec"), b"garbage\n").unwrap();
        let before = scan(&root).unwrap();
        let budget = before.bytes / 2;
        let report = gc(&root, budget).unwrap();
        assert_eq!(report.scanned_entries, 9);
        assert!(report.removed_entries >= 1);
        let after = scan(&root).unwrap();
        assert!(after.bytes <= budget, "{} > {budget}", after.bytes);
        assert_eq!(after.unreadable, 0, "unreadable records reclaimed first");
        // Survivors still serve.
        let survivors =
            (0..8u64).filter(|i| store.load("eval", &format!("{i:016x}")).is_some()).count();
        assert_eq!(survivors as u64, after.entries);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_with_room_to_spare_removes_nothing() {
        let root = scratch("gc_noop");
        let store = DiskStore::open(&root, 1, 2);
        store.save("eval", "00000000000000aa", "p");
        let report = gc(&root, u64::MAX).unwrap();
        assert_eq!(report.removed_entries, 0);
        assert_eq!(scan(&root).unwrap().entries, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_store_on_a_missing_directory_is_an_always_miss_cache() {
        let root = scratch("missing");
        let store = DiskStore::open(root.join("never"), 1, 2);
        assert_eq!(store.load("eval", "00000000000000aa"), None);
        assert_eq!(store.counters().miss, 1);
        assert_eq!(scan(&root).unwrap().entries, 0);
        assert_eq!(gc(&root, 0).unwrap().scanned_entries, 0);
    }
}
