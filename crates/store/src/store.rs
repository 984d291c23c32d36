//! The disk tier: one append-only log per namespace (`<root>/eval.log`,
//! `<root>/gen.log`), a hit ledger (`<root>/ledger.jsonl`), and GC.
//!
//! A save is one `O_APPEND` `write(2)` of a whole frame ([`crate::record`]):
//! a killed process keeps every record it finished, and concurrent writers
//! never interleave bytes. [`DiskStore::sync`] fsyncs once per batch.
//! [`DiskStore::open`] indexes key → (offset, length) with one sequential
//! walk per log; a load is one positioned read plus validation, and a
//! lookup the index cannot serve first catches it up to the log's end. A
//! walk stops before a torn tail (the next catch-up resumes there) and
//! resyncs on the next whole frame past damaged bytes; a key appended
//! twice is served from its later frame. Damaged or mismatched records
//! count as misses — they can cost simulator time, never correctness.

use crate::record::{self, Expect, Header, RecordIssue, HEADER_LEN, MAGIC};
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::Write;
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError, RwLock};

/// File extension of namespace logs, and the name of the hit ledger.
const LOG_EXT: &str = "log";
const LEDGER: &str = "ledger.jsonl";

/// Bytes a log walk reads at a time.
const CHUNK: usize = 64 * 1024;

/// Per-process activity tallies of one store handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Front-tier (in-memory memo cache) hits while this store was installed.
    pub hit_mem: u64,
    /// Records served from disk.
    pub hit_disk: u64,
    /// Lookups not served from disk: no record, or one skipped below.
    pub miss: u64,
    /// Damaged log spans walked past, and indexed frames that failed validation.
    pub skipped_corrupt: u64,
    /// Records skipped as version/schema/calibration mismatches.
    pub stale: u64,
    /// Records written this process.
    pub saved: u64,
    /// Writes that failed (full disk, permissions) and were skipped.
    pub write_failed: u64,
}

impl StoreCounters {
    /// True when nothing was looked up or written.
    pub fn is_empty(&self) -> bool {
        *self == StoreCounters::default()
    }

    /// Every tally under its ledger field name.
    fn fields(&mut self) -> [(&'static str, &mut u64); 7] {
        [
            ("hit_mem", &mut self.hit_mem),
            ("hit_disk", &mut self.hit_disk),
            ("miss", &mut self.miss),
            ("skipped_corrupt", &mut self.skipped_corrupt),
            ("stale", &mut self.stale),
            ("saved", &mut self.saved),
            ("write_failed", &mut self.write_failed),
        ]
    }
}

/// A read-through window over `[.., end)` of a log.
struct Window<'a> {
    file: &'a File,
    end: u64,
    start: u64,
    buf: Vec<u8>,
}

impl Window<'_> {
    /// The `len` bytes at `at`, or `None` past the end.
    fn get(&mut self, at: u64, len: usize) -> std::io::Result<Option<&[u8]>> {
        if at + len as u64 > self.end {
            return Ok(None);
        }
        if at < self.start || at + len as u64 > self.start + self.buf.len() as u64 {
            self.buf.resize((self.end - at).min(len.max(CHUNK) as u64) as usize, 0);
            self.file.read_exact_at(&mut self.buf, at)?;
            self.start = at;
        }
        let from = (at - self.start) as usize;
        Ok(Some(&self.buf[from..from + len]))
    }
}

/// Walks `[from, to)` of a log, calling `visit(offset, bytes, frame)` for
/// every whole frame (header and key echo) and, with `None`, every damaged
/// span between them. Returns `to`, or the first frame after the last whole
/// one that runs past `to` — a torn tail or a write still landing.
fn walk(
    file: &File,
    from: u64,
    to: u64,
    mut visit: impl FnMut(u64, u64, Option<(Header, String)>),
) -> std::io::Result<u64> {
    let mut window = Window { file, end: to, start: 0, buf: Vec::new() };
    let (mut at, mut damaged, mut torn) = (from, None, None);
    while at < to {
        let mut whole = None;
        let head = window.get(at, HEADER_LEN.min((to - at) as usize))?.unwrap_or_default();
        if head.len() < HEADER_LEN && MAGIC.starts_with(&head[..head.len().min(MAGIC.len())]) {
            torn.get_or_insert(at);
        } else if let Some(h) = Header::parse(head) {
            match window.get(at, h.frame_len() as usize)? {
                Some(frame) if h.sums(frame) => {
                    whole = Some((h, String::from_utf8_lossy(h.echo(frame)).into_owned()));
                }
                Some(_) => {}
                None => _ = torn.get_or_insert(at),
            }
        }
        let Some((h, echo)) = whole else {
            damaged.get_or_insert(at);
            at += 1;
            continue;
        };
        if let Some(start) = damaged.take() {
            visit(start, at - start, None);
        }
        torn = None;
        visit(at, h.frame_len(), Some((h, echo)));
        at += h.frame_len();
    }
    let end = torn.unwrap_or(to);
    if let Some(start) = damaged.filter(|&start| start < end) {
        visit(start, end - start, None);
    }
    Ok(end)
}

/// Every namespace log under `root` as `(kind, path)`, sorted.
fn logs(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(root) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        entries => entries?,
    };
    for path in entries.flatten().map(|entry| entry.path()) {
        if path.extension().is_some_and(|e| e == LOG_EXT) && path.is_file() {
            out.push((path.file_stem().unwrap_or_default().to_string_lossy().into(), path));
        }
    }
    out.sort();
    Ok(out)
}

/// One namespace's log handles and the index of everything walked.
#[derive(Debug, Default)]
struct Log {
    read: Option<File>,
    append: Option<File>,
    end: u64,
    /// Key → (offset, bytes) of the key's last whole frame.
    index: BTreeMap<String, (u64, u64)>,
}

impl Log {
    /// Indexes what was appended since the last walk; returns its damaged spans.
    fn catch_up(&mut self, path: &Path, kind: &str) -> u64 {
        self.read = self.read.take().or_else(|| File::open(path).ok());
        let Some(file) = &self.read else { return 0 };
        let to = file.metadata().map_or(self.end, |m| m.len().max(self.end));
        let (index, mut damaged) = (&mut self.index, 0);
        let walked = walk(file, self.end, to, |at, len, frame| match frame {
            Some((_, echo)) => {
                if let Some(key) = echo.strip_prefix(kind).and_then(|k| k.strip_prefix(':')) {
                    index.insert(key.to_owned(), (at, len));
                }
            }
            None => damaged += 1,
        });
        match walked {
            Ok(end) => self.end = end,
            Err(e) => mc_trace::diag!("store: cannot read {}: {e}", path.display()),
        }
        damaged
    }

    /// One positioned read of the indexed frame, validated (`Err(None)`: no record).
    fn read(&self, expect: &Expect<'_>) -> Result<String, Option<RecordIssue>> {
        let (Some(file), Some(&(at, len))) = (&self.read, self.index.get(expect.key)) else {
            return Err(None);
        };
        let mut frame = vec![0; len as usize];
        file.read_exact_at(&mut frame, at)
            .map_err(|e| RecordIssue::Corrupt(format!("unreadable at {at}: {e}")))
            .and_then(|()| record::decode(&frame, expect))
            .map_err(Some)
    }
}

/// One content-addressed disk store rooted at a directory. A store
/// pointed at a directory that never materializes is an always-miss cache.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    schema: u64,
    calib: u64,
    logs: RwLock<HashMap<String, Log>>,
    counters: Mutex<StoreCounters>,
}

impl DiskStore {
    /// A store rooted at `root`, validating records against the given schema
    /// and calibration fingerprints; indexes every log with one walk each.
    pub fn open(root: impl Into<PathBuf>, schema: u64, calib: u64) -> DiskStore {
        let (root, logs, counters) = (root.into(), RwLock::default(), Mutex::default());
        let store = DiskStore { root, schema, calib, logs, counters };
        for (kind, _) in self::logs(&store.root).unwrap_or_default() {
            store.caught_up(&kind, |_| ());
        }
        store
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn log_path(&self, kind: &str) -> PathBuf {
        self.root.join(format!("{kind}.{LOG_EXT}"))
    }

    /// Adds `n` to one tally and to its `store.*` metric.
    fn count(&self, metric: &str, n: u64, tally: impl FnOnce(&mut StoreCounters) -> &mut u64) {
        *tally(&mut self.counters.lock().unwrap_or_else(PoisonError::into_inner)) += n;
        if mc_trace::metrics_enabled() {
            mc_trace::metrics().inc(metric, n);
        }
    }

    /// Counts a front-tier hit (the in-memory memo cache answered).
    pub fn note_mem_hit(&self) {
        self.count("store.hit_mem", 1, |c| &mut c.hit_mem);
    }

    /// Runs `then` on the log of `kind`, caught up to its end.
    fn caught_up<T>(&self, kind: &str, then: impl FnOnce(&mut Log) -> T) -> T {
        let mut logs = self.logs.write().unwrap_or_else(PoisonError::into_inner);
        let log = logs.entry(kind.to_owned()).or_default();
        let damaged = log.catch_up(&self.log_path(kind), kind);
        if damaged > 0 {
            self.count("store.skipped_corrupt", damaged, |c| &mut c.skipped_corrupt);
            mc_trace::diag!("store: skipped {damaged} damaged span(s) in {kind}.{LOG_EXT}");
        }
        then(log)
    }

    /// Every key the index holds for `kind`, sorted, caught up to the log's end.
    pub fn keys(&self, kind: &str) -> Vec<String> {
        self.caught_up(kind, |log| log.index.keys().cloned().collect())
    }

    /// Loads the payload stored under `kind`/`key`, counting the outcome.
    /// Anything other than a fully validated record is `None`.
    pub fn load(&self, kind: &str, key: &str) -> Option<String> {
        let expect = Expect { schema: self.schema, calib: self.calib, kind, key };
        let logs = self.logs.read().unwrap_or_else(PoisonError::into_inner);
        let mut found = logs.get(kind).map_or(Err(None), |log| log.read(&expect));
        drop(logs);
        if found.is_err() {
            found = self.caught_up(kind, |log| log.read(&expect));
        }
        match found {
            Ok(payload) => {
                self.count("store.hit_disk", 1, |c| &mut c.hit_disk);
                return Some(payload);
            }
            Err(Some(RecordIssue::Corrupt(why))) => {
                self.count("store.skipped_corrupt", 1, |c| &mut c.skipped_corrupt);
                mc_trace::diag!("store: skipping corrupt record {kind}:{key}: {why}");
            }
            Err(Some(RecordIssue::Version(v))) => {
                self.count("store.stale", 1, |c| &mut c.stale);
                mc_trace::diag!("store: skipping v{v} record {kind}:{key}");
            }
            Err(Some(RecordIssue::Stale { .. })) => self.count("store.stale", 1, |c| &mut c.stale),
            Err(None) => {}
        }
        self.count("store.miss", 1, |c| &mut c.miss);
        None
    }

    /// Appends `payload` under `kind`/`key` as one `write(2)`, durable at the
    /// next [`sync`](DiskStore::sync). Best-effort: a full disk or permission
    /// error is diagnosed and counted, and the result stays unpersisted.
    pub fn save(&self, kind: &str, key: &str, payload: &str) {
        let frame = record::encode(self.schema, self.calib, kind, key, payload);
        // Deterministic disk-full injection (`enospc@I`): a failed record
        // write must surface to the skip-and-count path below before any
        // bytes land, never as a torn frame.
        let written = mc_guard::fire_write(kind).and_then(|()| {
            let mut logs = self.logs.write().unwrap_or_else(PoisonError::into_inner);
            let log = logs.entry(kind.to_owned()).or_default();
            if log.append.is_none() {
                fs::create_dir_all(&self.root)?;
                let path = self.log_path(kind);
                log.append = Some(fs::OpenOptions::new().create(true).append(true).open(path)?);
                File::open(&self.root)?.sync_all()?;
            }
            log.append.as_ref().expect("opened above").write_all(&frame)
        });
        match written {
            Ok(()) => self.count("store.saved", 1, |c| &mut c.saved),
            Err(e) => {
                self.count("store.write_failed", 1, |c| &mut c.write_failed);
                mc_trace::diag!("store: cannot append to {}: {e}", self.log_path(kind).display());
            }
        }
    }

    /// Makes this handle's appends durable: one fsync per log, once per batch.
    /// A log that a [`gc`] has since replaced under its path is then dropped,
    /// so the next access reopens and re-walks it instead of appending to
    /// the unlinked file.
    pub fn sync(&self) {
        let logs = self.logs.read().unwrap_or_else(PoisonError::into_inner);
        let mut replaced = Vec::new();
        for (kind, log) in logs.iter() {
            let path = self.log_path(kind);
            if let Some(Err(e)) = log.append.as_ref().map(File::sync_data) {
                mc_trace::diag!("store: cannot sync {}: {e}", path.display());
            }
            if ![&log.append, &log.read].into_iter().flatten().all(|file| is_file_at(file, &path)) {
                replaced.push(kind.clone());
            }
        }
        drop(logs);
        if !replaced.is_empty() {
            let mut logs = self.logs.write().unwrap_or_else(PoisonError::into_inner);
            for kind in replaced {
                logs.remove(&kind);
            }
        }
    }

    /// This handle's process-local tallies.
    pub fn counters(&self) -> StoreCounters {
        *self.counters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Syncs this handle's records, then appends its tallies as one ledger
    /// line (one `O_APPEND` write; nothing for an idle handle). Call once, at
    /// end of run. A ledger past [`LEDGER_COMPACT_BYTES`] is then folded into
    /// one rollup line, so a long-lived daemon's ledger stays bounded.
    pub fn flush_ledger(&self) {
        self.sync();
        let c = self.counters();
        if c.is_empty() {
            return;
        }
        let event = ledger_event("store.ledger", ("pid", u64::from(std::process::id())), c);
        let append = mc_guard::fire_write(LEDGER)
            .and_then(|()| fs::create_dir_all(&self.root))
            .and_then(|()| {
                let mut options = fs::OpenOptions::new();
                let file =
                    options.create(true).read(true).append(true).open(self.root.join(LEDGER))?;
                mc_trace::append_line(&file, &event.to_json())?;
                file.sync_all()
            });
        if let Err(e) = append {
            self.count("store.write_failed", 1, |c| &mut c.write_failed);
            mc_trace::diag!("store: cannot append ledger in {}: {e}", self.root.display());
        } else if ledger_size(&self.root) > LEDGER_COMPACT_BYTES {
            if let Err(e) = compact_ledger(&self.root) {
                mc_trace::diag!("store: cannot compact ledger in {}: {e}", self.root.display());
            }
        }
    }
}

/// True when `file` is the file `path` names now (same device and inode).
fn is_file_at(file: &File, path: &Path) -> bool {
    match (file.metadata(), fs::metadata(path)) {
        (Ok(open), Ok(named)) => (open.dev(), open.ino()) == (named.dev(), named.ino()),
        _ => false,
    }
}

/// A ledger line: `lead` (the writer's pid, or a rollup's process count),
/// then every tally.
fn ledger_event(name: &str, lead: (&str, u64), mut c: StoreCounters) -> mc_trace::TraceEvent {
    let mut event =
        mc_trace::TraceEvent::new(mc_trace::EventKind::Event, name).with(lead.0, lead.1);
    for (field, n) in c.fields() {
        event = event.with(field, *n);
    }
    event
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
/// Rollup lines written by ledger compaction carry the process count
/// they folded, so totals survive any number of compactions.
pub fn ledger_totals(root: &Path) -> LedgerTotals {
    let text = fs::read_to_string(root.join(LEDGER)).unwrap_or_default();
    let mut totals = LedgerTotals::default();
    for line in text.lines() {
        let Ok(event) = mc_trace::TraceEvent::from_json(line) else { continue };
        let get = |k: &str| event.field(k).and_then(mc_trace::Value::as_u64).unwrap_or(0);
        match event.name.as_str() {
            "store.ledger" => totals.processes += 1,
            "store.rollup" => totals.processes += get("processes"),
            _ => continue,
        }
        for (field, n) in totals.counters.fields() {
            *n += get(field);
        }
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

/// Folds a ledger of several lines into one `store.rollup` line (temp file +
/// rename; totals read back identically). The tallies are advisory: a line
/// appended concurrently with the rename is lost — the price of a bounded
/// file, and why only end-of-run flushes compact.
fn compact_ledger(root: &Path) -> std::io::Result<()> {
    let lines = fs::read_to_string(root.join(LEDGER)).map_or(0, |text| text.lines().count());
    if lines <= 1 {
        return Ok(());
    }
    let totals = ledger_totals(root);
    let event = ledger_event("store.rollup", ("processes", totals.processes), totals.counters);
    mc_guard::fire_write(LEDGER)?;
    mc_report::atomic_write(&root.join(LEDGER), format!("{}\n", event.to_json()).as_bytes())
}

/// Aggregate shape of a store directory.
#[derive(Debug, Clone, Default)]
pub struct StoreScan {
    /// Record frames, superseded ones included.
    pub entries: u64,
    /// Log bytes.
    pub bytes: u64,
    /// Entries per namespace (`eval`, `gen`), sorted by name.
    pub kinds: Vec<(String, u64)>,
    /// Entries per `(format version, schema, calib)` triple, sorted.
    pub versions: Vec<((u32, u64, u64), u64)>,
    /// Damaged spans and torn tails: log bytes that are no whole frame.
    pub unreadable: u64,
}

/// Walks every namespace log once, sequentially, and aggregates its shape.
pub fn scan(root: &Path) -> std::io::Result<StoreScan> {
    let mut result = StoreScan::default();
    let mut versions: BTreeMap<(u32, u64, u64), u64> = BTreeMap::new();
    for (kind, path) in logs(root)? {
        let file = File::open(&path)?;
        let len = file.metadata()?.len();
        let mut entries = 0;
        let end = walk(&file, 0, len, |_, _, frame| match frame {
            Some((h, _)) => {
                entries += 1;
                *versions.entry((h.version, h.schema, h.calib)).or_default() += 1;
            }
            None => result.unreadable += 1,
        })?;
        result.unreadable += u64::from(end < len);
        result.entries += entries;
        result.bytes += len;
        result.kinds.push((kind, entries));
    }
    result.versions = versions.into_iter().collect();
    Ok(result)
}

/// What one GC pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Frames, damaged spans and torn tails found before the pass.
    pub scanned_entries: u64,
    /// Log bytes found before the pass.
    pub scanned_bytes: u64,
    /// Entries removed.
    pub removed_entries: u64,
    /// Bytes reclaimed.
    pub removed_bytes: u64,
}

/// Size-bounded compaction, one walk and at most one rewrite per log: drops
/// damaged spans, torn tails and superseded frames, then the oldest live
/// frames (lowest log offset first, across logs) until the logs fit under
/// `max_bytes`. A rewrite is a temp file renamed over the log; a handle
/// opened before notices at its next [`DiskStore::sync`] and reopens the
/// log. What it appended between the rename and that sync is lost —
/// recomputation later, never corruption.
pub fn gc(root: &Path, max_bytes: u64) -> std::io::Result<GcReport> {
    let logs = logs(root)?;
    let mut report = GcReport::default();
    // (offset, bytes, log) of every live frame.
    let mut live: Vec<(u64, u64, usize)> = Vec::new();
    for (i, (_, path)) in logs.iter().enumerate() {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut latest: HashMap<String, (u64, u64)> = HashMap::new();
        let end = walk(&file, 0, len, |at, bytes, frame| {
            report.scanned_entries += 1;
            if let Some((_, echo)) = frame {
                latest.insert(echo, (at, bytes));
            }
        })?;
        report.scanned_entries += u64::from(end < len);
        report.scanned_bytes += len;
        live.extend(latest.into_values().map(|(at, bytes)| (at, bytes, i)));
    }
    live.sort_unstable();
    let mut kept_bytes: u64 = live.iter().map(|f| f.1).sum();
    let mut evicted = 0;
    while kept_bytes > max_bytes {
        kept_bytes -= live[evicted].1;
        evicted += 1;
    }
    for (i, (_, path)) in logs.iter().enumerate() {
        let frames: Vec<(u64, u64)> =
            live[evicted..].iter().filter(|f| f.2 == i).map(|&(at, n, _)| (at, n)).collect();
        rewrite(path, &frames)?;
    }
    report.removed_entries = report.scanned_entries - (live.len() - evicted) as u64;
    report.removed_bytes = report.scanned_bytes - kept_bytes;
    Ok(report)
}

/// Rewrites the log at `path` to hold only `frames` (offset, bytes), in
/// order: untouched when they are the whole log, removed when empty.
fn rewrite(path: &Path, frames: &[(u64, u64)]) -> std::io::Result<()> {
    let src = File::open(path)?;
    if frames.iter().map(|f| f.1).sum::<u64>() == src.metadata()?.len() {
        return Ok(());
    } else if frames.is_empty() {
        return fs::remove_file(path);
    }
    let tmp = path.with_extension(format!("{LOG_EXT}.{}.tmp", std::process::id()));
    let copied = File::create(&tmp).and_then(|file| {
        let (mut out, mut frame) = (std::io::BufWriter::new(file), Vec::new());
        for &(at, bytes) in frames {
            frame.resize(bytes as usize, 0);
            src.read_exact_at(&mut frame, at)?;
            out.write_all(&frame)?;
        }
        out.into_inner().map_err(|e| e.into_error())?.sync_all()
    });
    copied.and_then(|()| fs::rename(&tmp, path)).inspect_err(|_| _ = fs::remove_file(&tmp))?;
    File::open(path.parent().expect("a log sits in its store root"))?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mc_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Appends raw bytes to a namespace log, as a crash or a foreign
    /// writer would leave them.
    fn append_raw(root: &Path, kind: &str, bytes: &[u8]) {
        let mut log = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(root.join(format!("{kind}.{LOG_EXT}")))
            .unwrap();
        log.write_all(bytes).unwrap();
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
    fn records_append_to_one_log_per_namespace() {
        let root = scratch("logs");
        let store = DiskStore::open(&root, 1, 2);
        let keys: Vec<String> = (0..64u64).rev().map(|i| format!("{i:016x}-{i:016x}")).collect();
        for key in &keys {
            store.save("eval", key, "p");
        }
        store.save("gen", "00000000000000aa", "g");
        store.sync();
        let mut files: Vec<String> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["eval.log", "gen.log"]);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(store.keys("eval"), sorted);
        assert_eq!(DiskStore::open(&root, 1, 2).keys("gen"), ["00000000000000aa"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_handle_serves_records_appended_after_it_opened() {
        let root = scratch("catch_up");
        let reader = DiskStore::open(&root, 1, 2);
        let writer = DiskStore::open(&root, 1, 2);
        assert_eq!(reader.load("eval", "00000000000000aa"), None);
        writer.save("eval", "00000000000000aa", "first");
        writer.save("eval", "00000000000000bb", "second");
        assert_eq!(reader.load("eval", "00000000000000bb").as_deref(), Some("second"));
        assert_eq!(reader.load("eval", "00000000000000aa").as_deref(), Some("first"));
        // A key appended again is served from its latest frame.
        writer.save("eval", "00000000000000aa", "again");
        assert_eq!(
            DiskStore::open(&root, 1, 2).load("eval", "00000000000000aa").as_deref(),
            Some("again")
        );
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
        // Saving under the new calibration supersedes the record.
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
        let mut torn = record::encode(1, 3, "eval", &keys[4], "torn");
        *torn.last_mut().unwrap() ^= 0x20;
        append_raw(&root, "eval", &torn);
        let recalibrated = DiskStore::open(&root, 1, 3);
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
        let lines = || fs::read_to_string(root.join(LEDGER)).unwrap().lines().count();
        let bytes_before = ledger_size(&root);
        assert_eq!(lines(), 5);
        compact_ledger(&root).unwrap();
        assert_eq!(lines(), 1, "folded into one rollup line");
        assert!(ledger_size(&root) < bytes_before, "{} >= {bytes_before}", ledger_size(&root));
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
        compact_ledger(&root).unwrap();
        assert_eq!(ledger_size(&root), 0, "no ledger appears");
        let store = DiskStore::open(&root, 1, 2);
        store.save("eval", "00000000000000aa", "p");
        store.flush_ledger();
        let before = fs::read(root.join(LEDGER)).unwrap();
        compact_ledger(&root).unwrap();
        assert_eq!(fs::read(root.join(LEDGER)).unwrap(), before, "a single line stays as it is");
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
        append_raw(&root, "eval", b"garbage\n");
        let scan = scan(&root).unwrap();
        assert_eq!(scan.entries, 2);
        let size = |kind: &str| fs::metadata(root.join(format!("{kind}.log"))).unwrap().len();
        assert_eq!(scan.bytes, size("eval") + size("gen"));
        assert_eq!(scan.kinds, vec![("eval".to_owned(), 1), ("gen".to_owned(), 1)]);
        assert_eq!(scan.versions, vec![((record::FORMAT_VERSION, 7, 9), 2)]);
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
        append_raw(&root, "eval", b"garbage\n");
        let before = scan(&root).unwrap();
        let budget = before.bytes / 2;
        let report = gc(&root, budget).unwrap();
        assert_eq!(report.scanned_entries, 9);
        assert!(report.removed_entries >= 1);
        let after = scan(&root).unwrap();
        assert!(after.bytes <= budget, "{} > {budget}", after.bytes);
        assert_eq!(after.unreadable, 0, "unreadable records reclaimed first");
        assert_eq!(report.removed_bytes, before.bytes - after.bytes);
        // A handle opened after the rewrite serves exactly the survivors:
        // the newest records.
        let reopened = DiskStore::open(&root, 1, 2);
        let served: Vec<bool> =
            (0..8u64).map(|i| reopened.load("eval", &format!("{i:016x}")).is_some()).collect();
        let survivors = served.iter().filter(|&&s| s).count();
        assert_eq!(survivors as u64, after.entries);
        assert!(served.ends_with(&vec![true; survivors]), "oldest evicted first: {served:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_drops_superseded_frames_and_keeps_the_latest() {
        let root = scratch("gc_superseded");
        let store = DiskStore::open(&root, 1, 2);
        store.save("eval", "00000000000000aa", "first");
        store.save("eval", "00000000000000bb", "other");
        store.save("eval", "00000000000000aa", "latest");
        let report = gc(&root, u64::MAX).unwrap();
        assert_eq!((report.scanned_entries, report.removed_entries), (3, 1));
        assert_eq!(scan(&root).unwrap().entries, 2);
        let reopened = DiskStore::open(&root, 1, 2);
        assert_eq!(reopened.load("eval", "00000000000000aa").as_deref(), Some("latest"));
        assert_eq!(reopened.load("eval", "00000000000000bb").as_deref(), Some("other"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_handle_open_across_a_gc_appends_to_the_rewritten_log() {
        let root = scratch("gc_live");
        let live = DiskStore::open(&root, 1, 2);
        live.save("eval", "00000000000000aa", "first");
        live.save("eval", "00000000000000aa", "latest");
        let report = gc(&root, u64::MAX).unwrap();
        assert_eq!(report.removed_entries, 1, "the superseded frame is gone");
        live.sync();
        live.save("eval", "00000000000000bb", "after gc");
        live.sync();
        let fresh = DiskStore::open(&root, 1, 2);
        assert_eq!(fresh.load("eval", "00000000000000bb").as_deref(), Some("after gc"));
        assert_eq!(live.load("eval", "00000000000000aa").as_deref(), Some("latest"));
        assert_eq!(live.load("eval", "00000000000000bb").as_deref(), Some("after gc"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_with_room_to_spare_removes_nothing() {
        let root = scratch("gc_noop");
        let store = DiskStore::open(&root, 1, 2);
        store.save("eval", "00000000000000aa", "p");
        let before = fs::metadata(root.join("eval.log")).unwrap().modified().unwrap();
        let report = gc(&root, u64::MAX).unwrap();
        assert_eq!(report.removed_entries, 0);
        assert_eq!(scan(&root).unwrap().entries, 1);
        assert_eq!(fs::metadata(root.join("eval.log")).unwrap().modified().unwrap(), before);
        // A zero budget empties the store.
        assert_eq!(gc(&root, 0).unwrap().removed_entries, 1);
        assert_eq!(scan(&root).unwrap().entries, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_store_on_a_missing_directory_is_an_always_miss_cache() {
        let root = scratch("missing");
        let store = DiskStore::open(root.join("never"), 1, 2);
        assert_eq!(store.load("eval", "00000000000000aa"), None);
        assert_eq!(store.counters().miss, 1);
        assert!(store.keys("eval").is_empty());
        store.sync();
        assert!(!root.exists(), "lookups create nothing");
        assert_eq!(scan(&root).unwrap().entries, 0);
        assert_eq!(gc(&root, 0).unwrap().scanned_entries, 0);
    }
}
