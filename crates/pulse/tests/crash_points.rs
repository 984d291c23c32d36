//! Crash points of the registry index, in the shape of the store's
//! (`crates/store/tests/crash_points.rs`): a small index truncated at
//! every byte offset and with every byte flipped. Loading it must never
//! panic and never return a damaged entry, and at most the torn or
//! damaged registration may be lost. A registration appended after a
//! torn tail must be read, not lost with the torn bytes.

use mc_pulse::{IndexEntry, Registry, RunRecord};
use mc_report::RunManifest;
use std::path::{Path, PathBuf};

const RUNS: usize = 4;

fn record(i: usize) -> RunRecord {
    let mut manifest = RunManifest::new();
    manifest.set("input", format!("kernel-{i}{}.xml", "-long".repeat(i)));
    let mut record = RunRecord::new("microlauncher", "0.1.0", i as i32, manifest);
    record.timestamp_unix = 1_700_000_000 + i as u64;
    record
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc_pulse_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An entry with its position in the index left out.
fn unplaced(entry: &IndexEntry) -> IndexEntry {
    IndexEntry { seq: 0, ..entry.clone() }
}

/// Registers the runs one at a time; returns the index bytes, the offset
/// each record ends at, and the entries as first read back.
fn build(dir: &Path) -> (Vec<u8>, Vec<usize>, Vec<IndexEntry>) {
    let registry = Registry::open(dir);
    let mut ends = Vec::new();
    for i in 0..RUNS {
        registry.register(&record(i)).unwrap();
        ends.push(std::fs::metadata(registry.index_path()).unwrap().len() as usize);
    }
    let entries = registry.load_index().unwrap().iter().map(unplaced).collect();
    (std::fs::read(registry.index_path()).unwrap(), ends, entries)
}

/// Replaces the index in `dir` with `bytes` and reports which entries a
/// load returns, failing on any entry that is not one registered.
fn indexed(dir: &Path, bytes: &[u8], entries: &[IndexEntry]) -> Vec<bool> {
    let registry = Registry::open(dir);
    std::fs::write(registry.index_path(), bytes).unwrap();
    let loaded: Vec<IndexEntry> = registry.load_index().unwrap().iter().map(unplaced).collect();
    for got in &loaded {
        assert!(entries.contains(got), "loaded a damaged entry: {got:?}");
    }
    entries.iter().map(|e| loaded.contains(e)).collect()
}

#[test]
fn truncation_at_every_offset_loses_only_the_torn_record() {
    let dir = scratch("truncate");
    let (index, ends, entries) = build(&dir);
    let registry = Registry::open(&dir);
    for cut in 0..=index.len() {
        let whole: Vec<bool> = ends.iter().map(|&end| end <= cut).collect();
        assert_eq!(indexed(&dir, &index[..cut], &entries), whole, "cut at {cut}");
        // A later registration lands after the torn tail: it is read, and
        // so is every record that was whole before the cut.
        let run_id = registry.register(&record(RUNS)).unwrap();
        let loaded = registry.load_index().unwrap();
        let ids: Vec<&str> = loaded.iter().map(|e| e.run_id.as_str()).collect();
        let mut expected: Vec<&str> = entries
            .iter()
            .zip(&whole)
            .filter(|(_, &w)| w)
            .map(|(e, _)| e.run_id.as_str())
            .collect();
        expected.push(&run_id);
        assert_eq!(ids, expected, "cut at {cut}, then register");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_byte_anywhere_loses_at_most_its_record() {
    let dir = scratch("flip");
    let (index, ends, entries) = build(&dir);
    for at in 0..index.len() {
        let owner = ends.iter().position(|&end| at < end).unwrap();
        for mask in [0x01, 0x20, 0xff] {
            let mut damaged = index.clone();
            damaged[at] ^= mask;
            for (i, kept) in indexed(&dir, &damaged, &entries).into_iter().enumerate() {
                assert!(kept || i == owner, "flip {mask:#04x} at {at} lost record {i}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
