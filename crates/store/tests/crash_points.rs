//! Crash points of a namespace log: a small log truncated at every byte
//! offset and with every byte flipped. Opening it and looking every key
//! up must never panic and never serve a damaged payload, and at most
//! the torn or damaged record may be lost. A record appended after a
//! torn tail must be served, not glued onto the torn bytes.

use mc_store::DiskStore;
use std::path::{Path, PathBuf};

const KEYS: [&str; 4] =
    ["00000000000000a1", "00000000000000b2-00000000000000c3", "00000000000000d4", "e5"];

fn payload(i: usize) -> String {
    format!("record {i}\twith a tab\nand {} more bytes", "x".repeat(7 * i))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc_store_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes the four records one save at a time; returns the log bytes and
/// the offset each record's frame ends at.
fn build(dir: &Path) -> (Vec<u8>, Vec<usize>) {
    let store = DiskStore::open(dir, 1, 2);
    let log = dir.join("eval.log");
    let mut ends = Vec::new();
    for (i, key) in KEYS.iter().enumerate() {
        store.save("eval", key, &payload(i));
        ends.push(std::fs::metadata(&log).unwrap().len() as usize);
    }
    (std::fs::read(&log).unwrap(), ends)
}

/// Replaces the store under `dir` with `log` and reports which keys a
/// fresh handle serves, failing on any payload that is not the one
/// saved.
fn served(dir: &Path, log: &[u8]) -> Vec<bool> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("eval.log"), log).unwrap();
    let store = DiskStore::open(dir, 1, 2);
    let got = KEYS
        .iter()
        .enumerate()
        .map(|(i, key)| match store.load("eval", key) {
            Some(p) => {
                assert_eq!(p, payload(i), "served a damaged payload for {key}");
                true
            }
            None => false,
        })
        .collect();
    assert_eq!(store.counters().hit_disk + store.counters().miss, KEYS.len() as u64);
    // The stats walk survives the same bytes.
    mc_store::scan(dir).unwrap();
    got
}

#[test]
fn truncation_at_every_offset_loses_only_the_torn_record() {
    let dir = scratch("truncate");
    let (log, ends) = build(&dir);
    for cut in 0..=log.len() {
        let got = served(&dir, &log[..cut]);
        let whole: Vec<bool> = ends.iter().map(|&end| end <= cut).collect();
        assert_eq!(got, whole, "cut at {cut} of {}", log.len());
        // A later process appends after the torn tail: its record is
        // served, and so is every record that was whole before the cut.
        DiskStore::open(&dir, 1, 2).save("eval", "00000000000000ff", "appended after the tail");
        let reopened = DiskStore::open(&dir, 1, 2);
        assert_eq!(
            reopened.load("eval", "00000000000000ff").as_deref(),
            Some("appended after the tail"),
            "record glued onto a tail torn at {cut}"
        );
        for (i, key) in KEYS.iter().enumerate() {
            let seen = reopened.load("eval", key);
            assert_eq!(seen.is_some(), whole[i], "cut at {cut}, then append: {key}");
            assert!(seen.is_none_or(|p| p == payload(i)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_byte_anywhere_loses_at_most_its_record() {
    let dir = scratch("flip");
    let (log, ends) = build(&dir);
    for at in 0..log.len() {
        let owner = ends.iter().position(|&end| at < end).unwrap();
        for mask in [0x01, 0x20, 0xff] {
            let mut damaged = log.clone();
            damaged[at] ^= mask;
            let got = served(&dir, &damaged);
            for (i, &hit) in got.iter().enumerate() {
                assert!(hit || i == owner, "flip {mask:#04x} at {at} lost record {i}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_handle_catches_up_past_a_torn_tail_another_writer_extends() {
    let dir = scratch("catch_up");
    let (log, ends) = build(&dir);
    // A reader opens over a log whose last record is torn mid-frame ...
    let torn = ends[2] + (ends[3] - ends[2]) / 2;
    assert_eq!(served(&dir, &log[..torn]), [true, true, true, false]);
    let reader = DiskStore::open(&dir, 1, 2);
    assert_eq!(reader.load("eval", KEYS[3]), None);
    // ... then another writer appends: the reader serves the new record.
    DiskStore::open(&dir, 1, 2).save("eval", KEYS[3], &payload(3));
    assert_eq!(reader.load("eval", KEYS[3]), Some(payload(3)));
    // The torn frame counts as damaged once a whole frame follows it.
    assert_eq!(reader.counters().skipped_corrupt, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_frame_still_landing_is_served_once_it_is_whole() {
    let dir = scratch("landing");
    let (log, ends) = build(&dir);
    for cut in ends[2] + 1..ends[3] {
        // A reader catches up while the last frame is only partly written ...
        served(&dir, &log[..cut]);
        let reader = DiskStore::open(&dir, 1, 2);
        assert_eq!(reader.load("eval", KEYS[3]), None);
        // ... and the rest of the same write lands: the reader serves it.
        let mut file = std::fs::OpenOptions::new().append(true).open(dir.join("eval.log")).unwrap();
        std::io::Write::write_all(&mut file, &log[cut..]).unwrap();
        assert_eq!(reader.load("eval", KEYS[3]), Some(payload(3)), "landed after {cut}");
        assert_eq!(reader.counters().skipped_corrupt, 0, "a landing frame is not damage");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
