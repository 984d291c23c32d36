//! Crash points of the job journal, in the shape of the store's
//! (`crates/store/tests/crash_points.rs`): a small journal truncated at
//! every byte offset and with every byte flipped. Replaying it must never
//! panic and never replay a damaged job, and at most the torn or damaged
//! record may be lost. A record appended after a torn tail must be
//! replayed, not lost with the torn bytes.

use mc_serve::{AcceptedJob, JobJournal};
use std::path::{Path, PathBuf};

const JOBS: usize = 4;

fn job(i: usize) -> AcceptedJob {
    AcceptedJob {
        id: format!("{i:016x}-{:016x}", i * 7),
        client: format!("client-{i}"),
        name: "stream".to_owned(),
        options_args: vec![format!("--repetitions={}", i + 1)],
        xml: format!("<kernel name=\"k{i}\">\n{}</kernel>", "\t<x/>\n".repeat(i)),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc_serve_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Journals the admissions one append at a time; returns the journal
/// bytes and the offset each record ends at.
fn build(dir: &Path) -> (Vec<u8>, Vec<usize>) {
    let journal = JobJournal::open(dir);
    let mut ends = Vec::new();
    for i in 0..JOBS {
        journal.accepted(&job(i)).unwrap();
        ends.push(std::fs::metadata(journal.path()).unwrap().len() as usize);
    }
    (std::fs::read(journal.path()).unwrap(), ends)
}

/// Replaces the journal in `dir` with `bytes` and reports which jobs a
/// replay recovers, failing on any job that is not one admitted.
fn replayed(dir: &Path, bytes: &[u8]) -> Vec<bool> {
    let journal = JobJournal::open(dir);
    std::fs::write(journal.path(), bytes).unwrap();
    let replay = journal.replay();
    assert!(replay.finished.is_empty(), "no outcome was journaled");
    for got in &replay.pending {
        assert!((0..JOBS).any(|i| *got == job(i)), "replayed a damaged job: {got:?}");
    }
    (0..JOBS).map(|i| replay.pending.contains(&job(i))).collect()
}

#[test]
fn truncation_at_every_offset_loses_only_the_torn_record() {
    let dir = scratch("truncate");
    let (journal, ends) = build(&dir);
    for cut in 0..=journal.len() {
        let whole: Vec<bool> = ends.iter().map(|&end| end <= cut).collect();
        assert_eq!(replayed(&dir, &journal[..cut]), whole, "cut at {cut} of {}", journal.len());
        // A later process journals after the torn tail: its admission is
        // replayed, and so is every record that was whole before the cut.
        let reopened = JobJournal::open(&dir);
        reopened.accepted(&job(JOBS)).unwrap();
        let replay = reopened.replay();
        let mut expected: Vec<AcceptedJob> = (0..JOBS).filter(|&i| whole[i]).map(job).collect();
        expected.push(job(JOBS));
        assert_eq!(replay.pending, expected, "cut at {cut}, then append");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_byte_anywhere_loses_at_most_its_record() {
    let dir = scratch("flip");
    let (journal, ends) = build(&dir);
    for at in 0..journal.len() {
        let owner = ends.iter().position(|&end| at < end).unwrap();
        for mask in [0x01, 0x20, 0xff] {
            let mut damaged = journal.clone();
            damaged[at] ^= mask;
            for (i, kept) in replayed(&dir, &damaged).into_iter().enumerate() {
                assert!(kept || i == owner, "flip {mask:#04x} at {at} lost record {i}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
