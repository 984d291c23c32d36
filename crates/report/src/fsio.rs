//! Crash-safe file output.
//!
//! Every artifact the pipeline emits (CSV sweeps, manifests, generated
//! sources) is written through [`atomic_write`]: the contents go to a
//! hidden sibling temp file, the file is fsynced, and only then renamed
//! over the destination. A crash — or the SIGKILL the recovery smoke
//! test delivers on purpose — leaves either the complete old file or the
//! complete new file, never a torn half-write that a rerun or a diff
//! would trip over.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, fsync, rename, then fsync of the directory. The temp file
/// is named `.{name}.{pid}.{seq}.tmp`, unique per writer, so concurrent
/// writers — threads or processes, to one destination or many — never
/// touch each other's temp file: every rename succeeds and the
/// destination ends up holding exactly one writer's complete bytes.
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other(format!("not a file path: {}", path.display())))?;
    let tmp = path.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(contents)?;
        file.sync_all()
    });
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the rename itself: fsync the containing directory where the
    // platform allows opening directories (best-effort elsewhere).
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

/// [`atomic_write`] with the error rendered as a `String` mentioning the
/// destination — the form every CLI caller wants.
pub fn atomic_write_str(path: &Path, contents: &str) -> Result<(), String> {
    atomic_write(path, contents.as_bytes()).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mc-report-fsio-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn writes_new_files_and_replaces_old_ones() {
        let path = scratch("replace.csv");
        atomic_write(&path, b"first\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");
        atomic_write(&path, b"second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn leaves_no_temp_file_behind() {
        let path = scratch("clean.csv");
        atomic_write(&path, b"data\n").unwrap();
        let name = path.file_name().unwrap().to_str().unwrap();
        let leftovers = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with(&format!(".{name}")))
            .count();
        assert_eq!(leftovers, 0, "temp file survived the rename");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_writers_to_one_path_all_succeed_and_one_wins_whole() {
        let owned = scratch("contended.csv");
        let path = owned.as_path();
        let payload = |w: usize| format!("writer {w}\n").repeat(4096 + w * 512).into_bytes();
        // Release all writers at once so their temp-file lifetimes overlap.
        let start = &std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|w| {
                    s.spawn(move || {
                        let bytes = payload(w);
                        start.wait();
                        atomic_write(path, &bytes)
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap().expect("every concurrent write succeeds");
            }
        });
        let got = std::fs::read(path).unwrap();
        assert!(
            (0..8).any(|w| got == payload(w)),
            "final file is no single writer's complete contents ({} bytes)",
            got.len()
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn directoryless_paths_error_cleanly() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
    }
}
