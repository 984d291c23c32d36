//! Crash-safe file output: atomic replacement and the append-only log.
//!
//! [`replace`] streams a file's new contents to a hidden sibling temp file,
//! fsyncs it and renames it over the destination, so a crash leaves the
//! complete old or new file; [`atomic_write`] is its caller for contents.
//!
//! Every file that grows by appends — the store's namespace logs, the
//! daemon journal, the registry index and the store ledger — is a log of
//! self-validating frames, each appended as one `O_APPEND` write:
//!
//! ```text
//! offset  size  field (little-endian)
//!      0     4  magic    ff 4d 43 52: 0xff never occurs in UTF-8, so no
//!                        payload can fake a frame start
//!      4     4  version  outside the checksum: an unknown version is
//!                        reported and skipped, never parsed
//!      8     8  sum      FNV-1a over every byte from offset 16 on
//!     16     4  len      payload bytes
//!     20     4  key_len  key echo bytes
//!     24     8  schema   payload schema fingerprint
//!     32     8  calib    simulator calibration fingerprint
//!     40        key echo `<kind>:<key>`, then the payload
//! ```
//!
//! [`walk`] resyncs on the next whole frame past damaged bytes and stops
//! before a torn tail. A torn or bit-flipped frame fails the checksum, a
//! mis-filed one its key echo, and one of another schema or calibration
//! is stale: nothing damaged is ever served. The small logs (journal,
//! index, ledger) are frames with schema and calibration 0, written with
//! [`append_frame`] and read with [`read_log`].

use crate::fnv1a64;
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Leading bytes of every frame.
pub const MAGIC: [u8; 4] = [0xff, b'M', b'C', b'R'];

/// Current frame format version.
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of the fixed-width frame header.
pub const HEADER_LEN: usize = 40;

/// Bytes a log walk reads at a time.
const CHUNK: usize = 64 * 1024;

/// Why a frame on disk was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordIssue {
    /// Torn, checksum-failed, mis-keyed, or otherwise untrustworthy bytes.
    Corrupt(String),
    /// A frame in a format version this build does not speak.
    Version(u32),
    /// A frame written under another schema or calibration.
    Stale { schema: u64, calib: u64 },
}

/// What the reader expects a frame to match: the current build's payload
/// schema and simulator calibration fingerprints, and the kind (a store
/// namespace such as `eval`) and key it looked up.
#[derive(Debug, Clone, Copy)]
pub struct Expect<'a> {
    pub schema: u64,
    pub calib: u64,
    pub kind: &'a str,
    pub key: &'a str,
}

/// A frame header, field for field as in the module table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub version: u32,
    pub sum: u64,
    pub len: u32,
    pub key_len: u32,
    pub schema: u64,
    pub calib: u64,
}

impl Header {
    /// The header at the front of `bytes`, if they start with a whole one.
    pub fn parse(bytes: &[u8]) -> Option<Header> {
        let field = |at: usize, n: usize| {
            bytes[at..at + n].iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b))
        };
        (bytes.len() >= HEADER_LEN && bytes[..4] == MAGIC).then(|| Header {
            version: field(4, 4) as u32,
            sum: field(8, 8),
            len: field(16, 4) as u32,
            key_len: field(20, 4) as u32,
            schema: field(24, 8),
            calib: field(32, 8),
        })
    }

    /// Bytes of the whole frame: header, key echo and payload.
    pub fn frame_len(&self) -> u64 {
        HEADER_LEN as u64 + u64::from(self.key_len) + u64::from(self.len)
    }

    /// True when `frame` is exactly this header's frame and sums right.
    pub fn sums(&self, frame: &[u8]) -> bool {
        frame.len() as u64 == self.frame_len() && fnv1a64(&frame[16..]) == self.sum
    }

    /// The key echo of a frame this header [`sums`](Header::sums).
    pub fn echo<'f>(&self, frame: &'f [u8]) -> &'f [u8] {
        &frame[HEADER_LEN..HEADER_LEN + self.key_len as usize]
    }
}

/// Encodes a record as one frame, ready for a single append.
pub fn encode(schema: u64, calib: u64, kind: &str, key: &str, payload: &str) -> Vec<u8> {
    let key_len = (kind.len() + 1 + key.len()) as u32;
    let parts: [&[u8]; 11] = [
        &MAGIC,
        &FORMAT_VERSION.to_le_bytes(),
        &[0; 8],
        &(payload.len() as u32).to_le_bytes(),
        &key_len.to_le_bytes(),
        &schema.to_le_bytes(),
        &calib.to_le_bytes(),
        kind.as_bytes(),
        b":",
        key.as_bytes(),
        payload.as_bytes(),
    ];
    let mut frame = parts.concat();
    let sum = fnv1a64(&frame[16..]);
    frame[8..16].copy_from_slice(&sum.to_le_bytes());
    frame
}

/// Validates a frame against `expect` and returns its payload.
pub fn decode(frame: &[u8], expect: &Expect<'_>) -> Result<String, RecordIssue> {
    let corrupt = |why: String| Err(RecordIssue::Corrupt(why));
    let Some(header) = Header::parse(frame) else { return corrupt("no frame header".into()) };
    if header.version != FORMAT_VERSION {
        return Err(RecordIssue::Version(header.version));
    }
    if !header.sums(frame) {
        return corrupt(format!("torn or checksum-failed frame ({} bytes)", frame.len()));
    }
    let echo = header.echo(frame);
    if echo.strip_prefix(expect.kind.as_bytes()).and_then(|rest| rest.strip_prefix(b":"))
        != Some(expect.key.as_bytes())
    {
        return corrupt(format!("key mismatch: record says `{}`", String::from_utf8_lossy(echo)));
    }
    if (header.schema, header.calib) != (expect.schema, expect.calib) {
        return Err(RecordIssue::Stale { schema: header.schema, calib: header.calib });
    }
    match std::str::from_utf8(&frame[HEADER_LEN + echo.len()..]) {
        Ok(payload) => Ok(payload.to_owned()),
        Err(_) => corrupt("payload not UTF-8".into()),
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
/// every whole frame (its header and bytes) and, with `None`, every
/// damaged span between them. Returns `to`, or the first frame after the
/// last whole one that runs past `to` — a torn tail or a write still
/// landing. Reads 64 KiB at a time, never the whole log.
pub fn walk(
    file: &File,
    from: u64,
    to: u64,
    mut visit: impl FnMut(u64, u64, Option<(Header, &[u8])>),
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
                Some(frame) if h.sums(frame) => whole = Some(h),
                Some(_) => {}
                None => _ = torn.get_or_insert(at),
            }
        }
        let Some(h) = whole else {
            damaged.get_or_insert(at);
            at += 1;
            continue;
        };
        if let Some(start) = damaged.take() {
            visit(start, at - start, None);
        }
        torn = None;
        let frame = window.get(at, h.frame_len() as usize)?.expect("the frame was just read");
        visit(at, h.frame_len(), Some((h, frame)));
        at += h.frame_len();
    }
    let end = torn.unwrap_or(to);
    if let Some(start) = damaged.filter(|&start| start < end) {
        visit(start, end - start, None);
    }
    Ok(end)
}

/// Appends `frame` to the log at `path` (created, with its directory, if
/// missing) as one `O_APPEND` write. The caller picks the durability.
pub fn append_frame(path: &Path, frame: &[u8]) -> std::io::Result<File> {
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new("")))?;
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(frame)?;
    Ok(file)
}

/// The payloads of the whole `kind` records of the small log at `path`,
/// in order. Damaged spans, a torn tail, frames of another kind or format
/// version and payloads that are not UTF-8 are skipped, never fatal; a
/// missing file reads as empty.
pub fn read_log(path: &Path, kind: &str) -> std::io::Result<Vec<String>> {
    let file = match File::open(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        file => file?,
    };
    let mut payloads = Vec::new();
    walk(&file, 0, file.metadata()?.len(), |_, _, frame| {
        let Some((h, frame)) = frame.filter(|(h, _)| h.version == FORMAT_VERSION) else { return };
        let (echo, payload) = frame[HEADER_LEN..].split_at(h.key_len as usize);
        if echo.strip_prefix(kind.as_bytes()).is_some_and(|k| k.starts_with(b":")) {
            payloads.extend(std::str::from_utf8(payload).map(str::to_owned));
        }
    })?;
    Ok(payloads)
}

/// Replaces the file at `path` atomically with what `write` streams out:
/// temp file in the same directory, fsync, rename, then fsync of the
/// directory. The temp file, `.{name}.{pid}.{seq}.tmp`, is unique per
/// writer, so concurrent writers — threads or processes — never touch each
/// other's: every rename succeeds and the destination holds exactly one
/// writer's complete bytes. On an error `path` is left as it was.
pub fn replace(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other(format!("not a file path: {}", path.display())))?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    let written = File::create(&tmp).and_then(|file| {
        let mut out = BufWriter::new(file);
        write(&mut out)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()
    });
    written
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| _ = std::fs::remove_file(&tmp))?;
    // Persist the rename itself (best-effort where directories cannot be
    // opened).
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let _ = File::open(dir).and_then(|dir| dir.sync_all());
    Ok(())
}

/// Writes `contents` to `path` atomically (see [`replace`]).
pub fn atomic_write(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    replace(path, |out| out.write_all(contents))
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
    fn a_failed_replace_leaves_the_old_file_and_no_temp_file() {
        let path = scratch("failed.log");
        atomic_write(&path, b"old\n").unwrap();
        let failed = replace(&path, |out| {
            out.write_all(b"half of the new")?;
            Err(std::io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old\n");
        let name = path.file_name().unwrap().to_str().unwrap();
        let leftovers = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with(&format!(".{name}")))
            .count();
        assert_eq!(leftovers, 0, "temp file survived the failure");
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

    fn expect<'a>(key: &'a str) -> Expect<'a> {
        Expect { schema: 0xabc, calib: 0xdef, kind: "eval", key }
    }

    fn sample() -> Vec<u8> {
        encode(0xabc, 0xdef, "eval", "k1", "the payload\nwith a second line")
    }

    #[test]
    fn round_trips() {
        let payload = decode(&sample(), &expect("k1")).unwrap();
        assert_eq!(payload, "the payload\nwith a second line");
    }

    #[test]
    fn frame_bytes_are_pinned() {
        let frame = encode(0xabc, 0xdef, "eval", "k1", "p");
        assert_eq!(frame.len(), HEADER_LEN + "eval:k1".len() + 1);
        assert_eq!(&frame[..8], &[0xff, b'M', b'C', b'R', 2, 0, 0, 0]);
        assert_eq!(&frame[16..24], &[1, 0, 0, 0, 7, 0, 0, 0]);
        assert_eq!(&frame[HEADER_LEN..], b"eval:k1p");
        let header = Header::parse(&frame).unwrap();
        assert_eq!(
            (header.schema, header.calib, header.sum),
            (0xabc, 0xdef, fnv1a64(&frame[16..]))
        );
    }

    #[test]
    fn truncation_anywhere_is_corrupt_never_a_hit() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut], &expect("k1"));
            assert!(matches!(r, Err(RecordIssue::Corrupt(_))), "cut at {cut}: {r:?}");
        }
    }

    #[test]
    fn every_byte_flip_is_refused() {
        let bytes = sample();
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x20;
            assert!(decode(&flipped, &expect("k1")).is_err(), "served a flip at byte {at}");
        }
    }

    #[test]
    fn future_versions_are_reported_not_parsed() {
        let mut bytes = encode(0xabc, 0xdef, "eval", "k1", "p");
        bytes[4] = 9;
        assert_eq!(decode(&bytes, &expect("k1")), Err(RecordIssue::Version(9)));
    }

    #[test]
    fn schema_and_calibration_changes_invalidate() {
        let bytes = sample();
        let stale_schema = Expect { schema: 0x111, ..expect("k1") };
        assert!(matches!(decode(&bytes, &stale_schema), Err(RecordIssue::Stale { .. })));
        let stale_calib = Expect { calib: 0x222, ..expect("k1") };
        assert!(matches!(decode(&bytes, &stale_calib), Err(RecordIssue::Stale { .. })));
    }

    #[test]
    fn misfiled_records_are_corrupt_not_served() {
        let bytes = sample();
        assert!(matches!(decode(&bytes, &expect("other")), Err(RecordIssue::Corrupt(_))));
        assert!(matches!(decode(&bytes, &expect("k")), Err(RecordIssue::Corrupt(_))));
        let wrong_kind = Expect { kind: "gen", ..expect("k1") };
        assert!(matches!(decode(&bytes, &wrong_kind), Err(RecordIssue::Corrupt(_))));
    }

    #[test]
    fn garbage_is_corrupt_not_a_panic() {
        let mut huge = encode(0xabc, 0xdef, "eval", "k1", "p");
        huge[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        for garbage in [&b""[..], b"\n", b"not a record\npayload", &MAGIC, b"\xff\xfe\n\xff", &huge]
        {
            assert!(decode(garbage, &expect("k1")).is_err());
        }
    }

    #[test]
    fn small_logs_read_back_their_own_whole_records() {
        let path = scratch("small.log");
        let _ = std::fs::remove_file(&path);
        assert!(read_log(&path, "note").unwrap().is_empty(), "a missing log is empty");
        append_frame(&path, &encode(0, 0, "note", "a", "first")).unwrap();
        // A foreign kind, a future version and a stray byte are skipped.
        append_frame(&path, &encode(0, 0, "other", "b", "foreign")).unwrap();
        let mut future = encode(0, 0, "note", "c", "future");
        future[4] = 9;
        append_frame(&path, &future).unwrap();
        append_frame(&path, b"\xff").unwrap();
        append_frame(&path, &encode(0, 0, "note", "d", "second")).unwrap();
        // A torn tail is skipped until a whole record follows it.
        let torn = encode(0, 0, "note", "e", "torn");
        append_frame(&path, &torn[..torn.len() - 1]).unwrap();
        assert_eq!(read_log(&path, "note").unwrap(), ["first", "second"]);
        append_frame(&path, &encode(0, 0, "note", "f", "third")).unwrap();
        assert_eq!(read_log(&path, "note").unwrap(), ["first", "second", "third"]);
        assert!(read_log(&path, "not").unwrap().is_empty(), "kinds match whole");
        assert!(read_log(path.parent().unwrap(), "note").is_err(), "other errors surface");
        replace(&path, |out| out.write_all(&encode(0, 0, "note", "g", "compacted"))).unwrap();
        assert_eq!(read_log(&path, "note").unwrap(), ["compacted"]);
        std::fs::remove_file(&path).unwrap();
    }
}
