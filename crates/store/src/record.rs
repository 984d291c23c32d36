//! The record frame: one self-validating entry in a namespace log.
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
//! A torn or bit-flipped frame fails the checksum, a mis-filed one its key
//! echo, and one written under another payload schema or simulator
//! calibration is stale. Decoding never panics and never returns a wrong
//! payload: every failure is a [`RecordIssue`], counted as a miss.

use mc_report::fnv1a64;

/// Leading bytes of every frame.
pub const MAGIC: [u8; 4] = [0xff, b'M', b'C', b'R'];

/// Current record format version.
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of the fixed-width frame header.
pub const HEADER_LEN: usize = 40;

/// Why a record on disk was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordIssue {
    /// Torn, checksum-failed, mis-keyed, or otherwise untrustworthy bytes.
    Corrupt(String),
    /// A frame in a format version this build does not speak.
    Version(u32),
    /// A frame written under another schema or calibration.
    Stale { schema: u64, calib: u64 },
}

/// What the reader expects a record to match: the current build's
/// payload schema and simulator calibration fingerprints, and the
/// namespace (`eval`, `gen`) and key it looked up.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
