//! Run provenance: the `RunManifest` header block embedded in emitted
//! CSVs.
//!
//! A measurement CSV that cannot answer "which tool version, which
//! machine preset, which options, which seed produced you?" is not
//! reproducible. The manifest renders as `# key: value` comment lines
//! ahead of the CSV header — [`crate::CsvTable::parse`] skips and
//! collects them, so every existing consumer keeps working.

use std::fmt::Write as _;

/// Provenance for one tool invocation. All values are caller-supplied;
/// this type never reads clocks or the environment itself, so library
/// output stays deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunManifest {
    entries: Vec<(String, String)>,
}

impl RunManifest {
    /// An empty manifest.
    pub fn new() -> Self {
        RunManifest::default()
    }

    /// Builds the conventional manifest: tool name+version, machine
    /// preset, an options fingerprint, and the RNG seed. Timestamps, if
    /// wanted, are added by the caller via [`RunManifest::set`].
    pub fn for_run(tool: &str, version: &str, machine: &str, options_hash: u64, seed: u64) -> Self {
        let mut m = RunManifest::new();
        m.set("tool", tool);
        m.set("version", version);
        m.set("machine", machine);
        m.set("options_hash", format!("{options_hash:016x}"));
        m.set("seed", seed.to_string());
        m
    }

    /// Sets a key (replacing an existing entry of the same name; keys
    /// keep insertion order). Newlines in values are replaced by spaces
    /// so one entry stays one comment line.
    pub fn set(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        let value = value.into().replace(['\n', '\r'], " ");
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => entry.1 = value,
            None => self.entries.push((key.to_owned(), value)),
        }
        self
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Key/value pairs in insertion order.
    pub fn entries(&self) -> &[(String, String)] {
        &self.entries
    }

    /// True when no entries were set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the `# key: value` block, one trailing newline, ready to
    /// prepend to a CSV document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.entries {
            let _ = writeln!(out, "# {key}: {value}");
        }
        out
    }

    /// Reconstructs a manifest from the comment lines a
    /// [`crate::CsvTable`] collected. Lines without `: ` are ignored
    /// (free-form comments).
    pub fn from_comments<S: AsRef<str>>(comments: &[S]) -> Self {
        let mut m = RunManifest::new();
        for line in comments {
            if let Some((key, value)) = line.as_ref().split_once(':') {
                let key = key.trim();
                if !key.is_empty() {
                    m.set(key, value.trim());
                }
            }
        }
        m
    }
}

/// FNV-1a 64-bit hash — the options fingerprint. Stable across runs and
/// platforms, dependency-free, and good enough to distinguish configs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    Fnv64::new().bytes(bytes).finish()
}

/// Incremental FNV-1a 64-bit: a key built from explicit fields fed in a
/// fixed order, with no intermediate string. Feeding the concatenation
/// of byte slices equals [`fnv1a64`] over the concatenated bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes in.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds one integer in (little-endian bytes, so the key is the same
    /// on every platform).
    pub fn u64(self, value: u64) -> Self {
        self.bytes(&value.to_le_bytes())
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsvTable;

    #[test]
    fn render_and_reparse_through_csv() {
        let mut manifest = RunManifest::for_run("microlauncher", "0.1.0", "core2-preset", 7, 42);
        manifest.set("timestamp", "2012-09-10T00:00:00Z");
        let doc = format!("{}kernel,cycles\nmovaps_u3,3.25\n", manifest.render());
        let table = CsvTable::parse(&doc).unwrap();
        assert_eq!(table.rows.len(), 1);
        let back = RunManifest::from_comments(&table.comments);
        assert_eq!(back.get("tool"), Some("microlauncher"));
        assert_eq!(back.get("options_hash"), Some("0000000000000007"));
        assert_eq!(back.get("seed"), Some("42"));
        assert_eq!(back.get("timestamp"), Some("2012-09-10T00:00:00Z"));
    }

    #[test]
    fn set_replaces_and_sanitizes() {
        let mut m = RunManifest::new();
        m.set("k", "one");
        m.set("k", "two\nlines");
        assert_eq!(m.entries().len(), 1);
        assert_eq!(m.get("k"), Some("two lines"));
        assert_eq!(m.render(), "# k: two lines\n");
    }

    #[test]
    fn freeform_comments_are_ignored() {
        let m = RunManifest::from_comments(&["not a manifest line", "key: value"]);
        assert_eq!(m.entries().len(), 1);
        assert_eq!(m.get("key"), Some("value"));
    }

    #[test]
    fn empty_manifest_renders_nothing() {
        assert!(RunManifest::new().is_empty());
        assert_eq!(RunManifest::new().render(), "");
    }

    #[test]
    fn fnv1a64_is_stable() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"config-a"), fnv1a64(b"config-b"));
    }

    #[test]
    fn incremental_fnv_matches_one_shot() {
        assert_eq!(Fnv64::new().bytes(b"conf").bytes(b"ig-a").finish(), fnv1a64(b"config-a"));
        assert_eq!(Fnv64::new().u64(7).finish(), fnv1a64(&7u64.to_le_bytes()));
    }
}
