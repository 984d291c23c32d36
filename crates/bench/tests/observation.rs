//! Observation stays observation: `--metrics` turns the metrics registry
//! on and prints its tables to stderr, and nothing else. It installs no
//! trace sink of its own, so a `--trace` stream beside it carries exactly
//! the events the stream carries alone, and the product output on stdout
//! does not move.

use mc_trace::TraceEvent;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Output;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc_bench_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn reproduce(extra: &[String]) -> Output {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--quick", "--jobs=1"])
        .args(extra)
        .output()
        .expect("spawn reproduce");
    assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// How many events of each name and field-key list a JSONL trace holds.
fn event_shapes(path: &Path) -> BTreeMap<(String, Vec<String>), usize> {
    let raw = std::fs::read_to_string(path).expect("trace written");
    let mut shapes = BTreeMap::new();
    for line in raw.lines() {
        let event = TraceEvent::from_json(line).expect("valid JSONL line");
        let keys = event.fields.iter().map(|(k, _)| k.clone()).collect();
        *shapes.entry((event.name, keys)).or_insert(0) += 1;
    }
    shapes
}

#[test]
fn metrics_leave_the_trace_stream_and_stdout_unchanged() {
    let dir = scratch("metrics");
    let (alone, beside) = (dir.join("alone.jsonl"), dir.join("beside.jsonl"));
    let plain = reproduce(&[]);
    let traced = reproduce(&[format!("--trace={}", alone.display())]);
    let both = reproduce(&["--metrics".into(), format!("--trace={}", beside.display())]);

    let shapes = event_shapes(&alone);
    assert!(shapes.keys().any(|(name, _)| name == "launcher.repetition"), "{shapes:?}");
    assert_eq!(event_shapes(&beside), shapes, "--metrics changed the --trace stream");

    assert_eq!(traced.stdout, plain.stdout, "--trace moved stdout");
    assert_eq!(both.stdout, plain.stdout, "--metrics moved stdout");
    let stderr = String::from_utf8_lossy(&both.stderr);
    assert!(stderr.contains("── span summary ──"), "{stderr}");
    assert!(stderr.contains("launcher.run"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
