//! The `mc-serve` and `mc-loadgen` binaries end to end: two jobs driven
//! by `mc-loadgen` that differ only in `--frequency`, then a scrape of
//! `GET /metrics`; and both binaries' rejection of malformed flags.
//!
//! Guards two things an in-process `Daemon` cannot: the binary enables
//! the metrics registry (so `/metrics` is not an empty `# EOF`), and the
//! second job's verifications and estimate models replay from their
//! memos.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Kills the daemon even when an assertion fails mid-test.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn scrape(addr: &str, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("daemon accepts connections");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw.split_once("\r\n\r\n").map(|(_, body)| body.to_owned()).expect("http body")
}

fn counter(metrics: &str, name: &str) -> Option<u64> {
    metrics.lines().find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn metrics_endpoint_reports_verification_memo_hits_across_frequencies() {
    let state = std::env::temp_dir().join(format!("mc-serve-binary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let mut child = Command::new(env!("CARGO_BIN_EXE_mc-serve"))
        .arg("--listen=127.0.0.1:0")
        .arg(format!("--state={}", state.display()))
        .arg("--jobs=1")
        .stderr(Stdio::piped())
        .spawn()
        .expect("mc-serve starts");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let daemon = Daemon(child);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "mc-serve exited before listening");
        if let Some(rest) = line.trim().strip_prefix("mc-serve: listening on ") {
            break rest.split_whitespace().next().unwrap().to_owned();
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));

    for frequency in ["1.6", "2.4"] {
        let status = Command::new(env!("CARGO_BIN_EXE_mc-loadgen"))
            .arg(format!("--addr={addr}"))
            .args(["--n=1", "--dup=0", "--wait", "--wait-secs=120"])
            .arg(format!("--options=--frequency={frequency}"))
            .stdout(Stdio::null())
            .status()
            .expect("mc-loadgen runs");
        assert!(status.success(), "mc-loadgen at {frequency} GHz: {status}");
    }

    let metrics = scrape(&addr, "/metrics");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&state);
    assert!(counter(&metrics, "exec_batch_points_total").is_some_and(|n| n > 0), "{metrics}");
    let hits = counter(&metrics, "simarch_verify_hit_total").unwrap_or(0);
    let misses = counter(&metrics, "simarch_verify_miss_total").unwrap_or(0);
    // Same kernel and trip count at two frequencies: the second job
    // replays every verification the first one ran.
    assert!(hits > 0 && hits >= misses, "hits {hits}, misses {misses}\n{metrics}");
    // And each program's estimate model, analyzed once per machine.
    let hits = counter(&metrics, "simarch_model_hit_total").unwrap_or(0);
    let misses = counter(&metrics, "simarch_model_miss_total").unwrap_or(0);
    assert!(hits > 0 && hits >= misses, "model hits {hits}, misses {misses}\n{metrics}");
    // And the kernel itself, generated once for both jobs.
    let generation =
        (counter(&metrics, "exec_gen_miss_total"), counter(&metrics, "exec_gen_hit_total"));
    assert_eq!(generation, (Some(1), Some(1)), "{metrics}");
}

/// Waits up to ten seconds for `child` to exit; `None` (after killing
/// it) when it is still running, e.g. serving or blocked on a peer.
fn exit_promptly(mut child: Child) -> Option<Output> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Some(child.wait_with_output().expect("child output"))
}

#[test]
fn mc_serve_rejects_a_bad_worker_count() {
    let state = std::env::temp_dir().join(format!("mc-serve-bad-jobs-{}", std::process::id()));
    for bad in ["--jobs=0", "--jobs=many"] {
        let child = Command::new(env!("CARGO_BIN_EXE_mc-serve"))
            .arg("--listen=127.0.0.1:0")
            .arg(format!("--state={}", state.display()))
            .arg(bad)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("mc-serve starts");
        let out = exit_promptly(child).unwrap_or_else(|| panic!("mc-serve {bad} kept serving"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "mc-serve {bad}: {stderr}");
        assert!(stderr.contains("--jobs"), "mc-serve {bad}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn mc_loadgen_rejects_malformed_numbers_before_connecting() {
    // A peer that never answers: a run that got past flag parsing would
    // connect here and block on the reply.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    for bad in
        ["--n=ten", "--dup=half", "--clients=-1", "--concurrency=4x", "--seed=s", "--wait-secs=1.5"]
    {
        let child = Command::new(env!("CARGO_BIN_EXE_mc-loadgen"))
            .arg(format!("--addr={addr}"))
            .arg(bad)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("mc-loadgen starts");
        let out = exit_promptly(child).unwrap_or_else(|| panic!("mc-loadgen {bad} did not exit"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "mc-loadgen {bad}: {stderr}");
        let flag = bad.split_once('=').unwrap().0;
        assert!(stderr.contains(&format!("{flag}:")), "mc-loadgen {bad}: {stderr}");
        assert!(listener.accept().is_err(), "mc-loadgen {bad} connected before failing");
    }
}
