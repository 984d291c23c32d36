//! Live sweep monitoring: the TTY status line and the JSONL stream.
//!
//! Both are [`mc_trace::ProgressSink`]s notified by mc-exec's pool, with
//! snapshots read from the metrics registry. The TTY sink repaints one
//! stderr line (throttled, erased on completion) with throughput, ETA,
//! cache hit rate, and failure counts. The JSONL sink writes a stream a
//! machine can tail:
//!
//! * `batch` / `progress` / `end` records are **deterministic** — the
//!   sink does its own monotonic accounting under its lock, so the bytes
//!   are identical whether the pool ran 1 worker or 8;
//! * `heartbeat` records are time-gated and carry the volatile stats
//!   (timestamp, throughput, ETA, cache hit rate); consumers that diff
//!   streams drop them first.

use mc_trace::{ProgressEvent, ProgressSink, ProgressSnapshot};
use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Formats a whole-second duration as `1h02m03s` / `2m03s` / `42s`.
fn fmt_eta(seconds: f64) -> String {
    let s = seconds.round().max(0.0) as u64;
    if s >= 3600 {
        format!("{}h{:02}m{:02}s", s / 3600, (s % 3600) / 60, s % 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// The single-line TTY progress display.
pub struct TtyProgress {
    state: Mutex<TtyState>,
}

struct TtyState {
    last_paint: Option<Instant>,
    painted: bool,
}

impl TtyProgress {
    /// A fresh display; nothing is painted until the first event.
    pub fn new() -> TtyProgress {
        TtyProgress { state: Mutex::new(TtyState { last_paint: None, painted: false }) }
    }

    /// Erases the status line (no-op if nothing was painted).
    pub fn clear(&self) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.painted {
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\r\x1b[K");
            let _ = err.flush();
            state.painted = false;
        }
    }

    fn paint(&self, snapshot: &ProgressSnapshot, force: bool) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let now = Instant::now();
        if !force {
            if let Some(last) = state.last_paint {
                if now.duration_since(last) < Duration::from_millis(100) {
                    return;
                }
            }
        }
        state.last_paint = Some(now);
        state.painted = true;
        let mut line = format!(
            "\r\x1b[K[{}/{}] {:.0}%",
            snapshot.done,
            snapshot.total,
            if snapshot.total > 0 {
                snapshot.done as f64 / snapshot.total as f64 * 100.0
            } else {
                0.0
            }
        );
        let rate = snapshot.throughput();
        if rate > 0.0 {
            line.push_str(&format!(" {rate:.0}/s"));
        }
        if let Some(eta) = snapshot.eta_seconds() {
            line.push_str(&format!(" eta {}", fmt_eta(eta)));
        }
        if let Some(hit_rate) = snapshot.cache_hit_rate() {
            line.push_str(&format!(" cache {:.0}%", hit_rate * 100.0));
        }
        if snapshot.failed > 0 {
            line.push_str(&format!(" failed {}", snapshot.failed));
        }
        if snapshot.retries > 0 {
            line.push_str(&format!(" retries {}", snapshot.retries));
        }
        if snapshot.samples_saved > 0 {
            line.push_str(&format!(" saved {}", snapshot.samples_saved));
        }
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(line.as_bytes());
        let _ = err.flush();
    }
}

impl Default for TtyProgress {
    fn default() -> Self {
        TtyProgress::new()
    }
}

impl ProgressSink for TtyProgress {
    fn on_progress(&self, event: ProgressEvent, snapshot: &ProgressSnapshot) {
        self.paint(snapshot, matches!(event, ProgressEvent::BatchFinished));
    }
}

/// The JSONL progress stream.
pub struct JsonlProgress {
    state: Mutex<JsonlState>,
}

struct JsonlState {
    out: Box<dyn Write + Send>,
    /// Monotonic accounting owned by the sink — never read from the racy
    /// snapshot — so `batch`/`progress`/`end` lines are byte-stable
    /// across worker counts.
    total: u64,
    done: u64,
    start: Instant,
    last_heartbeat: Instant,
    interval: Duration,
}

impl JsonlProgress {
    /// Streams onto `out`, heartbeating at most once per second.
    pub fn new(out: impl Write + Send + 'static) -> JsonlProgress {
        JsonlProgress::with_interval(out, Duration::from_secs(1))
    }

    /// Streams onto `out` with a custom heartbeat interval.
    pub fn with_interval(out: impl Write + Send + 'static, interval: Duration) -> JsonlProgress {
        let now = Instant::now();
        JsonlProgress {
            state: Mutex::new(JsonlState {
                out: Box::new(out),
                total: 0,
                done: 0,
                start: now,
                last_heartbeat: now,
                interval,
            }),
        }
    }
}

impl ProgressSink for JsonlProgress {
    fn on_progress(&self, event: ProgressEvent, snapshot: &ProgressSnapshot) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let state = &mut *state;
        match event {
            ProgressEvent::BatchStarted { points } => {
                state.total += points;
                let line = format!("{{\"kind\":\"batch\",\"total\":{}}}\n", state.total);
                let _ = state.out.write_all(line.as_bytes());
            }
            ProgressEvent::PointDone => {
                state.done += 1;
                let line = format!(
                    "{{\"kind\":\"progress\",\"done\":{},\"total\":{}}}\n",
                    state.done, state.total
                );
                let _ = state.out.write_all(line.as_bytes());
                let now = Instant::now();
                if now.duration_since(state.last_heartbeat) >= state.interval {
                    state.last_heartbeat = now;
                    let line = format!(
                        "{{\"kind\":\"heartbeat\",\"ts_us\":{},\"done\":{},\"total\":{},\
                         \"throughput\":{:.3},\"eta_seconds\":{},\"cache_hit_rate\":{},\
                         \"samples_saved\":{}}}\n",
                        state.start.elapsed().as_micros(),
                        state.done,
                        state.total,
                        snapshot.throughput(),
                        snapshot
                            .eta_seconds()
                            .map_or_else(|| "null".to_owned(), |v| format!("{v:.3}")),
                        snapshot
                            .cache_hit_rate()
                            .map_or_else(|| "null".to_owned(), |v| format!("{v:.3}")),
                        snapshot.samples_saved,
                    );
                    let _ = state.out.write_all(line.as_bytes());
                }
            }
            ProgressEvent::BatchFinished => {
                // `failed` and `retries` are deterministic at the barrier:
                // every point has completed, so the racy snapshot has
                // converged to the true totals.
                let line = format!(
                    "{{\"kind\":\"end\",\"done\":{},\"total\":{},\"failed\":{},\"retries\":{}}}\n",
                    state.done, state.total, snapshot.failed, snapshot.retries
                );
                let _ = state.out.write_all(line.as_bytes());
            }
        }
        let _ = state.out.flush();
    }
}

/// Strips the time-gated `heartbeat` records from a JSONL progress
/// stream, leaving only the deterministic lines — the normalization a
/// byte-comparison of two streams applies first.
pub fn strip_heartbeats(stream: &str) -> String {
    stream
        .lines()
        .filter(|line| !line.starts_with("{\"kind\":\"heartbeat\""))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` handle the test can read back after the sink takes
    /// ownership.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn drive(sink: &dyn ProgressSink, points: u64) {
        let snap = ProgressSnapshot::default();
        sink.on_progress(ProgressEvent::BatchStarted { points }, &snap);
        for _ in 0..points {
            sink.on_progress(ProgressEvent::PointDone, &snap);
        }
        sink.on_progress(ProgressEvent::BatchFinished, &snap);
    }

    #[test]
    fn jsonl_stream_is_deterministic_without_heartbeats() {
        let runs: Vec<String> = (0..2)
            .map(|_| {
                let buf = SharedBuf::default();
                let sink = JsonlProgress::with_interval(buf.clone(), Duration::from_secs(3600));
                drive(&sink, 3);
                buf.text()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(
            runs[0],
            "{\"kind\":\"batch\",\"total\":3}\n\
             {\"kind\":\"progress\",\"done\":1,\"total\":3}\n\
             {\"kind\":\"progress\",\"done\":2,\"total\":3}\n\
             {\"kind\":\"progress\",\"done\":3,\"total\":3}\n\
             {\"kind\":\"end\",\"done\":3,\"total\":3,\"failed\":0,\"retries\":0}\n"
        );
    }

    #[test]
    fn zero_interval_heartbeats_are_stripped_clean() {
        let buf = SharedBuf::default();
        let sink = JsonlProgress::with_interval(buf.clone(), Duration::ZERO);
        drive(&sink, 2);
        let raw = buf.text();
        assert!(raw.contains("\"kind\":\"heartbeat\""), "{raw}");
        let stripped = strip_heartbeats(&raw);
        assert!(!stripped.contains("heartbeat"), "{stripped}");
        assert_eq!(stripped.lines().count(), 4, "{stripped}");
        // Every line (heartbeats included) is valid JSON.
        for line in raw.lines() {
            mc_report::Json::parse(line).expect(line);
        }
    }

    #[test]
    fn multiple_batches_accumulate_totals() {
        let buf = SharedBuf::default();
        let sink = JsonlProgress::with_interval(buf.clone(), Duration::from_secs(3600));
        drive(&sink, 1);
        drive(&sink, 2);
        let text = buf.text();
        assert!(text.contains("{\"kind\":\"batch\",\"total\":3}"), "{text}");
        assert!(text.contains("{\"kind\":\"progress\",\"done\":3,\"total\":3}"), "{text}");
    }

    #[test]
    fn eta_formatting_covers_the_ranges() {
        assert_eq!(fmt_eta(42.4), "42s");
        assert_eq!(fmt_eta(123.0), "2m03s");
        assert_eq!(fmt_eta(3723.0), "1h02m03s");
    }
}
