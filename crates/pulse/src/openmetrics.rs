//! OpenMetrics text exposition and the `--metrics-listen` endpoint.
//!
//! [`render`] turns an [`mc_trace::MetricsSnapshot`] into the OpenMetrics
//! text format: counters become `<name>_total`, gauges stay gauges, and
//! histograms — which the registry keeps as p50/p95 digests, not buckets —
//! are exposed as summaries (`_count`, `_sum`, plus the two quantiles).
//! Span aggregates are summaries too, of wall time in microseconds, named
//! `<span>_us` (`launcher.run` → `launcher_run_us_count`). Metric names
//! are sanitized to the `[a-zA-Z0-9_:]` alphabet (`exec.batch.points` →
//! `exec_batch_points`).
//!
//! [`MetricsServer`] is the smallest HTTP server that can satisfy a
//! scraper: one `std::net::TcpListener`, one service thread, one request
//! per connection, every path answered with the current exposition. No
//! external dependencies, no async runtime — a scrape during a sweep costs
//! one snapshot of the metrics registry.

use crate::http::{read_request, respond, HttpLimits};
use mc_trace::{HistogramStats, MetricsSnapshot, ProgressSnapshot};
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Maps a dotted metric name onto the OpenMetrics alphabet.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn write_histogram(out: &mut String, name: &str, h: &HistogramStats) {
    let _ = writeln!(out, "# TYPE {name} summary");
    let _ = writeln!(out, "{name}_count {}", h.count);
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", h.p50);
    let _ = writeln!(out, "{name}{{quantile=\"0.95\"}} {}", h.p95);
}

/// Renders a metrics snapshot (plus live progress, when a sweep is
/// running) as OpenMetrics text, `# EOF` terminator included.
pub fn render(snapshot: &MetricsSnapshot, progress: Option<&ProgressSnapshot>) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name}_total {value}");
    }
    for (name, value) in &snapshot.gauges {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, h) in &snapshot.histograms {
        write_histogram(&mut out, &sanitize(name), h);
    }
    for (name, h) in &snapshot.spans {
        write_histogram(&mut out, &format!("{}_us", sanitize(name)), h);
    }
    if let Some(p) = progress {
        let gauges: &[(&str, f64)] = &[
            ("microtools_progress_total_points", p.total as f64),
            ("microtools_progress_done_points", p.done as f64),
            ("microtools_progress_failed_points", p.failed as f64),
            ("microtools_progress_retries", p.retries as f64),
            ("microtools_progress_samples_saved", p.samples_saved as f64),
            ("microtools_progress_throughput_points_per_second", p.throughput()),
            ("microtools_progress_cache_hit_rate", p.cache_hit_rate().unwrap_or(0.0)),
            ("microtools_progress_eta_seconds", p.eta_seconds().unwrap_or(0.0)),
        ];
        for (name, value) in gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
    }
    out.push_str("# EOF\n");
    out
}

/// A blocking OpenMetrics endpoint on a background thread.
///
/// The service thread is detached: it lives until the process exits,
/// which is exactly the lifetime a scrape target needs. Binding port 0
/// picks a free port — [`MetricsServer::local_addr`] reports the real one.
pub struct MetricsServer {
    local: SocketAddr,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464` or `:9464`) and starts serving.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        // A bare `:port` spelling means "all interfaces".
        let addr = if let Some(port) = addr.strip_prefix(':') {
            format!("0.0.0.0:{port}")
        } else {
            addr.to_owned()
        };
        let listener = TcpListener::bind(&addr)?;
        let local = listener.local_addr()?;
        std::thread::Builder::new()
            .name("mc-pulse-metrics".to_owned())
            .spawn(move || serve(&listener))?;
        Ok(MetricsServer { local })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }
}

fn serve(listener: &TcpListener) {
    // A scrape is tiny: a stalled, slow-loris, or oversized client is
    // dropped by the shared limits instead of wedging the service thread.
    let limits = HttpLimits {
        max_body_bytes: 4 * 1024,
        read_deadline: std::time::Duration::from_secs(2),
        write_timeout: std::time::Duration::from_secs(2),
        ..HttpLimits::default()
    };
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let _ = handle(stream, &limits);
    }
}

fn handle(mut stream: TcpStream, limits: &HttpLimits) -> std::io::Result<()> {
    // The path is irrelevant — every well-formed request gets the
    // exposition; anything over limit or past deadline is dropped.
    if read_request(&mut stream, limits).is_err() {
        return Ok(());
    }
    let progress = mc_trace::progress_enabled().then(mc_trace::progress_snapshot);
    let body = render(&mc_trace::metrics().snapshot(), progress.as_ref());
    respond(
        &mut stream,
        200,
        "application/openmetrics-text; version=1.0.0; charset=utf-8",
        &[],
        body.as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("exec.batch.points"), "exec_batch_points");
        assert_eq!(sanitize("guard.eval.executed"), "guard_eval_executed");
        assert_eq!(sanitize("1weird name"), "_1weird_name");
    }

    #[test]
    fn render_emits_counters_gauges_and_summaries() {
        let registry = mc_trace::MetricsRegistry::new();
        registry.inc("exec.batch.points", 3);
        registry.gauge_set("exec.pool.workers", 8.0);
        registry.observe("launcher.cycles_per_iteration", 2.0);
        registry.observe("launcher.cycles_per_iteration", 4.0);
        registry.observe_span("exec.batch", 20);
        registry.observe_span("exec.batch", 40);
        let text = render(&registry.snapshot(), None);
        assert!(text.contains("# TYPE exec_batch_points counter\nexec_batch_points_total 3\n"));
        assert!(text.contains("# TYPE exec_pool_workers gauge\nexec_pool_workers 8\n"));
        assert!(text.contains("launcher_cycles_per_iteration_count 2"), "{text}");
        assert!(text.contains("launcher_cycles_per_iteration_sum 6"), "{text}");
        assert!(text.contains("launcher_cycles_per_iteration{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("# TYPE exec_batch_us summary\nexec_batch_us_count 2\n"), "{text}");
        assert!(text.contains("exec_batch_us_sum 60"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
    }

    #[test]
    fn server_answers_a_scrape() {
        use std::io::{Read as _, Write as _};
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("application/openmetrics-text"), "{response}");
        assert!(response.trim_end().ends_with("# EOF"), "{response}");
    }

    #[test]
    fn a_stalled_scraper_cannot_wedge_the_service_thread() {
        use std::io::{Read as _, Write as _};
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        // A slow-loris client: half a request head, then silence.
        let mut loris = TcpStream::connect(server.local_addr()).unwrap();
        loris.write_all(b"GET /metr").unwrap();
        // A well-behaved scrape right behind it must still be answered
        // (within the loris's 2 s deadline plus margin).
        let mut scrape = TcpStream::connect(server.local_addr()).unwrap();
        scrape.write_all(b"GET /metrics HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        scrape.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let mut response = String::new();
        scrape.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    }
}
