//! Human-readable end-of-run rendering: the `--metrics` tables the CLI
//! binaries print, all read from one [`MetricsSnapshot`].

use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Renders a metrics snapshot as aligned text blocks: the span summary
/// (per-name wall-time aggregates) under `── span summary ──`, then the
/// counters, gauges and histograms under `── metrics ──`.
pub fn render_metrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if snapshot.is_empty() {
        out.push_str("(no metrics recorded)\n");
        return out;
    }
    if !snapshot.spans.is_empty() {
        out.push_str("── span summary ──\n");
        let width = snapshot.spans.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(4);
        let _ = writeln!(
            out,
            "{:width$} {:>8} {:>14} {:>12} {:>10} {:>10}",
            "span", "count", "total µs", "mean µs", "p50", "p95"
        );
        for (name, h) in &snapshot.spans {
            let _ = writeln!(
                out,
                "{name:width$} {:>8} {:>14} {:>12.1} {:>10} {:>10}",
                h.count, h.sum, h.mean, h.p50, h.p95
            );
        }
    }
    if snapshot.counters.is_empty() && snapshot.gauges.is_empty() && snapshot.histograms.is_empty()
    {
        return out;
    }
    out.push_str("── metrics ──\n");
    if !snapshot.counters.is_empty() {
        out.push_str("─ counters ─\n");
        let width = snapshot.counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "  {name:width$}  {value}");
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("─ gauges ─\n");
        let width = snapshot.gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "  {name:width$}  {value:.4}");
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("─ histograms ─\n");
        let width = snapshot.histograms.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "  {:width$}  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "min", "p50", "p95", "max", "mean"
        );
        for (name, h) in &snapshot.histograms {
            let _ = writeln!(
                out,
                "  {name:width$}  {:>10} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
                h.count, h.min, h.p50, h.p95, h.max, h.mean
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn metrics_rendering_covers_all_kinds() {
        let registry = MetricsRegistry::new();
        registry.inc("launcher.runs", 3);
        registry.gauge_set("simarch.pressure.loads", 8.0);
        registry.observe("launcher.cycles", 3.25);
        let text = render_metrics(&registry.snapshot());
        assert!(text.starts_with("── metrics ──\n"), "no spans, no span summary: {text}");
        assert!(text.contains("launcher.runs"), "{text}");
        assert!(text.contains("simarch.pressure.loads"), "{text}");
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("3.2500"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        assert!(render_metrics(&MetricsSnapshot::default()).contains("no metrics"));
    }

    #[test]
    fn span_summary_has_one_row_per_name_before_the_metrics() {
        let registry = MetricsRegistry::new();
        registry.observe_span("launcher.run", 100);
        registry.observe_span("launcher.run", 300);
        registry.observe_span("creator.pass.unrolling", 120);
        registry.inc("launcher.measurements", 2);
        let text = render_metrics(&registry.snapshot());
        let (spans, metrics) = text.split_once("── metrics ──\n").expect("both sections");
        assert!(spans.starts_with("── span summary ──\n"), "{text}");
        let row = |name: &str| spans.lines().find(|l| l.starts_with(name)).map(str::to_owned);
        let run = row("launcher.run").expect("launcher.run row");
        let columns: Vec<&str> = run.split_whitespace().collect();
        assert_eq!(columns[1..4], ["2", "400", "200.0"], "count, total, mean: {run}");
        assert!(row("creator.pass.unrolling").is_some(), "{text}");
        assert!(metrics.contains("launcher.measurements"), "{text}");
    }
}
