//! Tracing and metrics contract of the measurement harness: one
//! `launcher.run` span per run, warm-up/experiment/repetition timing
//! events matching the §4.5 protocol shape, stability metadata on the
//! `launcher.measure` event, and simarch port-pressure/cache metrics.
//!
//! The tracer and the metrics registry are process-global, so every test
//! here serializes on one lock (this file is its own test binary).

use mc_creator::MicroCreator;
use mc_kernel::builder::load_stream;
use mc_launcher::input::KernelInput;
use mc_launcher::launcher::MicroLauncher;
use mc_launcher::options::LauncherOptions;
use mc_trace::{MemorySink, TraceEvent, Value};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

fn tracer_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn movaps_input(unroll: u32) -> KernelInput {
    let desc = load_stream(mc_asm::Mnemonic::Movaps, unroll, unroll);
    let p = MicroCreator::new().generate(&desc).unwrap().programs.remove(0);
    KernelInput::program(p)
}

fn by_name<'a>(events: &'a [TraceEvent], name: &str) -> Vec<&'a TraceEvent> {
    events.iter().filter(|e| e.name == name).collect()
}

fn field_f64(e: &TraceEvent, key: &str) -> f64 {
    e.field(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("missing {key}: {e:?}"))
}

#[test]
fn launcher_run_emits_protocol_shaped_events() {
    let _guard = tracer_lock();
    let opts =
        LauncherOptions { repetitions: 4, meta_repetitions: 3, ..LauncherOptions::default() };
    let sink = Arc::new(MemorySink::new());
    mc_trace::install(sink.clone());
    let report = MicroLauncher::new(opts.clone()).run(&movaps_input(8)).unwrap();
    mc_trace::uninstall();
    let events = sink.events();

    // One run span with the reported outcome.
    let runs = by_name(&events, "launcher.run");
    assert_eq!(runs.len(), 1);
    assert!(runs[0].duration_micros.is_some());
    assert_eq!(runs[0].field("mode").and_then(Value::as_str), Some("seq"));
    assert_eq!(field_f64(runs[0], "cycles_per_iteration"), report.cycles_per_iteration);

    // Warm-up, outer experiments, inner repetitions: §4.5's loop shape.
    assert_eq!(by_name(&events, "launcher.warmup").len(), 1);
    let experiments = by_name(&events, "launcher.experiment");
    assert_eq!(experiments.len(), 3, "one event per outer experiment");
    let repetitions = by_name(&events, "launcher.repetition");
    assert_eq!(repetitions.len(), 3 * 4, "one event per inner repetition");

    // Per-experiment samples land inside the reported min..max envelope.
    for event in &experiments {
        let sample = field_f64(event, "cycles_per_iteration");
        assert!(
            sample >= report.summary.min - 1e-9 && sample <= report.summary.max + 1e-9,
            "sample {sample} outside [{}, {}]",
            report.summary.min,
            report.summary.max
        );
    }

    // The measure event carries the stability metadata.
    let measures = by_name(&events, "launcher.measure");
    assert_eq!(measures.len(), 1);
    let m = measures[0];
    assert_eq!(field_f64(m, "min"), report.summary.min);
    assert_eq!(field_f64(m, "median"), report.summary.median);
    assert_eq!(field_f64(m, "max"), report.summary.max);
    assert!((field_f64(m, "spread") - (report.summary.max - report.summary.min)).abs() < 1e-12);
    assert_eq!(m.field("stable").and_then(Value::as_bool), Some(report.stable));

    // Event sequence numbers are strictly increasing.
    assert!(events.windows(2).all(|w| w[1].seq > w[0].seq));
}

#[test]
fn metrics_capture_launcher_and_simarch_tallies() {
    let _guard = tracer_lock();
    // The replay runs inside verification; a run without a context
    // memoizes none, so it always replays.
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let opts = LauncherOptions {
        repetitions: 2,
        meta_repetitions: 2,
        verify_cache: true, // exercise the cache-simulator replay path
        ..LauncherOptions::default()
    };
    let report = MicroLauncher::new(opts).run(&movaps_input(4)).unwrap();
    mc_trace::enable_metrics(false);
    let snapshot = mc_trace::metrics().snapshot();
    mc_trace::metrics().reset();

    assert_eq!(snapshot.counter("launcher.measurements"), Some(1));
    let h = snapshot.histogram("launcher.cycles_per_iteration").expect("histogram");
    assert_eq!(h.count, 1);
    assert!((h.max - report.cycles_per_iteration).abs() < 1e-12);

    // The simulator exposed its port pressure: 4 loads for movaps u4.
    assert_eq!(snapshot.gauge("simarch.pressure.loads"), Some(4.0));
    assert!(snapshot.counter("simarch.estimates").unwrap_or(0) >= 1);

    // Cache replay tallies: an L1-resident working set hits mostly in L1.
    let l1_hits = snapshot.counter("simarch.cache.l1.hits").unwrap_or(0);
    let l1_misses = snapshot.counter("simarch.cache.l1.misses").unwrap_or(0);
    assert!(l1_hits > l1_misses, "L1-resident replay: {l1_hits} hits vs {l1_misses} misses");
}

#[test]
fn verification_runs_once_across_frequencies() {
    let _guard = tracer_lock();
    let ctx = mc_launcher::Ctx::default();
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let sink = Arc::new(MemorySink::new());
    mc_trace::install(sink.clone());
    for frequency_ghz in [1.6, 2.4] {
        let opts = LauncherOptions {
            frequency_ghz,
            repetitions: 2,
            meta_repetitions: 2,
            ..LauncherOptions::default()
        };
        let report = MicroLauncher::new(opts).run_in(&ctx, &movaps_input(2)).unwrap();
        assert!(report.verify.is_some_and(|v| v.passed));
    }
    mc_trace::uninstall();
    mc_trace::enable_metrics(false);
    let snapshot = mc_trace::metrics().snapshot();
    mc_trace::metrics().reset();
    let events = sink.events();
    // Two runs, one interpreter pass: the span marks the miss only.
    assert_eq!(by_name(&events, "launcher.run").len(), 2);
    assert_eq!(by_name(&events, "simarch.verify").len(), 1);
    assert_eq!(snapshot.counter("simarch.verify.miss"), Some(1));
    assert_eq!(snapshot.counter("simarch.verify.hit"), Some(1));
}

/// A clock whose state a trace sink can also advance — models a host
/// where emitting an event costs real time. `SimClock` can't catch the
/// trace-skew bug because its reads and sink calls are free; here any
/// event emitted *inside* the timed window inflates `elapsed`.
struct SharedClock(std::sync::atomic::AtomicU64);

impl mc_launcher::Clock for SharedClock {
    fn now_cycles(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn nominal_ghz(&self) -> f64 {
        1.0
    }
}

impl SharedClock {
    fn advance(&self, cycles: u64) {
        self.0.fetch_add(cycles, std::sync::atomic::Ordering::SeqCst);
    }
}

/// A sink that charges the shared clock for every recorded event.
struct TickingSink {
    clock: Arc<SharedClock>,
    cost_cycles: u64,
}

impl mc_trace::TraceSink for TickingSink {
    fn record(&self, _event: &mc_trace::TraceEvent) {
        self.clock.advance(self.cost_cycles);
    }
}

#[test]
fn event_emission_cost_stays_out_of_the_timed_window() {
    // Regression for the trace-skew bug: per-repetition events used to be
    // emitted between `t0` and the `elapsed` read, so a sink with any
    // per-event cost changed the reported cycles. The protocol now
    // buffers one clock mark per repetition and emits everything after
    // `elapsed` is captured.
    let _guard = tracer_lock();
    use mc_launcher::measure::{measure, MeasureConfig};
    use mc_launcher::options::Aggregation;

    let cfg = MeasureConfig {
        repetitions: 4,
        meta_repetitions: 3,
        warmup_runs: 1,
        aggregation: Aggregation::Min,
        stability_threshold: 0.05,
        adaptive: false,
        min_samples: 3,
        max_samples: 0,
    };
    let run = |traced: bool| -> f64 {
        let clock = Arc::new(SharedClock(std::sync::atomic::AtomicU64::new(0)));
        if traced {
            mc_trace::install(Arc::new(TickingSink { clock: clock.clone(), cost_cycles: 7 }));
        }
        let m = measure(
            clock.as_ref(),
            &cfg,
            || {
                clock.advance(1000);
                100
            },
            || clock.advance(50),
        )
        .unwrap();
        if traced {
            mc_trace::uninstall();
        }
        m.cycles_per_iteration
    };
    let bare = run(false);
    let traced = run(true);
    // (1000 − 50) / 100 cycles per iteration, bit-identical either way.
    assert_eq!(bare, 9.5);
    assert_eq!(bare, traced, "sink cost leaked into the timed window");
}

#[test]
fn untraced_run_matches_traced_run() {
    let _guard = tracer_lock();
    let opts =
        LauncherOptions { repetitions: 4, meta_repetitions: 3, ..LauncherOptions::default() };
    let bare = MicroLauncher::new(opts.clone()).run(&movaps_input(8)).unwrap();
    let sink = Arc::new(MemorySink::new());
    mc_trace::install(sink);
    let traced = MicroLauncher::new(opts).run(&movaps_input(8)).unwrap();
    mc_trace::uninstall();
    // Instrumentation must not perturb the simulated measurement.
    assert_eq!(bare.cycles_per_iteration, traced.cycles_per_iteration);
    assert_eq!(bare.summary, traced.summary);
}
