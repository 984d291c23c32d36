//! Tracing contract of the pipeline: a full `PassManager::standard()` run
//! over the Figure 6 kernel emits exactly one `creator.pass` span per
//! gated-in pass, one `creator.pass.skipped` event per gated-off pass, and
//! the variants-in/out counts telescope through the pipeline.
//!
//! The tracer is process-global, so everything lives in one `#[test]` —
//! this file is its own test binary and no other test in it touches the
//! global sink.

use mc_creator::{CreatorConfig, GenContext, MicroCreator, PassManager};
use mc_kernel::builder::figure6;
use mc_trace::{EventKind, MemorySink, TraceEvent, Value};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The tracer is process-global and the harness runs tests on threads:
/// every test that generates (and could emit) takes this lock.
fn tracer_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn field_u64(e: &TraceEvent, key: &str) -> u64 {
    e.field(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("missing {key}: {e:?}"))
}

fn field_str<'a>(e: &'a TraceEvent, key: &str) -> &'a str {
    e.field(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing {key}: {e:?}"))
}

#[test]
fn standard_run_over_figure6_emits_one_span_per_gated_in_pass() {
    let _guard = tracer_lock();
    let sink = Arc::new(MemorySink::new());
    mc_trace::install(sink.clone());
    let pm = PassManager::standard();
    let mut ctx = GenContext::new(figure6(), CreatorConfig::default());
    let stats = pm.run(&mut ctx).expect("figure6 generates");
    mc_trace::uninstall();
    let events = sink.events();

    // Ground truth from the returned stats.
    let ran: Vec<&str> = stats.iter().filter(|s| s.1).map(|(name, ..)| name.as_str()).collect();
    let skipped: Vec<&str> =
        stats.iter().filter(|s| !s.1).map(|(name, ..)| name.as_str()).collect();
    assert_eq!(ran.len() + skipped.len(), 19, "standard pipeline is 19 passes");
    assert!(!ran.is_empty());

    // Exactly one span per gated-in pass, in pipeline order.
    let spans: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "creator.pass").collect();
    assert!(spans.iter().all(|e| e.kind == EventKind::Span));
    assert_eq!(
        spans.iter().map(|e| field_str(e, "pass")).collect::<Vec<_>>(),
        ran,
        "one span per executed pass"
    );

    // Exactly one skipped event per gated-off pass.
    let skips: Vec<&TraceEvent> =
        events.iter().filter(|e| e.name == "creator.pass.skipped").collect();
    assert!(skips.iter().all(|e| e.kind == EventKind::Event));
    assert_eq!(skips.iter().map(|e| field_str(e, "pass")).collect::<Vec<_>>(), skipped);

    // Variant counts telescope: each recorded event's variants_in equals
    // the previous one's variants_out (skipped passes change nothing).
    let mut expected_in = 1u64; // the pipeline starts from the seeded description
    for event in events.iter().filter(|e| e.name.starts_with("creator.pass")) {
        assert_eq!(
            field_u64(event, "variants_in"),
            expected_in,
            "telescoping broke at {}",
            field_str(event, "pass")
        );
        if event.name == "creator.pass" {
            expected_in = field_u64(event, "variants_out");
        }
    }

    // The spans' final state agrees with the stats rows and the pruned
    // field is consistent: candidates that became programs (`codegen`
    // consumes them all) are not pruned.
    let mut programs_before = 0;
    for span in &spans {
        let vin = field_u64(span, "variants_in");
        let vout = field_u64(span, "variants_out");
        let programs = field_u64(span, "programs");
        let finished = programs - programs_before;
        assert_eq!(field_u64(span, "pruned"), vin.saturating_sub(vout + finished));
        programs_before = programs;
        assert!(span.duration_micros.is_some(), "spans carry wall time");
    }
    let codegen = spans.last().unwrap();
    assert_eq!(field_str(codegen, "pass"), "codegen");
    assert_eq!(field_u64(codegen, "variants_out"), 0, "codegen consumes the candidates");
    assert_eq!(field_u64(codegen, "pruned"), 0);
    let last = spans.last().unwrap();
    assert_eq!(field_u64(last, "programs") as usize, ctx.programs.len());

    // Figure 6 pins the corpus: 510 programs (§5, the running example).
    assert_eq!(ctx.programs.len(), 510);
}

#[test]
fn untraced_generation_emits_nothing_and_matches_traced_output() {
    let _guard = tracer_lock();
    // No sink installed: generation still works and produces the same
    // corpus — tracing must be observation, not behavior.
    let result = MicroCreator::new().generate(&figure6()).expect("generates");
    assert_eq!(result.programs.len(), 510);
    assert_eq!(result.stats.len(), 19);
}
