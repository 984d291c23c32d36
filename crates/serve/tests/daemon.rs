//! Daemon integration tests: admission control, determinism, chaos
//! isolation, and crash recovery.
//!
//! The daemon leans on process-global machinery (the evaluation memo
//! cache, the generation cache, the store slot, fault plans, eval-index
//! counters, the exec worker count), so every test here serializes on
//! one local lock —
//! cargo runs separate test binaries sequentially, so only these tests
//! contend.

use mc_serve::{
    job_id, ApiServer, Daemon, JobJournal, JobState, QuotaConfig, Reject, ServeConfig, Submission,
    Submitted,
};
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes the tests and resets every process-global knob.
fn serialized() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mc_guard::clear_faults();
    mc_guard::reset_indices();
    mc_guard::reset_write_indices();
    mc_guard::set_policy(mc_guard::GuardPolicy::default());
    mc_launcher::batch::clear_cache();
    mc_launcher::sweeps::clear_generation_cache();
    mc_launcher::Ctx::process().set_store(None);
    guard
}

/// Evaluation points per job: the fixture kernel (unroll 1..2 with a
/// swap pass) generates 6 variant programs, and one job = one batch.
const EVALS_PER_JOB: u64 = 6;

/// The fixture kernel: unroll 1..2, swap variants — 6 programs per job.
fn kernel_xml(pad: &str) -> String {
    format!(
        r#"<kernel name="loadstore">
    <instruction>
        <operation>movaps</operation>
        <memory>
            <register> <name>r1</name> </register>
            <offset>0</offset>
        </memory>
        <register>
            <phyName>%xmm</phyName>
            <min>0</min>
            <max>8</max>
        </register>
        <swap_after_unroll/>
    </instruction>{pad}
    <unrolling>
        <min>1</min>
        <max>2</max>
    </unrolling>
    <induction>
        <register>
            <name>r1</name>
        </register>
        <increment>16</increment>
        <offset>16</offset>
    </induction>
    <induction>
        <register>
            <name>r0</name>
        </register>
        <increment>-1</increment>
        <linked>
            <register>
                <name>r1</name>
            </register>
        </linked>
        <last_induction/>
    </induction>
    <branch_information>
        <label>L6</label>
        <test>jge</test>
    </branch_information>
</kernel>"#
    )
}

fn options_args(trip: u64) -> Vec<String> {
    vec![
        "--repetitions=4".to_owned(),
        "--meta-repetitions=3".to_owned(),
        format!("--tripcount={trip}"),
    ]
}

fn submission(client: &str, trip: u64) -> Submission {
    Submission {
        client: client.to_owned(),
        name: None,
        options_args: options_args(trip),
        xml: kernel_xml(""),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn accepted(submitted: Submitted) -> String {
    match submitted {
        Submitted::Accepted { job, .. } => job,
        other => panic!("expected acceptance, got {other:?}"),
    }
}

fn wait_terminal(daemon: &Arc<Daemon>, id: &str, secs: u64) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let state = daemon.job(id).expect("job exists").state;
        if state.is_terminal() {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} still {} after {secs}s", state.name());
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn quota_rejections_are_typed_and_other_clients_are_unaffected() {
    let _guard = serialized();
    let mut config = ServeConfig::new(fresh_dir("quota"));
    config.quota = QuotaConfig { capacity: 2.0, refill_per_sec: 0.25, max_failures: 8 };
    let daemon = Daemon::open(config).unwrap();
    // No scheduler: jobs stay queued, admission decisions are the test.
    accepted(daemon.submit(&submission("alice", 100), Instant::now()));
    accepted(daemon.submit(&submission("alice", 101), Instant::now()));
    match daemon.submit(&submission("alice", 102), Instant::now()) {
        Submitted::Rejected(Reject::RateLimited { retry_after_ms }) => {
            assert!(
                (1..=8_000).contains(&retry_after_ms),
                "retry hint should be one token away at 0.25/s: {retry_after_ms}"
            );
        }
        other => panic!("expected rate limit, got {other:?}"),
    }
    // A different client still has a full bucket.
    accepted(daemon.submit(&submission("bob", 103), Instant::now()));
    // Resubmitting existing content is a duplicate, not a new admission —
    // and costs the throttled client nothing.
    match daemon.submit(&submission("alice", 100), Instant::now()) {
        Submitted::Duplicate { state, .. } => assert_eq!(state, "queued"),
        other => panic!("expected duplicate, got {other:?}"),
    }
}

#[test]
fn the_queue_bound_sheds_with_a_retry_hint() {
    let _guard = serialized();
    let mut config = ServeConfig::new(fresh_dir("shed"));
    config.queue_depth = 1;
    let daemon = Daemon::open(config).unwrap();
    accepted(daemon.submit(&submission("alice", 200), Instant::now()));
    match daemon.submit(&submission("bob", 201), Instant::now()) {
        Submitted::Rejected(Reject::QueueFull { retry_after_ms }) => {
            assert!(retry_after_ms >= 250, "{retry_after_ms}");
        }
        other => panic!("expected shed, got {other:?}"),
    }
}

#[test]
fn invalid_submissions_are_rejected_and_cost_no_quota() {
    let _guard = serialized();
    let mut config = ServeConfig::new(fresh_dir("invalid"));
    config.quota = QuotaConfig { capacity: 1.0, refill_per_sec: 0.0, max_failures: 8 };
    let daemon = Daemon::open(config).unwrap();
    let bad_option = Submission {
        options_args: vec!["--no-such-option=1".to_owned()],
        ..submission("alice", 300)
    };
    assert!(matches!(
        daemon.submit(&bad_option, Instant::now()),
        Submitted::Rejected(Reject::Invalid(_))
    ));
    let bad_xml =
        Submission { xml: "<note>not a kernel</note>".to_owned(), ..submission("alice", 300) };
    match daemon.submit(&bad_xml, Instant::now()) {
        Submitted::Rejected(Reject::Invalid(message)) => {
            assert!(message.contains("kernel XML"), "{message}");
        }
        other => panic!("expected invalid, got {other:?}"),
    }
    let spaced = Submission {
        options_args: vec!["--seed=1 --repetitions=2".to_owned()],
        ..submission("alice", 300)
    };
    assert!(matches!(
        daemon.submit(&spaced, Instant::now()),
        Submitted::Rejected(Reject::Invalid(_))
    ));
    // The single token is still there: validation happens pre-quota.
    accepted(daemon.submit(&submission("alice", 300), Instant::now()));
}

#[test]
fn jobs1_and_jobs8_result_documents_are_byte_identical() {
    let _guard = serialized();
    let mut documents = Vec::new();
    for jobs in [1usize, 8] {
        mc_exec::set_jobs(jobs);
        mc_launcher::batch::clear_cache();
        let daemon = Daemon::open(ServeConfig::new(fresh_dir(&format!("jobs{jobs}")))).unwrap();
        let scheduler = daemon.start();
        let id = accepted(daemon.submit(&submission("alice", 777), Instant::now()));
        assert_eq!(wait_terminal(&daemon, &id, 120).name(), "done");
        let bytes = daemon.result_bytes(&id).expect("result document");
        daemon.halt();
        scheduler.join().unwrap();
        documents.push(bytes);
    }
    mc_exec::set_jobs(1);
    assert_eq!(documents[0], documents[1], "worker count must not leak into the result document");
    let text = String::from_utf8(documents[0].clone()).unwrap();
    assert!(!text.contains("# jobs:"), "manifest must omit the worker count:\n{text}");
    assert!(text.contains("# tool: mc-serve"), "{text}");
    assert_eq!(text.lines().filter(|l| l.ends_with(",ok")).count() as u64, EVALS_PER_JOB, "{text}");
}

#[test]
fn chaos_faults_stay_per_job_and_spared_jobs_match_the_fault_free_run() {
    let _guard = serialized();
    let trips: Vec<u64> = (0..20).map(|k| 400 + k).collect();
    let run = |faults: Option<mc_guard::FaultPlan>, tag: &str| {
        mc_guard::clear_faults();
        mc_guard::reset_indices();
        mc_launcher::batch::clear_cache();
        if let Some(plan) = faults {
            mc_guard::install_faults(plan);
        }
        let mut config = ServeConfig::new(fresh_dir(tag));
        config.quota = QuotaConfig { capacity: 64.0, ..QuotaConfig::default() };
        let daemon = Daemon::open(config).unwrap();
        // Submit everything first so queue order (and therefore the
        // global eval-index schedule: job k owns indices 6k..6k+6) is
        // fixed before the scheduler starts.
        let ids: Vec<String> = trips
            .iter()
            .map(|&trip| accepted(daemon.submit(&submission("chaos", trip), Instant::now())))
            .collect();
        let scheduler = daemon.start();
        let states: Vec<JobState> = ids.iter().map(|id| wait_terminal(&daemon, id, 300)).collect();
        let documents: Vec<Option<Vec<u8>>> =
            ids.iter().map(|id| daemon.result_bytes(id)).collect();
        daemon.halt();
        scheduler.join().unwrap();
        (states, documents)
    };
    // Fault job 2's first eval with a panic and job 5's second eval
    // with an I/O error.
    let plan =
        mc_guard::FaultPlan::new().panic_at(2 * EVALS_PER_JOB).io_error_at(5 * EVALS_PER_JOB + 1);
    let (chaos_states, chaos_documents) = run(Some(plan), "chaos");
    let (clean_states, clean_documents) = run(None, "clean");
    assert!(clean_states.iter().all(|s| s.name() == "done"), "{clean_states:?}");
    for (k, state) in chaos_states.iter().enumerate() {
        match k {
            2 => match state {
                JobState::Failed { kind, message } => {
                    assert_eq!(kind, "panic", "{message}");
                    assert!(message.contains("injected"), "{message}");
                }
                other => panic!("job 2 should fail typed, got {other:?}"),
            },
            5 => match state {
                JobState::Failed { kind, message } => {
                    assert_eq!(kind, "failed", "{message}");
                    assert!(message.contains("injected"), "{message}");
                }
                other => panic!("job 5 should fail typed, got {other:?}"),
            },
            _ => {
                assert_eq!(state.name(), "done", "job {k} must survive its neighbors' faults");
                assert_eq!(
                    chaos_documents[k], clean_documents[k],
                    "job {k}: spared jobs must be byte-identical to the fault-free run"
                );
            }
        }
    }
}

#[test]
fn a_killed_daemon_resumes_from_the_journal_with_warm_store_hits() {
    let _guard = serialized();
    let state = fresh_dir("kill-state");
    let store = fresh_dir("kill-store");
    let mut config = ServeConfig::new(&state);
    config.store_dir = Some(store.clone());
    // First life: one job runs to completion, paying for both
    // evaluations and persisting them.
    let daemon = Daemon::open(config.clone()).unwrap();
    let scheduler = daemon.start();
    let first = accepted(daemon.submit(&submission("carol", 555), Instant::now()));
    assert_eq!(wait_terminal(&daemon, &first, 120).name(), "done");
    let first_document = daemon.result_bytes(&first).unwrap();
    daemon.halt();
    scheduler.join().unwrap();
    drop(daemon);
    // A second submission lands in the journal and then the process is
    // SIGKILLed before the scheduler touches it: same kernel modulo
    // whitespace, so its job ID differs but its evaluations are the
    // exact records the first life already paid for.
    let xml = kernel_xml("\n\n    ");
    let options =
        mc_launcher::LauncherOptions::from_args_over(Default::default(), &options_args(555))
            .unwrap();
    let second = job_id(&xml, &options);
    assert_ne!(first, second);
    JobJournal::open(&state)
        .accepted(&mc_serve::AcceptedJob {
            id: second.clone(),
            client: "carol".to_owned(),
            name: "loadstore".to_owned(),
            options_args: options_args(555),
            xml,
        })
        .unwrap();
    // Second life: a fresh process (memo and generation caches cold)
    // replays the journal.
    mc_launcher::batch::clear_cache();
    mc_launcher::sweeps::clear_generation_cache();
    let daemon = Daemon::open(config).unwrap();
    let health = daemon.health();
    assert_eq!(health.done, 1, "finished history survives the restart");
    assert_eq!(health.queued, 1, "the accepted-but-unfinished job is re-queued");
    let scheduler = daemon.start();
    assert_eq!(wait_terminal(&daemon, &second, 120).name(), "done");
    let counters = daemon.health().store.expect("store attached");
    assert_eq!(
        counters.hit_disk,
        EVALS_PER_JOB + 1,
        "every evaluation and the generated set warm-hit the store: {counters:?}"
    );
    assert_eq!(counters.saved, 0, "nothing is re-evaluated: {counters:?}");
    // The recovered job's document matches the first life's modulo its ID.
    let second_document = daemon.result_bytes(&second).unwrap();
    let strip = |bytes: &[u8]| -> String {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("# job:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&first_document), strip(&second_document));
    daemon.halt();
    scheduler.join().unwrap();
}

#[test]
fn drain_stops_admission_finishes_flushes_and_registers() {
    let _guard = serialized();
    let state = fresh_dir("drain-state");
    let store = fresh_dir("drain-store");
    let registry = fresh_dir("drain-registry");
    let mut config = ServeConfig::new(&state);
    config.store_dir = Some(store.clone());
    config.registry_root = Some(registry.clone());
    let daemon = Daemon::open(config).unwrap();
    let scheduler = daemon.start();
    let id = accepted(daemon.submit(&submission("dave", 600), Instant::now()));
    assert_eq!(wait_terminal(&daemon, &id, 120).name(), "done");
    daemon.drain();
    assert!(matches!(
        daemon.submit(&submission("dave", 601), Instant::now()),
        Submitted::Rejected(Reject::Draining)
    ));
    scheduler.join().unwrap();
    daemon.finish_drain();
    let totals = mc_store::ledger_totals(&store);
    assert!(totals.processes >= 1, "ledger flushed on drain: {totals:?}");
    let index = mc_pulse::Registry::open(&registry).load_index().unwrap();
    assert_eq!(index.len(), 1);
    assert_eq!(index[0].tool, "mc-serve");
}

#[test]
fn the_error_budget_cuts_off_a_client_whose_jobs_keep_failing() {
    let _guard = serialized();
    let mut config = ServeConfig::new(fresh_dir("budget"));
    config.quota = QuotaConfig { max_failures: 0, ..QuotaConfig::default() };
    let daemon = Daemon::open(config).unwrap();
    // The flaky client's first job dies on its first evaluation.
    mc_guard::install_faults(mc_guard::FaultPlan::new().panic_at(0));
    let scheduler = daemon.start();
    let doomed = accepted(daemon.submit(&submission("flaky", 700), Instant::now()));
    assert_eq!(wait_terminal(&daemon, &doomed, 120).name(), "failed");
    match daemon.submit(&submission("flaky", 701), Instant::now()) {
        Submitted::Rejected(Reject::OverErrorBudget { failures, budget }) => {
            assert_eq!((failures, budget), (1, 0));
        }
        other => panic!("expected budget rejection, got {other:?}"),
    }
    // An innocent client is untouched by the cutoff.
    let fine = accepted(daemon.submit(&submission("good", 702), Instant::now()));
    assert_eq!(wait_terminal(&daemon, &fine, 120).name(), "done");
    daemon.halt();
    scheduler.join().unwrap();
}

#[test]
fn a_queued_job_cancels_immediately() {
    let _guard = serialized();
    let daemon = Daemon::open(ServeConfig::new(fresh_dir("cancel"))).unwrap();
    let id = accepted(daemon.submit(&submission("erin", 800), Instant::now()));
    assert_eq!(daemon.cancel(&id), Ok("canceled"));
    assert_eq!(daemon.job(&id).unwrap().state, JobState::Canceled);
    assert!(daemon.cancel(&id).is_err(), "terminal jobs refuse cancellation");
    // The cancellation is journaled: a restart keeps it terminal.
    let replay = JobJournal::open(&daemon.config().state_dir).replay();
    assert!(replay.pending.is_empty());
    assert_eq!(replay.finished.len(), 1);
}

/// Submits every submission, each after the previous job finished, and
/// returns each job's result document. `between` runs after each job.
fn run_in_turn(tag: &str, mix: &[Submission], between: impl Fn()) -> Vec<Vec<u8>> {
    let mut config = ServeConfig::new(fresh_dir(tag));
    config.quota = QuotaConfig { capacity: 64.0, ..QuotaConfig::default() };
    let daemon = Daemon::open(config).unwrap();
    let scheduler = daemon.start();
    let mut documents = Vec::new();
    for submission in mix {
        let id = accepted(daemon.submit(submission, Instant::now()));
        assert_eq!(wait_terminal(&daemon, &id, 120).name(), "done");
        documents.push(daemon.result_bytes(&id).expect("result document"));
        between();
    }
    daemon.halt();
    scheduler.join().unwrap();
    documents
}

#[test]
fn jobs_over_one_kernel_share_one_generated_set() {
    let _guard = serialized();
    // Two kernels at four frequencies each, then the first kernel again
    // in other whitespace: a new job ID, but the same description.
    let at = |xml: &str, ghz: &str| {
        let mut options_args = options_args(300);
        options_args.push(format!("--frequency={ghz}"));
        Submission { client: "sweep".to_owned(), name: None, options_args, xml: xml.to_owned() }
    };
    let kernels = [kernel_xml(""), kernel_xml("").replace("movaps", "movapd")];
    let mut mix: Vec<Submission> = kernels
        .iter()
        .flat_map(|xml| ["1.60", "1.87", "2.13", "2.40"].map(|ghz| at(xml, ghz)))
        .collect();
    mix.push(at(&kernel_xml("\n\n    "), "2.67"));
    let generated_sets = || mc_trace::metrics().snapshot().counter("exec.gen.miss").unwrap_or(0);
    mc_trace::metrics().reset();
    mc_trace::enable_metrics(true);
    let shared = run_in_turn("gen-shared", &mix, || {});
    let shared_sets = generated_sets();
    mc_trace::metrics().reset();
    mc_launcher::batch::clear_cache();
    mc_launcher::sweeps::clear_generation_cache();
    let fresh = run_in_turn("gen-fresh", &mix, mc_launcher::sweeps::clear_generation_cache);
    let fresh_sets = generated_sets();
    mc_trace::enable_metrics(false);
    assert_eq!(shared_sets, 2, "one generation per distinct description");
    assert_eq!(fresh_sets, mix.len() as u64, "the control run regenerates per job");
    assert_eq!(shared, fresh, "sharing generated sets must not change a result byte");
}

#[test]
fn a_description_too_large_to_build_fails_its_job_and_the_next_job_runs() {
    let _guard = serialized();
    // Each expands to one variant (fan-out 1) of four billion copies.
    let unrolled = kernel_xml("").replace(
        "<min>1</min>\n        <max>2</max>",
        "<min>4000000000</min>\n        <max>4000000000</max>",
    );
    let repeated = kernel_xml("").replace(
        "<swap_after_unroll/>",
        "<swap_after_unroll/>\n        <repeat><min>4000000000</min><max>4000000000</max></repeat>",
    );
    assert_ne!(unrolled, kernel_xml(""));
    assert_ne!(repeated, kernel_xml(""));
    let mut config = ServeConfig::new(fresh_dir("too-large"));
    config.quota = QuotaConfig { capacity: 64.0, ..QuotaConfig::default() };
    let daemon = Daemon::open(config).unwrap();
    let ids: Vec<String> = [unrolled, repeated, kernel_xml("")]
        .into_iter()
        .enumerate()
        .map(|(k, xml)| {
            let submission = Submission {
                client: format!("client{k}"),
                name: None,
                options_args: options_args(1000),
                xml,
            };
            accepted(daemon.submit(&submission, Instant::now()))
        })
        .collect();
    let scheduler = daemon.start();
    for (id, pass) in ids.iter().zip(["unrolling", "instruction-repetition"]) {
        match wait_terminal(&daemon, id, 120) {
            JobState::Failed { kind, message } => {
                assert_eq!(kind, "generation", "{message}");
                assert!(
                    message.contains(pass) && message.contains("instruction copies"),
                    "{message}"
                );
            }
            other => panic!("expected a generation failure, got {other:?}"),
        }
    }
    assert_eq!(wait_terminal(&daemon, &ids[2], 120).name(), "done");
    daemon.halt();
    scheduler.join().unwrap();
}

/// One plain HTTP/1.1 exchange against the API server.
fn http(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> (u16, String, Vec<u8>) {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, head, raw[split + 4..].to_vec())
}

#[test]
fn the_http_surface_round_trips_submission_to_result() {
    let _guard = serialized();
    let mut config = ServeConfig::new(fresh_dir("http"));
    config.quota = QuotaConfig { capacity: 2.0, refill_per_sec: 0.5, max_failures: 8 };
    let daemon = Daemon::open(config).unwrap();
    let scheduler = daemon.start();
    let drain_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let server =
        ApiServer::start(Arc::clone(&daemon), "127.0.0.1:0", Arc::clone(&drain_flag)).unwrap();
    let addr = server.addr();
    let envelope =
        format!("client: alice\noptions: {}\n\n{}", options_args(900).join(" "), kernel_xml(""));
    let (status, _, body) = http(addr, "POST", "/submit", envelope.as_bytes());
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let json = mc_report::Json::parse(&String::from_utf8_lossy(&body)).unwrap();
    let id = json.get("job").and_then(|j| j.as_str()).unwrap().to_owned();
    assert_eq!(wait_terminal(&daemon, &id, 120).name(), "done");
    // State, result, events, health.
    let (status, _, body) = http(addr, "GET", &format!("/jobs/{id}"), b"");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"state\":\"done\""));
    let (status, head, body) = http(addr, "GET", &format!("/jobs/{id}/result"), b"");
    assert_eq!(status, 200);
    assert!(head.contains("text/csv"), "{head}");
    let text = String::from_utf8_lossy(&body);
    assert!(text.starts_with("# tool: mc-serve"), "{text}");
    let (status, _, body) = http(addr, "GET", &format!("/jobs/{id}/events"), b"");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("serve.job"));
    let (status, _, body) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"done\":1"));
    let (status, _, _) = http(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    // Duplicate submission answers 200, not 202.
    let (status, _, body) = http(addr, "POST", "/submit", envelope.as_bytes());
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"duplicate\":true"));
    // The second distinct submission drains the bucket; the third is a
    // 429 with both hints.
    let envelope2 = envelope.replace("tripcount=900", "tripcount=901");
    let (status, _, _) = http(addr, "POST", "/submit", envelope2.as_bytes());
    assert_eq!(status, 202);
    let envelope3 = envelope.replace("tripcount=900", "tripcount=902");
    let (status, head, body) = http(addr, "POST", "/submit", envelope3.as_bytes());
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(String::from_utf8_lossy(&body).contains("retry_after_ms"));
    // Unknown routes 404; drain flips to 503.
    let (status, _, _) = http(addr, "GET", "/nope", b"");
    assert_eq!(status, 404);
    let (status, _, _) = http(addr, "POST", "/drain", b"");
    assert_eq!(status, 202);
    assert!(drain_flag.load(std::sync::atomic::Ordering::Acquire));
    let (status, _, _) = http(addr, "POST", "/submit", envelope3.as_bytes());
    assert_eq!(status, 503);
    scheduler.join().unwrap();
    server.stop();
}
