//! Integration tests driving the actual compiled binaries.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;

fn figure6_xml_file(dir: &Path) -> PathBuf {
    let xml = mc_kernel::xml::kernel_to_xml(&mc_kernel::builder::figure6());
    let path = dir.join("figure6.xml");
    std::fs::write(&path, xml).expect("write xml");
    path
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn microcreator_generates_510_files() {
    let dir = scratch("creator");
    let xml = figure6_xml_file(&dir);
    let out = dir.join("generated");
    let result = Command::new(env!("CARGO_BIN_EXE_microcreator"))
        .arg(&xml)
        .arg(&out)
        .arg("--stats")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(result.status.success(), "{stdout}\n{stderr}");
    assert!(stderr.contains("generated 510 benchmark programs"), "{stderr}");
    assert!(stderr.contains("wrote 510 .s files"), "{stderr}");
    assert!(stdout.contains("operand-swap-after"), "--stats lists the passes: {stdout}");
    let files: Vec<_> = std::fs::read_dir(&out).expect("outdir").collect();
    assert_eq!(files.len(), 510);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn microcreator_limit_and_print() {
    let dir = scratch("creator2");
    let xml = figure6_xml_file(&dir);
    let result = Command::new(env!("CARGO_BIN_EXE_microcreator"))
        .arg(&xml)
        .arg("--limit=5")
        .arg("--list")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("generated 5 benchmark programs"), "{stderr}");
    // stdout is the variant names alone.
    assert_eq!(stdout.lines().count(), 5, "{stdout}");
    let name = stdout.lines().last().expect("a variant name").to_owned();
    let result = Command::new(env!("CARGO_BIN_EXE_microcreator"))
        .arg(&xml)
        .arg(format!("--print={name}"))
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains(".globl"), "{stdout}");
    assert!(stdout.contains("jge .L6"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn microcreator_rejects_bad_input() {
    let dir = scratch("creator3");
    let bad = dir.join("bad.xml");
    std::fs::write(&bad, "<kernel><instruction/></kernel>").unwrap();
    let result = Command::new(env!("CARGO_BIN_EXE_microcreator")).arg(&bad).output().expect("runs");
    assert!(!result.status.success());
    assert_eq!(result.status.code(), Some(2), "bad input is a USAGE exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn microlauncher_measures_an_xml_generation() {
    let dir = scratch("launcher");
    let xml = figure6_xml_file(&dir);
    let result = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg(&xml)
        .arg("--machine=x5650")
        .arg("--residence=l1")
        .arg("--repetitions=2")
        .arg("--meta-repetitions=2")
        .arg("--verify=false")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(result.status.success(), "{}", String::from_utf8_lossy(&result.stderr));
    // Provenance header, then CSV header + 510 rows.
    assert!(stdout.starts_with("# tool: microlauncher"), "{}", &stdout[..stdout.len().min(400)]);
    assert!(stdout.contains("# machine: x5650"), "{}", &stdout[..stdout.len().min(400)]);
    let csv: Vec<&str> = stdout.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(csv.len(), 511, "{}", &stdout[..stdout.len().min(400)]);
    assert!(csv[0].starts_with("kernel,"), "{stdout}");
    // The manifest comments round-trip through the CSV parser.
    let table = mc_report::CsvTable::parse(&stdout).expect("parses with comments");
    assert_eq!(table.rows.len(), 510);
    assert!(!table.comments.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn microlauncher_measures_handwritten_assembly() {
    let dir = scratch("launcher2");
    let kernel = dir.join("hand.s");
    std::fs::write(&kernel, ".L0:\nmovss (%rsi), %xmm0\naddq $4, %rsi\nsubq $1, %rdi\njge .L0\n")
        .unwrap();
    let result = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg(&kernel)
        .arg("--residence=l2")
        .arg("--repetitions=2")
        .arg("--meta-repetitions=2")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(result.status.success(), "{}", String::from_utf8_lossy(&result.stderr));
    let csv: Vec<&str> = stdout.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(csv.len(), 2, "{stdout}");
    assert!(csv[1].contains("L2"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn microlauncher_help_lists_the_option_surface() {
    let result = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg("--help")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(result.status.success());
    for option in mc_launcher::LauncherOptions::OPTION_NAMES {
        assert!(stdout.contains(option), "--help must document {option}");
    }
}

#[test]
fn microprobe_characterizes_each_machine() {
    for machine in ["x5650", "x7550", "e31240"] {
        let result = Command::new(env!("CARGO_BIN_EXE_microprobe"))
            .arg(machine)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&result.stdout);
        assert!(result.status.success(), "{machine}: {}", String::from_utf8_lossy(&result.stderr));
        assert!(stdout.contains("memory hierarchy"), "{stdout}");
        assert!(stdout.contains("knee at"), "{stdout}");
        assert!(stdout.contains("energy-optimal"), "{stdout}");
    }
    let bad = Command::new(env!("CARGO_BIN_EXE_microprobe")).arg("q6600").output().expect("runs");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn machine_code_pipeline_end_to_end() {
    // microcreator --format=bin → microlauncher kernel.bin: the full
    // object-file loop of §4.1 through both binaries.
    let dir = scratch("bin_pipeline");
    let xml = figure6_xml_file(&dir);
    let out = dir.join("objs");
    let result = Command::new(env!("CARGO_BIN_EXE_microcreator"))
        .arg(&xml)
        .arg(&out)
        .arg("--limit=3")
        .arg("--format=bin")
        .output()
        .expect("binary runs");
    assert!(result.status.success(), "{}", String::from_utf8_lossy(&result.stderr));
    let first = std::fs::read_dir(&out)
        .expect("outdir")
        .filter_map(Result::ok)
        .find(|e| e.path().extension().is_some_and(|x| x == "bin"))
        .expect("a .bin file");
    let result = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg(first.path())
        .arg("--residence=l1")
        .arg("--repetitions=2")
        .arg("--meta-repetitions=2")
        .arg("--verify=false")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(result.status.success(), "{}", String::from_utf8_lossy(&result.stderr));
    assert_eq!(stdout.lines().filter(|l| !l.starts_with('#')).count(), 2, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn microcreator_trace_emits_one_span_per_executed_pass() {
    let dir = scratch("trace");
    let xml = figure6_xml_file(&dir);
    let trace = dir.join("trace.jsonl");
    let result = Command::new(env!("CARGO_BIN_EXE_microcreator"))
        .arg(&xml)
        .arg(format!("--trace={}", trace.display()))
        .output()
        .expect("binary runs");
    assert!(result.status.success(), "{}", String::from_utf8_lossy(&result.stderr));
    let raw = std::fs::read_to_string(&trace).expect("trace file written");
    // Every line is a valid event; the pipeline's 19 passes show up as
    // one `creator.pass` span (gated in) or one skipped event (gated out).
    let events: Vec<mc_trace::TraceEvent> = raw
        .lines()
        .map(|l| mc_trace::TraceEvent::from_json(l).expect("valid JSONL line"))
        .collect();
    let spans: Vec<_> = events.iter().filter(|e| e.name == "creator.pass").collect();
    let skips = events.iter().filter(|e| e.name == "creator.pass.skipped").count();
    assert!(!spans.is_empty());
    assert_eq!(spans.len() + skips, 19, "{raw}");
    for span in &spans {
        assert!(span.duration_micros.is_some());
        assert!(span.field("pass").is_some());
        assert!(span.field("variants_out").is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--metrics` is a view of the metrics registry: each pass that runs
/// folds into its own `creator.pass.<pass>` span aggregate, one row per
/// pass in the span summary.
#[test]
fn microcreator_metrics_prints_one_span_row_per_executed_pass() {
    let dir = scratch("creator_metrics");
    let xml = figure6_xml_file(&dir);
    let result = Command::new(env!("CARGO_BIN_EXE_microcreator"))
        .arg(&xml)
        .arg("--stats")
        .arg("--metrics")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(result.status.success(), "{stderr}");
    // `--stats` rows: `<pass> yes|no <candidates>`.
    let ran: Vec<&str> = stdout
        .lines()
        .skip(1)
        .filter(|l| l.split_whitespace().nth(1) == Some("yes"))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(ran.len(), 17, "Figure 6 gates in 17 of the 19 passes: {stdout}");
    let summary = stderr.split_once("── span summary ──\n").expect("span summary").1;
    let pass_rows: Vec<&str> = summary.lines().filter(|l| l.starts_with("creator.pass.")).collect();
    assert_eq!(pass_rows.len(), ran.len(), "{stderr}");
    for pass in ran {
        let key = format!("creator.pass.{pass}");
        let row = pass_rows.iter().find(|r| r.split_whitespace().next() == Some(key.as_str()));
        let count = row.and_then(|r| r.split_whitespace().nth(1));
        assert_eq!(count, Some("1"), "{key} ran once: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn microlauncher_metrics_prints_summary_tables() {
    let dir = scratch("metrics");
    let kernel = dir.join("hand.s");
    std::fs::write(&kernel, ".L0:\nmovss (%rsi), %xmm0\naddq $4, %rsi\nsubq $1, %rdi\njge .L0\n")
        .unwrap();
    let result = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg(&kernel)
        .arg("--repetitions=2")
        .arg("--meta-repetitions=2")
        .arg("--metrics")
        .output()
        .expect("binary runs");
    assert!(result.status.success(), "{}", String::from_utf8_lossy(&result.stderr));
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("── span summary ──"), "{stderr}");
    assert!(stderr.contains("launcher.run"), "{stderr}");
    assert!(stderr.contains("── metrics ──"), "{stderr}");
    assert!(stderr.contains("launcher.measurements"), "{stderr}");
    // stdout stays machine-readable: manifest comments + CSV only.
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.lines().all(|l| l.starts_with('#') || l.contains(',')), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quiet_silences_diagnostics() {
    let dir = scratch("quiet");
    let bad = dir.join("bad.xml");
    std::fs::write(&bad, "<kernel><instruction/></kernel>").unwrap();
    let result = Command::new(env!("CARGO_BIN_EXE_microcreator"))
        .arg(&bad)
        .arg("--quiet")
        .output()
        .expect("runs");
    assert_eq!(result.status.code(), Some(2), "still fails, just quietly");
    assert!(result.stderr.is_empty(), "{}", String::from_utf8_lossy(&result.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every evaluating binary parses the shared flags through one `Run`, so
/// each rejects the same misuse with the usage exit before doing any
/// work. (`reproduce` gets the same check in mc-bench's store tests.)
#[test]
fn shared_flag_misuse_is_a_usage_error_in_every_binary() {
    let dir = scratch("shared_flags");
    let xml = figure6_xml_file(&dir);
    let binaries: [(&str, Option<&Path>); 3] = [
        (env!("CARGO_BIN_EXE_microcreator"), Some(&xml)),
        (env!("CARGO_BIN_EXE_microlauncher"), Some(&xml)),
        (env!("CARGO_BIN_EXE_microprobe"), None),
    ];
    for (binary, input) in binaries {
        for bad in ["--jobs=0", "--store=", "--progress=bogus"] {
            let out = Command::new(binary).args(input).arg(bad).output().expect("runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{binary} {bad}: {stderr}");
            assert!(out.stdout.is_empty(), "{binary} {bad} did work before failing");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn hand_kernel(dir: &Path) -> PathBuf {
    let path = dir.join("hand.s");
    std::fs::write(&path, ".L0:\nmovss (%rsi), %xmm0\naddq $4, %rsi\nsubq $1, %rdi\njge .L0\n")
        .unwrap();
    path
}

#[test]
fn adaptive_flags_reach_the_manifest() {
    let dir = scratch("adaptive-cli");
    let kernel = hand_kernel(&dir);
    // The manifest records the policy and every row carries the samples
    // it actually used (quiet sim → the floor).
    let out = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg(&kernel)
        .arg("--adaptive")
        .arg("--min-samples=2")
        .arg("--max-samples=8")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("# adaptive: true"), "{text}");
    assert!(text.contains("# sampling: adaptive:2..8"), "{text}");
    let row = text.lines().find(|l| l.ends_with(",ok")).expect("csv row");
    assert!(row.ends_with(",2,ok"), "samples_used column: {row}");

    // A malformed setting is a usage error, not a silent fallback.
    let out = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg(&kernel)
        .arg("--adaptive=sometimes")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--adaptive: invalid boolean"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Flags are the only run configuration: the environment variables that
/// once mirrored `--jobs`, `--adaptive`, `--trace`, `--store`,
/// `--profile` and `--registry` change no output and create no file.
#[test]
fn removed_environment_variables_are_dead() {
    let dir = scratch("dead-env");
    let kernel = hand_kernel(&dir);
    let trace = dir.join("trace.jsonl");
    let roots = ["store", "profiles", "registry"].map(|name| dir.join(format!("env-{name}")));
    // Each run registers from its own working directory: `--register`
    // writes `.microtools` there, the root the registry variable moved.
    let launch = |cwd: &str, env: &[(&str, &OsStr)]| {
        let cwd = dir.join(cwd);
        std::fs::create_dir_all(&cwd).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
            .arg(&kernel)
            .arg("--register")
            .current_dir(&cwd)
            .envs(env.iter().copied())
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(cwd.join(".microtools").is_dir(), "--register writes its default root");
        let text = String::from_utf8(out.stdout).unwrap();
        text.lines().filter(|l| !l.starts_with("# timestamp_unix:")).collect::<Vec<_>>().join("\n")
    };
    let plain = launch("plain", &[]);
    let with_env = launch(
        "env",
        &[
            ("MICROTOOLS_JOBS", OsStr::new("3")),
            ("MICROTOOLS_ADAPTIVE", OsStr::new("2..8")),
            ("MICROTOOLS_TRACE", trace.as_os_str()),
            ("MICROTOOLS_TRACE_FILTER", OsStr::new("launcher.")),
            ("MICROTOOLS_STORE", roots[0].as_os_str()),
            ("MICROTOOLS_PROFILE", roots[1].as_os_str()),
            ("MICROTOOLS_REGISTRY", roots[2].as_os_str()),
        ],
    );
    for key in ["# jobs: ", "# sampling: fixed:"] {
        assert!(plain.lines().any(|l| l.starts_with(key)), "{key} missing:\n{plain}");
    }
    assert_eq!(plain, with_env, "the environment changed the run");
    for path in roots.iter().chain([&trace]) {
        assert!(!path.exists(), "{} was created", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs microlauncher on `kernel` and captures stdout as a CSV file.
fn launch_csv(kernel: &Path, dir: &Path, name: &str, extra: &[&str]) -> PathBuf {
    let out = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg(kernel)
        .arg("--repetitions=2")
        .arg("--meta-repetitions=2")
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let path = dir.join(name);
    std::fs::write(&path, &out.stdout).unwrap();
    path
}

#[test]
fn mc_report_diff_accepts_reruns_and_flags_perturbations() {
    let dir = scratch("diff");
    let kernel = hand_kernel(&dir);
    let trace = dir.join("trace.jsonl");
    let trace_flag = format!("--trace={}", trace.display());
    let base = launch_csv(&kernel, &dir, "base.csv", &[trace_flag.as_str()]);
    let same = launch_csv(&kernel, &dir, "same.csv", &[]);
    let slow = launch_csv(&kernel, &dir, "slow.csv", &["--frequency=1.6"]);

    // The run manifest surfaces the stability verdict and aggregation
    // provenance, and every row carries its attribution columns.
    let text = std::fs::read_to_string(&base).unwrap();
    assert!(text.contains("# stable: true"), "{text}");
    assert!(text.contains("# aggregation: min"), "{text}");
    assert!(text.contains("# samples: 2"), "{text}");
    let header = text.lines().find(|l| l.starts_with("kernel,")).expect("csv header");
    assert!(
        header.ends_with("bottleneck,bound_cycles,bound_share,samples_used,status"),
        "{header}"
    );
    // The attribution also lands in the trace stream.
    let raw = std::fs::read_to_string(&trace).expect("trace written");
    assert!(raw.contains("insight.attribution"), "{raw}");

    // Same options, same seed: nothing regresses, exit 0.
    let ok = Command::new(env!("CARGO_BIN_EXE_mc-report"))
        .arg("diff")
        .arg(&base)
        .arg(&same)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(ok.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&ok.stderr));
    assert!(stdout.contains("0 regression(s)"), "{stdout}");

    // A slower core clock regresses the core-bound kernel, names what it
    // is bound on, and exits FAILED. Provenance warnings are diagnostics
    // and go to stderr; piped stdout stays a clean table.
    let bad = Command::new(env!("CARGO_BIN_EXE_mc-report"))
        .arg("diff")
        .arg(&base)
        .arg(&slow)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(bad.status.code(), Some(4), "{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("worst regression"), "{stdout}");
    assert!(stderr.contains("warning: manifest `options_hash` differs"), "{stderr}");
    assert!(!stdout.contains("warning:"), "warnings must not pollute stdout: {stdout}");

    // Usage errors exit 2, and so does a flag diff does not take.
    let usage = Command::new(env!("CARGO_BIN_EXE_mc-report")).output().expect("runs");
    assert_eq!(usage.status.code(), Some(2));
    let stray = Command::new(env!("CARGO_BIN_EXE_mc-report"))
        .arg("diff")
        .arg(&base)
        .arg(&same)
        .arg("--last=3")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&stray.stderr);
    assert_eq!(stray.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option `--last=3`"), "{stderr}");
    assert!(stray.stdout.is_empty(), "{}", String::from_utf8_lossy(&stray.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn microprobe_explain_names_bottlenecks() {
    let result = Command::new(env!("CARGO_BIN_EXE_microprobe"))
        .arg("x5650")
        .arg("--explain")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(result.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&result.stderr));
    assert!(stdout.contains("bound on"), "{stdout}");
    for class in ["dep-chain", "store-port", "load-port", "ram-bound"] {
        assert!(stdout.contains(class), "expected `{class}` in: {stdout}");
    }
}

#[test]
fn chrome_trace_format_writes_one_json_document() {
    let dir = scratch("chrome");
    let xml = figure6_xml_file(&dir);
    let trace = dir.join("trace.json");
    let result = Command::new(env!("CARGO_BIN_EXE_microcreator"))
        .arg(&xml)
        .arg(format!("--trace={}", trace.display()))
        .arg("--trace-format=chrome")
        .output()
        .expect("binary runs");
    assert!(result.status.success(), "{}", String::from_utf8_lossy(&result.stderr));
    let raw = std::fs::read_to_string(&trace).expect("trace written");
    assert!(raw.trim_start().starts_with("{\"displayTimeUnit\""), "{raw}");
    assert!(raw.contains("\"traceEvents\""), "{raw}");
    assert!(raw.contains("\"ph\":\"X\"") && raw.contains("creator.pass"), "{raw}");
    // Chrome to stderr is rejected up front.
    let bad = Command::new(env!("CARGO_BIN_EXE_microcreator"))
        .arg(&xml)
        .arg("--trace=stderr")
        .arg("--trace-format=chrome")
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_panic_yields_a_failed_row_and_a_budget_exit() {
    let dir = scratch("fault");
    let xml = figure6_xml_file(&dir);
    // Poison eval index 5 of the 510-variant sweep: the sweep must
    // survive, emit 509 ok rows plus one failed row, and exit 3 because
    // the default error budget is zero.
    let out = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg(&xml)
        .arg("--repetitions=2")
        .arg("--meta-repetitions=2")
        .arg("--verify=false")
        .arg("--jobs=2")
        .env("MICROTOOLS_FAULT", "panic@5")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let rows: Vec<&str> =
        stdout.lines().filter(|l| !l.starts_with('#') && !l.starts_with("kernel,")).collect();
    assert_eq!(rows.len(), 510, "failed points stay visible: {}", rows.len());
    assert_eq!(rows.iter().filter(|r| r.ends_with(",ok")).count(), 509, "{stdout}");
    assert_eq!(rows.iter().filter(|r| r.ends_with(",panic")).count(), 1, "{stdout}");
    assert!(stdout.contains("# failed_rows: 1"), "{stdout}");

    // A budget of one tolerates the same fault: exit 0, same rows.
    let tolerant = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg(&xml)
        .arg("--repetitions=2")
        .arg("--meta-repetitions=2")
        .arg("--verify=false")
        .arg("--jobs=2")
        .arg("--max-failures=1")
        .env("MICROTOOLS_FAULT", "panic@5")
        .output()
        .expect("binary runs");
    assert_eq!(tolerant.status.code(), Some(0), "{}", String::from_utf8_lossy(&tolerant.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_loads_finished_points_from_the_store() {
    let dir = scratch("resume");
    let kernel = hand_kernel(&dir);
    let store_flag = format!("--store={}", dir.join("store").display());
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_microlauncher"))
            .arg(&kernel)
            .arg("--repetitions=2")
            .arg("--meta-repetitions=2")
            .arg(&store_flag)
            .output()
            .expect("binary runs")
    };
    let fresh = run();
    assert!(fresh.status.success(), "{}", String::from_utf8_lossy(&fresh.stderr));

    // A second process on the same store evaluates nothing: its one
    // point loads from disk and nothing new is saved.
    let resumed = run();
    let resumed_err = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "{resumed_err}");
    assert!(resumed_err.contains("1 disk hits, 0 misses, 0 saved"), "{resumed_err}");
    let row = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| !l.starts_with('#') && !l.starts_with("kernel,"))
            .expect("a data row")
            .to_owned()
    };
    assert_eq!(row(&fresh), row(&resumed), "the stored row is bit-identical");

    // The checkpoint journal flags are gone: unknown arguments.
    for retired in ["--checkpoint=run.jsonl", "--resume"] {
        let out = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
            .arg(&kernel)
            .arg(retired)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{retired}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn microcreator_random_selection_flag() {
    let dir = scratch("random");
    // A two-instruction pool without operand swaps: random bodies draw
    // from {movss, movsd} streams.
    let desc = mc_kernel::builder::KernelBuilder::new("pool")
        .stream_instruction(mc_asm::Mnemonic::Movss, "r1", false)
        .stream_instruction(mc_asm::Mnemonic::Movsd, "r2", false)
        .unroll(1, 2)
        .counted_by("r1")
        .build()
        .unwrap();
    let xml = dir.join("pool.xml");
    std::fs::write(&xml, mc_kernel::xml::kernel_to_xml(&desc)).unwrap();
    let run = |seed: u32| -> String {
        let out_dir = dir.join(format!(
            "out_{seed}_{}",
            std::time::UNIX_EPOCH.elapsed().map(|d| d.subsec_nanos()).unwrap_or(0)
        ));
        let out = Command::new(env!("CARGO_BIN_EXE_microcreator"))
            .arg(&xml)
            .arg(&out_dir)
            .arg("--random=6,3")
            .arg(format!("--seed={seed}"))
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        // Concatenate every emitted file (sorted) as the run's fingerprint.
        let mut names: Vec<_> = std::fs::read_dir(&out_dir)
            .expect("outdir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        names.sort();
        names.iter().map(|p| std::fs::read_to_string(p).expect("read emitted file")).collect()
    };
    let a = run(1);
    assert!(!a.is_empty());
    assert_eq!(run(1), a, "same seed, same programs");
    assert_ne!(run(2), a, "different seed, different draws");
    let bad = Command::new(env!("CARGO_BIN_EXE_microcreator"))
        .arg(&xml)
        .arg("--random=oops")
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registered_runs_feed_history_and_trend() {
    let dir = scratch("pulse");
    let kernel = hand_kernel(&dir);
    let registry = dir.join("reg");
    let registry_flag = format!("--registry={}", registry.display());
    let launch = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
            .arg(&kernel)
            .arg("--repetitions=2")
            .arg("--meta-repetitions=2")
            .arg(&registry_flag)
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    // Two identical runs: the content-derived ID collapses them to one
    // stored record, while the index keeps both registrations.
    let first = launch(&[]);
    assert!(first.contains("registered run"), "{first}");
    launch(&[]);
    let stored: Vec<_> = std::fs::read_dir(registry.join("runs"))
        .expect("runs dir")
        .filter_map(Result::ok)
        .collect();
    assert_eq!(stored.len(), 1, "identical runs share one record");
    let index = mc_pulse::Registry::open(&registry).load_index().unwrap();
    assert_eq!(index.len(), 2, "…but both registrations are indexed");

    // Two healthy runs: trend sees no regression and renders the series.
    let trend = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_mc-report"))
            .arg("trend")
            .arg(&registry_flag)
            .args(args)
            .output()
            .expect("binary runs")
    };
    let ok = trend(&[]);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert_eq!(ok.status.code(), Some(0), "{stdout}\n{}", String::from_utf8_lossy(&ok.stderr));
    assert!(stdout.contains("2 registered run(s)"), "{stdout}");

    // A degraded third run (slower core clock) regresses beyond the
    // noise band: exit 4, and the verdict names the series.
    launch(&["--frequency=1.6"]);
    let bad = trend(&[]);
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert_eq!(bad.status.code(), Some(4), "{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // --json emits machine-readable output instead of the table.
    let json_out = trend(&["--json"]);
    let text = String::from_utf8_lossy(&json_out.stdout);
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert!(text.contains("\"regressions\""), "{text}");

    // history lists one series' value across the registrations.
    let hist = Command::new(env!("CARGO_BIN_EXE_mc-report"))
        .arg("history")
        .arg("hand")
        .arg(&registry_flag)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&hist.stdout);
    assert_eq!(hist.status.code(), Some(0), "{stdout}\n{}", String::from_utf8_lossy(&hist.stderr));
    assert!(stdout.contains("hand"), "{stdout}");
    // history has no regression floor: `--threshold` is a usage error.
    let stray = Command::new(env!("CARGO_BIN_EXE_mc-report"))
        .arg("history")
        .arg("hand")
        .arg(&registry_flag)
        .arg("--threshold=0.5")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&stray.stderr);
    assert_eq!(stray.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option `--threshold=0.5`"), "{stderr}");

    // An empty registry is a usage error, not an empty success.
    let empty = Command::new(env!("CARGO_BIN_EXE_mc-report"))
        .arg("trend")
        .arg(format!("--registry={}", dir.join("nothing").display()))
        .output()
        .expect("binary runs");
    assert_eq!(empty.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_jsonl_is_byte_stable_across_job_counts() {
    let dir = scratch("progress");
    let xml = figure6_xml_file(&dir);
    let run = |jobs: &str, name: &str| -> String {
        let path = dir.join(name);
        let out = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
            .arg(&xml)
            .arg("--repetitions=2")
            .arg("--meta-repetitions=2")
            .arg("--verify=false")
            .arg(jobs)
            .arg(format!("--progress=jsonl:{}", path.display()))
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(&path).expect("progress stream written")
    };
    let serial = run("--jobs=1", "serial.jsonl");
    let parallel = run("--jobs=8", "parallel.jsonl");
    // Heartbeats carry wall-clock state; everything else is emitted from
    // the sink's own monotonic accounting and must not depend on worker
    // scheduling.
    assert_eq!(
        mc_pulse::strip_heartbeats(&serial),
        mc_pulse::strip_heartbeats(&parallel),
        "deterministic records differ between --jobs=1 and --jobs=8"
    );
    let stripped = mc_pulse::strip_heartbeats(&serial);
    assert!(stripped.starts_with("{\"kind\":\"batch\",\"total\":510}"), "{stripped}");
    assert!(stripped.contains("{\"kind\":\"end\",\"done\":510"), "{stripped}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quiet_silences_progress_heartbeats_and_summaries() {
    let dir = scratch("quiet");
    let kernel = hand_kernel(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_microlauncher"))
        .arg(&kernel)
        .arg("--repetitions=2")
        .arg("--meta-repetitions=2")
        .arg("--quiet")
        .arg("--progress=jsonl")
        .arg("--metrics")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "--quiet must silence progress and tables: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("# tool: microlauncher"), "product output unaffected: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn import_bench_backfills_snapshots_into_the_registry() {
    let dir = scratch("import");
    let registry = dir.join("reg");
    let registry_flag = format!("--registry={}", registry.display());
    let snapshot = dir.join("BENCH_seed.json");
    std::fs::write(
        &snapshot,
        r#"{"bench":"exec sweep","results":[
            {"config":"serial","sweep_ms":0.7},
            {"config":"parallel","sweep_ms":0.2}],
           "acceptance":{"pass":true}}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mc-report"))
        .arg("import-bench")
        .arg(&snapshot)
        .arg(&registry_flag)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("imported"), "{stderr}");
    let hist = Command::new(env!("CARGO_BIN_EXE_mc-report"))
        .arg("history")
        .arg("serial")
        .arg(&registry_flag)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&hist.stdout);
    assert_eq!(hist.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("BENCH_seed"), "{stdout}");
    // A missing snapshot is a usage error.
    let missing = Command::new(env!("CARGO_BIN_EXE_mc-report"))
        .arg("import-bench")
        .arg(dir.join("nope.json"))
        .arg(&registry_flag)
        .output()
        .expect("binary runs");
    assert_eq!(missing.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
