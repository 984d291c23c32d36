//! `mc-loadgen` — replayable load generator for a live `mc-serve`.
//!
//! ```text
//! mc-loadgen --addr=127.0.0.1:7199 [--n=20] [--dup=0.5] [--clients=2]
//!            [--concurrency=4] [--kernel=FILE.xml] [--options="…"]
//!            [--seed=42] [--record=MIX.jsonl | --replay=MIX.jsonl] [--wait]
//! ```
//!
//! Generates a deterministic submission mix — `--n` submissions spread
//! over `--clients` synthetic clients, a `--dup` fraction of which
//! resubmit an earlier variant (duplicate-heavy traffic is the daemon's
//! common case: same kernel, same options, new submitter) — and drives
//! it at `--concurrency` worker threads. `429` answers are honored: the
//! worker sleeps the advertised `retry_after_ms` and retries, counting
//! every backoff. `--record` writes the mix as JSONL before submitting;
//! `--replay` reads a recorded mix instead of generating one, so a
//! production traffic shape can be re-driven against a patched daemon.
//! `--wait` polls until every submitted job is terminal and prints the
//! final state tally.

use mc_report::Flags;
use mc_trace::{EventKind, TraceEvent};
use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn usage() -> &'static str {
    "usage: mc-loadgen --addr=ADDR [--n=20] [--dup=0.5] [--clients=2]\n       \
     [--concurrency=4] [--kernel=FILE.xml] [--options=ARGS] [--seed=42]\n       \
     [--record=PATH | --replay=PATH] [--wait] [--wait-secs=600]"
}

/// A built-in single-instruction kernel (Figure 6's shape, trimmed to a
/// small unroll range) so the loadgen works with zero setup.
const DEFAULT_KERNEL: &str = r#"<kernel name="loadgen">
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
    </instruction>
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
</kernel>"#;

/// One planned submission.
#[derive(Debug, Clone)]
struct Planned {
    client: String,
    options: String,
}

/// Deterministic 64-bit LCG (MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn fraction(&mut self) -> f64 {
        (self.next() % 1_000_000) as f64 / 1_000_000.0
    }
}

/// Builds the duplicate-heavy mix: fresh variants vary `--tripcount`,
/// duplicates re-issue an earlier variant from another client.
fn generate_mix(n: usize, dup: f64, clients: usize, base_options: &str, seed: u64) -> Vec<Planned> {
    let mut lcg = Lcg(seed.wrapping_mul(2).wrapping_add(1));
    let mut mix = Vec::with_capacity(n);
    let mut variants: Vec<String> = Vec::new();
    for _ in 0..n {
        let client = format!("client{}", lcg.next() % clients.max(1) as u64);
        let options = if !variants.is_empty() && lcg.fraction() < dup {
            variants[(lcg.next() as usize) % variants.len()].clone()
        } else {
            let trip = 1000 + 16 * variants.len() as u64;
            let options = format!("{base_options} --tripcount={trip}");
            variants.push(options.clone());
            options
        };
        mix.push(Planned { client, options: options.trim().to_owned() });
    }
    mix
}

fn record_mix(path: &str, mix: &[Planned]) -> std::io::Result<()> {
    let mut out = String::new();
    for planned in mix {
        let event = TraceEvent::new(EventKind::Event, "loadgen.submit")
            .with("client", planned.client.as_str())
            .with("options", planned.options.as_str());
        out.push_str(&event.to_json());
        out.push('\n');
    }
    std::fs::write(path, out)
}

fn replay_mix(path: &str) -> std::io::Result<Vec<Planned>> {
    let text = std::fs::read_to_string(path)?;
    let mut mix = Vec::new();
    for line in text.lines() {
        let Ok(event) = TraceEvent::from_json(line) else { continue };
        if event.name != "loadgen.submit" {
            continue;
        }
        let field = |key: &str| {
            event.field(key).and_then(|v| v.as_str()).map(str::to_owned).unwrap_or_default()
        };
        mix.push(Planned { client: field("client"), options: field("options") });
    }
    Ok(mix)
}

/// A minimal HTTP/1.1 exchange: one request, read to connection close.
fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without header terminator"))?;
    let head = String::from_utf8_lossy(&raw[..split]);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

#[derive(Debug, Default)]
struct Tally {
    accepted: u64,
    duplicate: u64,
    retries: u64,
    rejected: u64,
    errors: u64,
}

fn submit_worker(addr: &str, xml: &str, queue: &Mutex<VecDeque<Planned>>, tally: &Mutex<Tally>) {
    loop {
        let Some(planned) = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front() else {
            return;
        };
        let envelope = if planned.options.is_empty() {
            format!("client: {}\n\n{xml}", planned.client)
        } else {
            format!("client: {}\noptions: {}\n\n{xml}", planned.client, planned.options)
        };
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match http(addr, "POST", "/submit", envelope.as_bytes()) {
                Ok((202, _)) => {
                    tally.lock().unwrap_or_else(|e| e.into_inner()).accepted += 1;
                    break;
                }
                Ok((200, _)) => {
                    tally.lock().unwrap_or_else(|e| e.into_inner()).duplicate += 1;
                    break;
                }
                Ok((429, body)) if attempts < 50 => {
                    let retry_ms = mc_report::Json::parse(&String::from_utf8_lossy(&body))
                        .ok()
                        .and_then(|j| j.get("retry_after_ms").and_then(|v| v.as_f64()))
                        .unwrap_or(500.0);
                    tally.lock().unwrap_or_else(|e| e.into_inner()).retries += 1;
                    std::thread::sleep(Duration::from_millis((retry_ms as u64).clamp(10, 2_000)));
                }
                Ok((status, body)) => {
                    eprintln!(
                        "mc-loadgen: {} rejected ({status}): {}",
                        planned.client,
                        String::from_utf8_lossy(&body)
                    );
                    tally.lock().unwrap_or_else(|e| e.into_inner()).rejected += 1;
                    break;
                }
                Err(e) => {
                    eprintln!("mc-loadgen: request failed: {e}");
                    tally.lock().unwrap_or_else(|e| e.into_inner()).errors += 1;
                    break;
                }
            }
        }
    }
}

/// Polls `/jobs` until no job is queued or running (or the wait budget
/// runs out). Returns the final per-state tally.
fn wait_for_quiesce(addr: &str, wait_secs: u64) -> std::io::Result<Vec<(String, u64)>> {
    let deadline = std::time::Instant::now() + Duration::from_secs(wait_secs);
    loop {
        let (status, body) = http(addr, "GET", "/jobs", b"")?;
        if status != 200 {
            return Err(std::io::Error::other(format!("/jobs answered {status}")));
        }
        let json = mc_report::Json::parse(&String::from_utf8_lossy(&body))
            .map_err(std::io::Error::other)?;
        let mut counts: Vec<(String, u64)> = Vec::new();
        let mut active = 0u64;
        for job in json.get("jobs").and_then(|j| j.as_array()).unwrap_or(&[]) {
            let state = job.get("state").and_then(|s| s.as_str()).unwrap_or("?").to_owned();
            if state == "queued" || state == "running" {
                active += 1;
            }
            match counts.iter_mut().find(|(name, _)| *name == state) {
                Some((_, count)) => *count += 1,
                None => counts.push((state, 1)),
            }
        }
        if active == 0 || std::time::Instant::now() >= deadline {
            counts.sort();
            return Ok(counts);
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

fn main() -> ExitCode {
    run(Flags::from_env(usage())).unwrap_or_else(|e| {
        eprintln!("mc-loadgen: {e}\n{}", usage());
        ExitCode::from(2)
    })
}

/// Drives the mix. A command-line error is `Err`, reported before any
/// connection is made.
fn run(mut flags: Flags) -> Result<ExitCode, String> {
    let addr = flags.value("--addr").unwrap_or_default();
    let n = flags.parse("--n")?.unwrap_or(20usize);
    let dup = flags.parse("--dup")?.unwrap_or(0.5f64);
    let clients = flags.parse("--clients")?.unwrap_or(2usize);
    let concurrency = flags.parse("--concurrency")?.unwrap_or(4usize);
    let seed = flags.parse("--seed")?.unwrap_or(42u64);
    let wait_secs = flags.parse("--wait-secs")?.unwrap_or(600u64);
    let wait = flags.switch("--wait")?;
    let base_options = flags.value("--options").unwrap_or_default();
    let kernel = flags.value("--kernel");
    let replay = flags.value("--replay");
    let record = flags.value("--record");
    flags.finish()?;
    if addr.is_empty() {
        return Err("--addr=HOST:PORT is required".into());
    }
    let xml = match kernel {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("mc-loadgen: cannot read {path}: {e}");
                return Ok(ExitCode::from(2));
            }
        },
        None => DEFAULT_KERNEL.to_owned(),
    };

    let mix = match replay {
        Some(path) => match replay_mix(&path) {
            Ok(mix) => {
                eprintln!("mc-loadgen: replaying {} submissions from {path}", mix.len());
                mix
            }
            Err(e) => {
                eprintln!("mc-loadgen: cannot replay {path}: {e}");
                return Ok(ExitCode::from(2));
            }
        },
        None => generate_mix(n, dup, clients, &base_options, seed),
    };
    if let Some(path) = record {
        if let Err(e) = record_mix(&path, &mix) {
            eprintln!("mc-loadgen: cannot record to {path}: {e}");
            return Ok(ExitCode::from(2));
        }
        eprintln!("mc-loadgen: recorded {} submissions to {path}", mix.len());
    }

    let queue = Arc::new(Mutex::new(mix.into_iter().collect::<VecDeque<_>>()));
    let tally = Arc::new(Mutex::new(Tally::default()));
    let mut workers = Vec::new();
    for _ in 0..concurrency.max(1) {
        let addr = addr.clone();
        let xml = xml.clone();
        let queue = Arc::clone(&queue);
        let tally = Arc::clone(&tally);
        workers.push(std::thread::spawn(move || submit_worker(&addr, &xml, &queue, &tally)));
    }
    for worker in workers {
        let _ = worker.join();
    }
    let tally = tally.lock().unwrap_or_else(|e| e.into_inner());
    println!(
        "submitted: accepted={} duplicate={} retries={} rejected={} errors={}",
        tally.accepted, tally.duplicate, tally.retries, tally.rejected, tally.errors
    );
    let failed = tally.errors > 0;
    if wait {
        match wait_for_quiesce(&addr, wait_secs) {
            Ok(counts) => {
                let rendered: Vec<String> =
                    counts.iter().map(|(state, count)| format!("{state}={count}")).collect();
                println!("jobs: {}", rendered.join(" "));
            }
            Err(e) => {
                eprintln!("mc-loadgen: wait failed: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if failed {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}
