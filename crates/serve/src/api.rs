//! The HTTP/JSON surface of the daemon.
//!
//! Routes (all answers JSON unless noted):
//!
//! | Route | What it does |
//! |---|---|
//! | `POST /submit` | Admit a kernel-XML + sweep-spec envelope |
//! | `GET /jobs` | Every job's state |
//! | `GET /jobs/<id>` | One job's state |
//! | `GET /jobs/<id>/result` | The result document (`text/csv`) |
//! | `GET /jobs/<id>/events` | Per-job progress as JSONL |
//! | `POST /jobs/<id>/cancel` | Cancel a queued or running job |
//! | `POST /drain` | Begin graceful shutdown |
//! | `GET /healthz` | Counters, drain state, store counters |
//! | `GET /metrics` | The live metrics registry as OpenMetrics |
//!
//! Requests arrive through [`mc_pulse::read_request`] — the hardened
//! reader with head/body caps and a total deadline — so a slow-loris
//! client costs at most one read window, never a wedged daemon. Typed
//! admission rejections map onto HTTP: quota and shed rejections are
//! `429` with both a `Retry-After` header (seconds) and an exact
//! `retry_after_ms` in the body; drain is `503`.
//!
//! ## Submission envelope
//!
//! `POST /submit` takes a plain-text body: optional `key: value` header
//! lines (`client`, `name`, `options`), a blank line, then the kernel
//! description XML:
//!
//! ```text
//! client: alice
//! options: --repetitions=4 --meta-repetitions=3
//!
//! <kernel name="loadstore"> … </kernel>
//! ```

use crate::daemon::{Daemon, JobState, Reject, Submission, Submitted};
use mc_pulse::{read_request, respond, Request, RequestError};
use mc_report::Json;
use mc_trace::diag;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The running API listener.
pub struct ApiServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl ApiServer {
    /// Binds `bind` (e.g. `127.0.0.1:0`) and serves `daemon` on one
    /// background thread. `drain_flag` is raised by `POST /drain` for
    /// the main loop to act on.
    pub fn start(
        daemon: Arc<Daemon>,
        bind: &str,
        drain_flag: Arc<AtomicBool>,
    ) -> std::io::Result<ApiServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle =
            std::thread::Builder::new().name("mc-serve-api".into()).spawn(move || loop {
                if stop_flag.load(Ordering::Acquire) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if let Err(e) = handle_connection(stream, &daemon, &drain_flag) {
                            diag!("mc-serve: connection error: {e}");
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => {
                        diag!("mc-serve: accept error: {e}");
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            })?;
        Ok(ApiServer { addr, stop, handle })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the listener thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.handle.join();
    }
}

/// One JSON object from key/value pairs.
fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect::<BTreeMap<_, _>>())
}

fn json_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    value: &Json,
) -> std::io::Result<()> {
    respond(stream, status, "application/json", extra_headers, value.render().as_bytes())
}

fn handle_connection(
    mut stream: TcpStream,
    daemon: &Arc<Daemon>,
    drain_flag: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let request = match read_request(&mut stream, &daemon.config().limits) {
        Ok(request) => request,
        Err(RequestError::TooLarge(what)) => {
            let body = obj(vec![
                ("error", Json::Str("too_large".into())),
                ("message", Json::Str(format!("request {what} exceeds the configured limit"))),
            ]);
            return json_response(&mut stream, 413, &[], &body);
        }
        Err(RequestError::Timeout) => {
            let body = obj(vec![("error", Json::Str("timeout".into()))]);
            return json_response(&mut stream, 400, &[], &body);
        }
        Err(RequestError::Malformed(message)) => {
            let body = obj(vec![
                ("error", Json::Str("malformed".into())),
                ("message", Json::Str(message)),
            ]);
            return json_response(&mut stream, 400, &[], &body);
        }
        // A vanished client needs no answer.
        Err(RequestError::Io(_)) => return Ok(()),
    };
    route(&mut stream, &request, daemon, drain_flag)
}

fn route(
    stream: &mut TcpStream,
    request: &Request,
    daemon: &Arc<Daemon>,
    drain_flag: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("POST", "/submit") => post_submit(stream, request, daemon),
        ("GET", "/jobs") => {
            let jobs: Vec<Json> = daemon.jobs().iter().map(job_json).collect();
            json_response(stream, 200, &[], &obj(vec![("jobs", Json::Arr(jobs))]))
        }
        ("GET", "/healthz") => {
            let health = daemon.health();
            let mut pairs = vec![
                ("status", Json::Str("ok".into())),
                ("draining", Json::Bool(health.draining)),
                ("queued", Json::from(health.queued)),
                ("running", Json::from(health.running)),
                ("done", Json::from(health.done)),
                ("failed", Json::from(health.failed)),
                ("canceled", Json::from(health.canceled)),
            ];
            if let Some(counters) = &health.store {
                pairs.push((
                    "store",
                    obj(vec![
                        ("hit_mem", Json::from(counters.hit_mem)),
                        ("hit_disk", Json::from(counters.hit_disk)),
                        ("miss", Json::from(counters.miss)),
                        ("saved", Json::from(counters.saved)),
                        ("write_failed", Json::from(counters.write_failed)),
                    ]),
                ));
            }
            json_response(stream, 200, &[], &obj(pairs))
        }
        ("GET", "/metrics") => {
            let body = mc_pulse::openmetrics::render(&mc_trace::metrics().snapshot(), None);
            respond(
                stream,
                200,
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                &[],
                body.as_bytes(),
            )
        }
        ("POST", "/drain") => {
            daemon.drain();
            drain_flag.store(true, Ordering::Release);
            json_response(stream, 202, &[], &obj(vec![("status", Json::Str("draining".into()))]))
        }
        (method, path) if path.starts_with("/jobs/") => {
            job_route(stream, method, &path["/jobs/".len()..], daemon)
        }
        ("GET" | "POST", _) => {
            json_response(stream, 404, &[], &obj(vec![("error", Json::Str("not_found".into()))]))
        }
        _ => json_response(
            stream,
            405,
            &[],
            &obj(vec![("error", Json::Str("method_not_allowed".into()))]),
        ),
    }
}

fn job_json(view: &crate::daemon::JobView) -> Json {
    let mut pairs = vec![
        ("job", Json::Str(view.id.clone())),
        ("client", Json::Str(view.client.clone())),
        ("name", Json::Str(view.name.clone())),
        ("state", Json::Str(view.state.name().into())),
    ];
    match &view.state {
        JobState::Done { bytes } => pairs.push(("bytes", Json::from(*bytes))),
        JobState::Failed { kind, message } => {
            pairs.push(("kind", Json::Str(kind.clone())));
            pairs.push(("message", Json::Str(message.clone())));
        }
        _ => {}
    }
    obj(pairs)
}

fn job_route(
    stream: &mut TcpStream,
    method: &str,
    rest: &str,
    daemon: &Arc<Daemon>,
) -> std::io::Result<()> {
    let (id, action) = match rest.split_once('/') {
        Some((id, action)) => (id, Some(action)),
        None => (rest, None),
    };
    let Some(view) = daemon.job(id) else {
        return json_response(
            stream,
            404,
            &[],
            &obj(vec![("error", Json::Str("unknown_job".into()))]),
        );
    };
    match (method, action) {
        ("GET", None) => json_response(stream, 200, &[], &job_json(&view)),
        ("GET", Some("result")) => match daemon.result_bytes(id) {
            Some(bytes) => respond(stream, 200, "text/csv", &[], &bytes),
            None => json_response(
                stream,
                409,
                &[],
                &obj(vec![
                    ("error", Json::Str("result_not_ready".into())),
                    ("state", Json::Str(view.state.name().into())),
                ]),
            ),
        },
        ("GET", Some("events")) => {
            let events = daemon.events_text(id).unwrap_or_default();
            respond(stream, 200, "application/jsonl", &[], events.as_bytes())
        }
        ("POST", Some("cancel")) => match daemon.cancel(id) {
            Ok(state) => json_response(
                stream,
                200,
                &[],
                &obj(vec![("job", Json::Str(id.to_owned())), ("state", Json::Str(state.into()))]),
            ),
            Err(message) => json_response(
                stream,
                409,
                &[],
                &obj(vec![
                    ("error", Json::Str("not_cancelable".into())),
                    ("message", Json::Str(message)),
                ]),
            ),
        },
        _ => json_response(stream, 404, &[], &obj(vec![("error", Json::Str("not_found".into()))])),
    }
}

/// Parses the plain-text submission envelope.
pub fn parse_envelope(body: &[u8]) -> Result<Submission, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let text = text.replace("\r\n", "\n");
    let mut submission = Submission {
        client: "anon".to_owned(),
        name: None,
        options_args: Vec::new(),
        xml: String::new(),
    };
    // Headers end at the first blank line; a body that opens straight
    // with `<` is all XML.
    let (head, xml) = if text.trim_start().starts_with('<') {
        ("", text.as_str())
    } else {
        text.split_once("\n\n").ok_or("missing blank line between headers and kernel XML")?
    };
    for line in head.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let (key, value) =
            line.split_once(':').ok_or_else(|| format!("malformed header line `{line}`"))?;
        let value = value.trim();
        match key.trim() {
            "client" => submission.client = value.to_owned(),
            "name" => submission.name = Some(value.to_owned()),
            "options" => {
                submission.options_args = value.split_whitespace().map(str::to_owned).collect();
            }
            other => return Err(format!("unknown header `{other}`")),
        }
    }
    if submission.client.is_empty() {
        return Err("empty client".to_owned());
    }
    submission.xml = xml.trim().to_owned();
    if submission.xml.is_empty() {
        return Err("empty kernel XML".to_owned());
    }
    Ok(submission)
}

fn retry_after_header(retry_after_ms: u64) -> (&'static str, String) {
    ("Retry-After", retry_after_ms.div_ceil(1000).max(1).to_string())
}

fn post_submit(
    stream: &mut TcpStream,
    request: &Request,
    daemon: &Arc<Daemon>,
) -> std::io::Result<()> {
    let submission = match parse_envelope(&request.body) {
        Ok(s) => s,
        Err(message) => {
            return json_response(
                stream,
                400,
                &[],
                &obj(vec![("error", Json::Str("invalid".into())), ("message", Json::Str(message))]),
            )
        }
    };
    match daemon.submit(&submission, Instant::now()) {
        Submitted::Accepted { job, position } => json_response(
            stream,
            202,
            &[],
            &obj(vec![
                ("job", Json::Str(job)),
                ("state", Json::Str("queued".into())),
                ("position", Json::from(position)),
            ]),
        ),
        Submitted::Duplicate { job, state } => json_response(
            stream,
            200,
            &[],
            &obj(vec![
                ("job", Json::Str(job)),
                ("state", Json::Str(state)),
                ("duplicate", Json::Bool(true)),
            ]),
        ),
        Submitted::Rejected(reject) => match reject {
            Reject::Invalid(message) => json_response(
                stream,
                400,
                &[],
                &obj(vec![("error", Json::Str("invalid".into())), ("message", Json::Str(message))]),
            ),
            Reject::RateLimited { retry_after_ms } => json_response(
                stream,
                429,
                &[retry_after_header(retry_after_ms)],
                &obj(vec![
                    ("error", Json::Str("rate_limited".into())),
                    ("retry_after_ms", Json::from(retry_after_ms)),
                ]),
            ),
            Reject::QueueFull { retry_after_ms } => json_response(
                stream,
                429,
                &[retry_after_header(retry_after_ms)],
                &obj(vec![
                    ("error", Json::Str("queue_full".into())),
                    ("retry_after_ms", Json::from(retry_after_ms)),
                ]),
            ),
            Reject::OverErrorBudget { failures, budget } => json_response(
                stream,
                429,
                &[],
                &obj(vec![
                    ("error", Json::Str("over_error_budget".into())),
                    ("failures", Json::from(failures)),
                    ("budget", Json::from(budget)),
                ]),
            ),
            Reject::Draining => {
                json_response(stream, 503, &[], &obj(vec![("error", Json::Str("draining".into()))]))
            }
            Reject::Unavailable(message) => json_response(
                stream,
                503,
                &[],
                &obj(vec![
                    ("error", Json::Str("unavailable".into())),
                    ("message", Json::Str(message)),
                ]),
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_envelope_with_headers_parses_every_field() {
        let body = b"client: alice\nname: mykernel\noptions: --repetitions=4 --seed=7\n\n<kernel name=\"k\"></kernel>\n";
        let s = parse_envelope(body).unwrap();
        assert_eq!(s.client, "alice");
        assert_eq!(s.name.as_deref(), Some("mykernel"));
        assert_eq!(s.options_args, vec!["--repetitions=4", "--seed=7"]);
        assert_eq!(s.xml, "<kernel name=\"k\"></kernel>");
    }

    #[test]
    fn a_bare_xml_body_defaults_the_headers() {
        let s = parse_envelope(b"<kernel name=\"k\"></kernel>").unwrap();
        assert_eq!(s.client, "anon");
        assert!(s.name.is_none() && s.options_args.is_empty());
    }

    #[test]
    fn bad_envelopes_are_rejected_with_reasons() {
        assert!(parse_envelope(b"client alice\n\n<kernel/>").is_err(), "missing colon");
        assert!(parse_envelope(b"color: red\n\n<kernel/>").is_err(), "unknown header");
        assert!(parse_envelope(b"client: a\n\n").is_err(), "empty XML");
        assert!(parse_envelope(&[0xff, 0xfe]).is_err(), "not UTF-8");
    }

    #[test]
    fn retry_after_rounds_up_to_whole_seconds() {
        assert_eq!(retry_after_header(1).1, "1");
        assert_eq!(retry_after_header(1000).1, "1");
        assert_eq!(retry_after_header(1001).1, "2");
    }
}
