//! The versioned JSONL profile format.
//!
//! Line 1 is the header object; every following line is one record with
//! a `"t"` discriminator. Encoding is deterministic: fixed field order,
//! the workspace JSON codec's number rules ([`mc_report::json`]: counts
//! and indices as integers, floats in Rust's shortest round-trip form),
//! no timestamps — the same profile always produces the same bytes, so
//! profiles are diffable and byte-identical across `--jobs` counts.
//!
//! ```text
//! {"format":"mc-scope","version":1,"schema":"mc-scope/v1","kernel":…}
//! {"t":"machine","name":"x5650",…}
//! {"t":"inst","i":0,"text":"movsd (%rsi), %xmm0",…}
//! …
//! {"t":"verdict","class":"dep-chain",…}
//! ```
//!
//! [`decode`] is strict for the current version and refuses future
//! versions with a clear message — a reader never mis-parses a newer
//! format silently.

use crate::profile::{
    BoundScope, CacheStreamScope, CritScope, DepEdgeScope, EvalProfile, InstScope, MachineScope,
    NoteScope, PortBoundScope, PortWindowScope, Record, StallScope, TimelineScope, TopologyScope,
    UopScope, VerdictScope, FORMAT_VERSION,
};
use mc_report::json::{Json, Object};

// ---------------------------------------------------------------- encode

fn strings(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::from(s.as_str())).collect())
}

fn pair(name: &str, value: impl Into<Json>) -> Json {
    Json::Arr(vec![name.into(), value.into()])
}

fn pairs<V: Copy + Into<Json>>(items: &[(String, V)]) -> Json {
    Json::Arr(items.iter().map(|(name, v)| pair(name, *v)).collect())
}

fn encode_record(r: &Record, out: &mut String) {
    let mut o = Object::open(out);
    match r {
        Record::Machine(m) => {
            o.field("t", "machine")
                .field("name", m.name.as_str())
                .field("frontend_width", m.frontend_width)
                .field("load_ports", m.load_ports)
                .field("store_ports", m.store_ports)
                .field("int_alu_ports", m.int_alu_ports)
                .field("fp_add_ports", m.fp_add_ports)
                .field("fp_mul_ports", m.fp_mul_ports)
                .field("div_block_cycles", m.div_block_cycles)
                .field("taken_branch_cycles", m.taken_branch_cycles)
                .field("nominal_ghz", m.nominal_ghz);
        }
        Record::Topology(t) => {
            o.field("t", "topo")
                .field("cores", t.active_cores)
                .field("sockets", Json::Arr(t.sockets.iter().map(|&n| n.into()).collect()))
                .field("bw_gbs", t.socket_bandwidth_gbs)
                .field("bytes_per_iter", t.bytes_per_iteration);
        }
        Record::Inst(i) => {
            let uops = i.uops.iter().map(|u| pair(&u.port, u.latency)).collect();
            o.field("t", "inst")
                .field("i", i.index)
                .field("text", i.text.as_str())
                .field("reads", strings(&i.reads))
                .field("writes", strings(&i.writes))
                .field("fused", i.fused_uops)
                .field("uops", Json::Arr(uops));
        }
        Record::PortBound(b) => {
            o.field("t", "port_bound")
                .field("class", b.class.as_str())
                .field("uops", b.uops)
                .field("cycles", b.cycles);
        }
        Record::Bound(b) => {
            o.field("t", "bound").field("name", b.name.as_str()).field("cycles", b.cycles);
        }
        Record::Note(n) => {
            o.field("t", "note").field("key", n.key.as_str()).field("value", n.value.as_str());
        }
        Record::DepEdge(e) => {
            o.field("t", "dep")
                .field("from", e.from)
                .field("to", e.to)
                .field("reg", e.reg.as_str())
                .field("lat", e.latency)
                .field("carried", e.carried);
        }
        Record::Crit(c) => {
            o.field("t", "crit")
                .field("step", c.step)
                .field("inst", c.inst)
                .field("reg", c.reg.as_str())
                .field("lat", c.latency)
                .field("carried", c.carried);
        }
        Record::Timeline(t) => {
            o.field("t", "tl")
                .field("inst", t.inst)
                .field("iter", t.iteration)
                .field("issue", t.issue)
                .field("dispatch", t.dispatch)
                .field("retire", t.retire)
                .field("port", t.port.as_str())
                .field("wait", t.wait.as_str());
        }
        Record::PortWindow(w) => {
            o.field("t", "pw")
                .field("start", w.start)
                .field("width", w.width)
                .field("busy", pairs(&w.busy));
        }
        Record::Stall(s) => {
            o.field("t", "stall")
                .field("start", s.start)
                .field("end", s.end)
                .field("reason", s.reason.as_str());
        }
        Record::Cache(c) => {
            o.field("t", "cache")
                .field("totals", pairs(&c.totals))
                .field("runs", pairs(&c.runs))
                .field("truncated", c.truncated);
        }
        Record::Verdict(v) => {
            o.field("t", "verdict")
                .field("class", v.class.as_str())
                .field("bound_cycles", v.bound_cycles)
                .field("measured", v.measured_cycles)
                .field("share", v.share)
                .field("runner_up", v.runner_up.as_str())
                .field("runner_up_cycles", v.runner_up_cycles);
        }
    }
    o.close();
}

/// Encodes a profile as versioned JSONL (header line + one record per
/// line, trailing newline).
pub fn encode(profile: &EvalProfile) -> String {
    let mut out = String::new();
    let mut header = Object::open(&mut out);
    header
        .field("format", "mc-scope")
        .field("version", profile.format_version)
        .field("schema", profile.schema.as_str())
        .field("kernel", profile.kernel.as_str())
        .field("program_fp", profile.program_fingerprint.as_str())
        .field("options_fp", profile.options_fingerprint.as_str())
        .field("run_id", profile.run_id.as_str());
    header.close();
    out.push('\n');
    for r in &profile.records {
        encode_record(r, &mut out);
        out.push('\n');
    }
    out
}

// ----------------------------------------------------------------- parse

fn field<'a, T>(
    v: &'a Json,
    key: &str,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    v.get(key).and_then(read).ok_or_else(|| format!("missing {what} field `{key}`"))
}

fn str_of(v: &Json, key: &str) -> Result<String, String> {
    field(v, key, "string", Json::as_str).map(str::to_owned)
}

fn num_of(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key, "numeric", Json::as_f64)
}

/// Counts and indices: an unsigned integer that fits `T`.
fn int_of<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
    field(v, key, "integer", |n| n.as_u64().and_then(|n| T::try_from(n).ok()))
}

fn bool_of(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key, "boolean", Json::as_bool)
}

fn arr_of<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(v, key, "array", Json::as_array)
}

/// `[[name, number], …]` pairs, the number read by `read`.
fn pairs_of<T>(
    v: &Json,
    key: &str,
    read: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<(String, T)>, String> {
    arr_of(v, key)?
        .iter()
        .map(|item| match item.as_array() {
            Some([name, n]) => name.as_str().zip(read(n)).map(|(s, n)| (s.to_owned(), n)),
            _ => None,
        })
        .map(|pair| pair.ok_or_else(|| format!("bad `{key}` pair")))
        .collect()
}

fn strings_of(v: &Json, key: &str) -> Result<Vec<String>, String> {
    arr_of(v, key)?
        .iter()
        .map(|item| item.as_str().map(str::to_owned).ok_or_else(|| format!("bad `{key}` entry")))
        .collect()
}

fn decode_record(v: &Json) -> Result<Record, String> {
    let t = str_of(v, "t")?;
    Ok(match t.as_str() {
        "machine" => Record::Machine(MachineScope {
            name: str_of(v, "name")?,
            frontend_width: num_of(v, "frontend_width")?,
            load_ports: num_of(v, "load_ports")?,
            store_ports: num_of(v, "store_ports")?,
            int_alu_ports: num_of(v, "int_alu_ports")?,
            fp_add_ports: num_of(v, "fp_add_ports")?,
            fp_mul_ports: num_of(v, "fp_mul_ports")?,
            div_block_cycles: num_of(v, "div_block_cycles")?,
            taken_branch_cycles: num_of(v, "taken_branch_cycles")?,
            nominal_ghz: num_of(v, "nominal_ghz")?,
        }),
        "topo" => Record::Topology(TopologyScope {
            active_cores: int_of(v, "cores")?,
            sockets: arr_of(v, "sockets")?
                .iter()
                .map(|s| s.as_u64().and_then(|n| u32::try_from(n).ok()))
                .collect::<Option<_>>()
                .ok_or("bad socket count")?,
            socket_bandwidth_gbs: num_of(v, "bw_gbs")?,
            bytes_per_iteration: num_of(v, "bytes_per_iter")?,
        }),
        "inst" => Record::Inst(InstScope {
            index: int_of(v, "i")?,
            text: str_of(v, "text")?,
            reads: strings_of(v, "reads")?,
            writes: strings_of(v, "writes")?,
            fused_uops: int_of(v, "fused")?,
            uops: pairs_of(v, "uops", Json::as_f64)?
                .into_iter()
                .map(|(port, latency)| UopScope { port, latency })
                .collect(),
        }),
        "port_bound" => Record::PortBound(PortBoundScope {
            class: str_of(v, "class")?,
            uops: num_of(v, "uops")?,
            cycles: num_of(v, "cycles")?,
        }),
        "bound" => {
            Record::Bound(BoundScope { name: str_of(v, "name")?, cycles: num_of(v, "cycles")? })
        }
        "note" => Record::Note(NoteScope { key: str_of(v, "key")?, value: str_of(v, "value")? }),
        "dep" => Record::DepEdge(DepEdgeScope {
            from: int_of(v, "from")?,
            to: int_of(v, "to")?,
            reg: str_of(v, "reg")?,
            latency: num_of(v, "lat")?,
            carried: bool_of(v, "carried")?,
        }),
        "crit" => Record::Crit(CritScope {
            step: int_of(v, "step")?,
            inst: int_of(v, "inst")?,
            reg: str_of(v, "reg")?,
            latency: num_of(v, "lat")?,
            carried: bool_of(v, "carried")?,
        }),
        "tl" => Record::Timeline(TimelineScope {
            inst: int_of(v, "inst")?,
            iteration: int_of(v, "iter")?,
            issue: num_of(v, "issue")?,
            dispatch: num_of(v, "dispatch")?,
            retire: num_of(v, "retire")?,
            port: str_of(v, "port")?,
            wait: str_of(v, "wait")?,
        }),
        "pw" => Record::PortWindow(PortWindowScope {
            start: int_of(v, "start")?,
            width: int_of(v, "width")?,
            busy: pairs_of(v, "busy", Json::as_f64)?,
        }),
        "stall" => Record::Stall(StallScope {
            start: int_of(v, "start")?,
            end: int_of(v, "end")?,
            reason: str_of(v, "reason")?,
        }),
        "cache" => Record::Cache(CacheStreamScope {
            totals: pairs_of(v, "totals", Json::as_u64)?,
            runs: pairs_of(v, "runs", |n| n.as_u64().and_then(|n| u32::try_from(n).ok()))?,
            truncated: int_of(v, "truncated")?,
        }),
        "verdict" => Record::Verdict(VerdictScope {
            class: str_of(v, "class")?,
            bound_cycles: num_of(v, "bound_cycles")?,
            measured_cycles: num_of(v, "measured")?,
            share: num_of(v, "share")?,
            runner_up: str_of(v, "runner_up")?,
            runner_up_cycles: num_of(v, "runner_up_cycles")?,
        }),
        other => return Err(format!("unknown record type `{other}`")),
    })
}

/// Parses and validates a JSONL profile document.
pub fn decode(text: &str) -> Result<EvalProfile, String> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or("empty profile")?;
    let header = Json::parse(header_line).map_err(|e| format!("header: {e}"))?;
    if str_of(&header, "format")? != "mc-scope" {
        return Err("not an mc-scope profile (bad `format` field)".into());
    }
    let version: u32 = int_of(&header, "version")?;
    if version > FORMAT_VERSION {
        return Err(format!(
            "profile format version {version} is newer than this reader (v{FORMAT_VERSION})"
        ));
    }
    if version == 0 {
        return Err("invalid profile format version 0".into());
    }
    let mut profile = EvalProfile {
        format_version: version,
        schema: str_of(&header, "schema")?,
        kernel: str_of(&header, "kernel")?,
        program_fingerprint: str_of(&header, "program_fp")?,
        options_fingerprint: str_of(&header, "options_fp")?,
        run_id: str_of(&header, "run_id")?,
        records: Vec::new(),
    };
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        profile.records.push(decode_record(&v).map_err(|e| format!("line {}: {e}", i + 2))?);
    }
    Ok(profile)
}

/// One-line validation summary, for CI smoke checks:
/// `ok: version 1, kernel <name>, N records`.
pub fn validate(text: &str) -> Result<String, String> {
    let p = decode(text)?;
    Ok(format!(
        "ok: version {}, schema {}, kernel {}, {} records",
        p.format_version,
        p.schema,
        p.kernel,
        p.records.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Collector;
    use crate::sink::ScopeSink;

    fn sample() -> EvalProfile {
        let mut c = Collector::new("hostile \"kernel\"\n\u{7f}\u{2028}");
        c.machine(MachineScope {
            name: "x5650".into(),
            frontend_width: 4.0,
            load_ports: 1.0,
            store_ports: 1.0,
            int_alu_ports: 3.0,
            fp_add_ports: 1.0,
            fp_mul_ports: 1.0,
            div_block_cycles: 22.0,
            taken_branch_cycles: 2.0,
            nominal_ghz: 2.67,
        });
        c.instruction(InstScope {
            index: 0,
            text: "movsd (%rsi), %xmm0".into(),
            reads: vec!["rsi".into()],
            writes: vec!["xmm0".into()],
            fused_uops: 1,
            uops: vec![UopScope { port: "load".into(), latency: 4.0 }],
        });
        c.port_bound(PortBoundScope { class: "load".into(), uops: 1.0, cycles: 1.0 });
        c.bound(BoundScope { name: "frontend".into(), cycles: 0.25 });
        c.note(NoteScope { key: "residence".into(), value: "L1".into() });
        c.dep_edge(DepEdgeScope {
            from: 0,
            to: 0,
            reg: "xmm0".into(),
            latency: 4.0,
            carried: true,
        });
        c.cache_access(0);
        c.cache_access(3);
        c.topology(TopologyScope {
            active_cores: 8,
            sockets: vec![4, 4],
            socket_bandwidth_gbs: 32.0,
            bytes_per_iteration: 16.0,
        });
        let mut p = c.finish();
        p.program_fingerprint = "00000000000000aa".into();
        p.options_fingerprint = "00000000000000bb".into();
        p.set_verdict(VerdictScope {
            class: "port-load".into(),
            bound_cycles: 1.0,
            measured_cycles: 1.2,
            share: 0.83,
            runner_up: "frontend".into(),
            runner_up_cycles: 0.25,
        });
        p
    }

    #[test]
    fn round_trips_bit_exactly() {
        let p = sample();
        let text = encode(&p);
        let back = decode(&text).unwrap();
        assert_eq!(p, back);
        // Encoding is deterministic.
        assert_eq!(text, encode(&back));
    }

    #[test]
    fn hostile_strings_stay_on_one_line() {
        let text = encode(&sample());
        // Raw control characters and JS line separators never appear.
        assert!(text.chars().all(|c| c == '\n'
            || ((c as u32) >= 0x20 && c != '\u{2028}' && c != '\u{2029}' && c != '\u{7f}')));
        // The header is exactly one line and still names the kernel.
        let header = text.lines().next().unwrap();
        assert!(header.contains("\\u2028"));
        assert!(header.contains("\\u007f"));
    }

    #[test]
    fn rejects_future_versions_and_garbage() {
        let mut p = sample();
        p.format_version = FORMAT_VERSION + 1;
        let text = encode(&p);
        let err = decode(&text).unwrap_err();
        assert!(err.contains("newer"), "{err}");
        assert!(decode("").is_err());
        assert!(decode("not json\n").is_err());
        assert!(decode("{\"format\":\"other\",\"version\":1}\n").is_err());
        let valid = encode(&sample());
        let torn = &valid[..valid.len() - 10];
        assert!(decode(torn).is_err(), "torn tail must not parse silently");
    }

    #[test]
    fn unknown_record_type_is_an_error() {
        let mut text = encode(&sample());
        text.push_str("{\"t\":\"mystery\"}\n");
        let err = decode(&text).unwrap_err();
        assert!(err.contains("mystery"), "{err}");
    }

    #[test]
    fn validate_summarizes() {
        let text = encode(&sample());
        let summary = validate(&text).unwrap();
        assert!(summary.starts_with("ok: version 1"), "{summary}");
        assert!(summary.contains("records"));
    }

    #[test]
    fn line_numbers_match_encoding() {
        let p = sample();
        let text = encode(&p);
        let lines: Vec<&str> = text.lines().collect();
        // Record i is on line i+2 (1-based): the verdict is last.
        let (vi, _) =
            p.records.iter().enumerate().find(|(_, r)| matches!(r, Record::Verdict(_))).unwrap();
        assert_eq!(p.line_of(vi), lines.len());
        assert!(lines[p.line_of(vi) - 1].contains("\"verdict\""));
    }
}
