//! Lossless line-oriented JSON codec for [`Record`] rows.
//!
//! This is the wire format of the sharded sweep machinery: child shard
//! processes stream one record object per line over stdout, the supervisor
//! appends the same lines to the write-ahead checkpoint file, and
//! `iss export --jsonl` emits them for downstream tooling. Unlike the old
//! fixed-precision report rendering, the codec round-trips every
//! deterministic field exactly — `u64` counts stay integers and floats use
//! Rust's shortest-round-trip `Display` — so a parsed record compares equal
//! (canonically) to the in-process original.

use std::fmt::Write as _;

use crate::batch::{FailureKind, JobFailure};
use crate::jsonval::{escape, parse, Json};
use crate::runner::CoreSummary;
use crate::sampling::SamplingEstimate;

use super::record::Record;

/// FNV-1a over little-endian 8-byte words, then the tail bytes: a line
/// checksum that costs an eighth of the byte-wise digest on the store's
/// hit path. Each step XORs one word in and multiplies by an odd constant,
/// both bijections, so changing any one word — any one byte — always
/// changes the sum.
fn checksum(body: &str) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = body.as_bytes().chunks_exact(8);
    for word in &mut words {
        let word = word.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b));
        hash = (hash ^ word).wrapping_mul(PRIME);
    }
    for &byte in words.remainder() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    format!("{hash:016x}")
}

/// Frames one line of a file this crate writes and later trusts (a result
/// store entry, a checkpoint line): the checksum of `body`, a space, then
/// `body`. [`unseal`] refuses a line whose body no longer matches its
/// checksum, so a torn write, bit rot or a hand edit reads as corrupt
/// rather than as a plausible record.
pub(crate) fn seal(body: &str) -> String {
    format!("{} {body}", checksum(body))
}

/// The body of a [`seal`]ed line.
///
/// # Errors
///
/// Returns an error when the line has no checksum or the checksum does
/// not match the body.
pub(crate) fn unseal(line: &str) -> Result<&str, String> {
    let (sum, body) = line
        .split_once(' ')
        .ok_or_else(|| "line has no checksum".to_string())?;
    if checksum(body) == sum {
        Ok(body)
    } else {
        Err("line fails its checksum".to_string())
    }
}

/// Renders one record as a single-line JSON object (no trailing newline).
#[must_use]
pub fn render_record_line(r: &Record) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"sweep\": \"{}\", \"group\": \"{}\", \"variant\": \"{}\", ",
        escape(&r.sweep),
        escape(&r.group),
        escape(&r.variant)
    );
    match &r.benchmark {
        Some(b) => {
            let _ = write!(s, "\"benchmark\": \"{}\", ", escape(b));
        }
        None => s.push_str("\"benchmark\": null, "),
    }
    let _ = write!(
        s,
        "\"digest\": \"{}\", \"workload\": \"{}\", \"cores\": {}, \"seed\": {}, \
         \"cycles\": {}, \"instructions\": {}, \"host_seconds\": {}, \"swaps\": {}, \
         \"cpi\": {}, \"ipc\": {}",
        escape(&r.digest),
        escape(&r.workload),
        r.cores,
        r.seed,
        r.cycles,
        r.instructions,
        r.host_seconds,
        r.swaps,
        r.cpi(),
        r.ipc()
    );
    s.push_str(", \"per_core\": [");
    for (i, c) in r.per_core.iter().enumerate() {
        let _ = write!(
            s,
            "{}[{}, {}, {}]",
            if i == 0 { "" } else { ", " },
            c.core,
            c.instructions,
            c.cycles
        );
    }
    s.push(']');
    if let Some(est) = &r.sampling {
        let _ = write!(
            s,
            ", \"sampling\": {{\"units_total\": {}, \"units_measured\": {}, \
             \"prefix_instructions\": {}, \"measured_instructions\": {}, \"cpi\": {}, \
             \"steady_cpi\": {}, \"aux_slope\": {}, \"cpi_stddev\": {}, \
             \"ci95_half_width\": {}}}",
            est.units_total,
            est.units_measured,
            est.prefix_instructions,
            est.measured_instructions,
            est.cpi,
            est.steady_cpi,
            est.aux_slope,
            est.cpi_stddev,
            est.ci95_half_width
        );
    }
    if let Some(f) = &r.failure {
        let _ = write!(
            s,
            ", \"failure\": {{\"job\": {}, \"workload\": \"{}\", \"seed\": {}, \
             \"model\": \"{}\", \"digest\": \"{}\", \"kind\": \"{}\", \
             \"message\": \"{}\", \"attempts\": {}}}",
            f.job,
            escape(&f.workload),
            f.seed,
            f.model,
            escape(&f.digest),
            f.kind.name(),
            escape(&f.message),
            f.attempts
        );
    }
    s.push('}');
    s
}

fn req<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn req_str(obj: &Json, key: &str) -> Result<String, String> {
    req(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field `{key}` must be a string"))
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    req(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

fn req_usize(obj: &Json, key: &str) -> Result<usize, String> {
    req(obj, key)?
        .as_usize()
        .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

fn req_f64(obj: &Json, key: &str) -> Result<f64, String> {
    req(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` must be a number"))
}

fn sampling_from_json(value: &Json) -> Result<SamplingEstimate, String> {
    Ok(SamplingEstimate {
        units_total: req_u64(value, "units_total")?,
        units_measured: req_u64(value, "units_measured")?,
        prefix_instructions: req_u64(value, "prefix_instructions")?,
        measured_instructions: req_u64(value, "measured_instructions")?,
        cpi: req_f64(value, "cpi")?,
        steady_cpi: req_f64(value, "steady_cpi")?,
        aux_slope: req_f64(value, "aux_slope")?,
        cpi_stddev: req_f64(value, "cpi_stddev")?,
        ci95_half_width: req_f64(value, "ci95_half_width")?,
    })
}

fn failure_from_json(value: &Json) -> Result<JobFailure, String> {
    Ok(JobFailure {
        job: req_usize(value, "job")?,
        workload: req_str(value, "workload")?,
        seed: req_u64(value, "seed")?,
        model: req_str(value, "model")?,
        digest: req_str(value, "digest")?,
        kind: FailureKind::parse(&req_str(value, "kind")?)?,
        message: req_str(value, "message")?,
        attempts: u32::try_from(req_u64(value, "attempts")?)
            .map_err(|_| "field `attempts` overflows u32".to_string())?,
    })
}

/// Rebuilds a record from its parsed JSON object. Strict about the fields
/// the codec writes; derived conveniences (`cpi`, `ipc`) and unknown extras
/// are tolerated and ignored.
///
/// # Errors
///
/// Returns a message naming the offending field on any missing or
/// mistyped field.
pub fn record_from_json(value: &Json) -> Result<Record, String> {
    if value.as_obj().is_none() {
        return Err("record line must be a JSON object".to_string());
    }
    let benchmark = match value.get("benchmark") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "field `benchmark` must be a string or null".to_string())?,
        ),
    };
    let mut per_core = Vec::new();
    for (i, entry) in req(value, "per_core")?
        .as_arr()
        .ok_or_else(|| "field `per_core` must be an array".to_string())?
        .iter()
        .enumerate()
    {
        let triple = entry.as_arr().filter(|t| t.len() == 3).ok_or_else(|| {
            format!("`per_core[{i}]` must be a [core, instructions, cycles] triple")
        })?;
        per_core.push(CoreSummary {
            core: triple[0]
                .as_usize()
                .ok_or_else(|| format!("`per_core[{i}]` core index must be an integer"))?,
            instructions: triple[1]
                .as_u64()
                .ok_or_else(|| format!("`per_core[{i}]` instructions must be an integer"))?,
            cycles: triple[2]
                .as_u64()
                .ok_or_else(|| format!("`per_core[{i}]` cycles must be an integer"))?,
        });
    }
    let sampling = match value.get("sampling") {
        None | Some(Json::Null) => None,
        Some(v) => Some(sampling_from_json(v)?),
    };
    let failure = match value.get("failure") {
        None | Some(Json::Null) => None,
        Some(v) => Some(failure_from_json(v)?),
    };
    Ok(Record {
        sweep: req_str(value, "sweep")?,
        group: req_str(value, "group")?,
        variant: req_str(value, "variant")?,
        benchmark,
        digest: req_str(value, "digest")?,
        workload: req_str(value, "workload")?,
        cores: req_usize(value, "cores")?,
        seed: req_u64(value, "seed")?,
        per_core,
        cycles: req_u64(value, "cycles")?,
        instructions: req_u64(value, "instructions")?,
        host_seconds: req_f64(value, "host_seconds")?,
        swaps: req_u64(value, "swaps")?,
        sampling,
        failure,
    })
}

/// Parses one record line produced by [`render_record_line`].
///
/// # Errors
///
/// Returns the JSON or field error for a malformed line.
pub fn parse_record_line(line: &str) -> Result<Record, String> {
    record_from_json(&parse(line)?)
}

/// Renders records as line-delimited JSON: one object per line, blank-line
/// free, trailing newline. The columnar format of `iss export --jsonl` and
/// the sweep checkpoint body.
#[must_use]
pub fn render_records_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&render_record_line(r));
        out.push('\n');
    }
    out
}

/// Parses a line-delimited record stream (blank lines are skipped).
///
/// # Errors
///
/// Returns the offending 1-based line number with the underlying error.
pub fn parse_records_jsonl(text: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(parse_record_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(records)
}

/// Renders records as a machine-readable JSON document (schema
/// `iss-records/v2`): the same lossless one-line objects as
/// [`render_records_jsonl`], wrapped in a `{schema, records}` envelope.
#[must_use]
pub fn render_records_json(records: &[Record]) -> String {
    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"iss-records/v2\",\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {}{}",
            render_record_line(r),
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    j.push_str("  ]\n}\n");
    j
}

/// Parses an `iss-records/v2` document back into records.
///
/// # Errors
///
/// Returns a message on malformed JSON, a wrong/missing schema tag, or any
/// malformed record object.
pub fn parse_records_json(text: &str) -> Result<Vec<Record>, String> {
    let doc = parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| "document has no `schema` field".to_string())?;
    if schema != "iss-records/v2" {
        return Err(format!(
            "expected schema `iss-records/v2`, found `{schema}`"
        ));
    }
    let items = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or_else(|| "document has no `records` array".to_string())?;
    let mut records = Vec::new();
    for (i, item) in items.iter().enumerate() {
        records.push(record_from_json(item).map_err(|e| format!("records[{i}]: {e}"))?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::record::fnv1a_hex;

    fn record(variant: &str, cycles: u64, insts: u64, host: f64) -> Record {
        Record {
            sweep: "test".to_string(),
            group: "gcc".to_string(),
            variant: variant.to_string(),
            benchmark: Some("gcc".to_string()),
            digest: fnv1a_hex(variant),
            workload: "gcc".to_string(),
            cores: 1,
            seed: 42,
            per_core: vec![CoreSummary {
                core: 0,
                instructions: insts,
                cycles,
            }],
            cycles,
            instructions: insts,
            host_seconds: host,
            swaps: 0,
            sampling: None,
            failure: None,
        }
    }

    fn sampled_record() -> Record {
        let mut r = record("sampled", 2_000, 1_000, 0.125);
        r.sampling = Some(SamplingEstimate {
            units_total: 10,
            units_measured: 3,
            prefix_instructions: 100,
            measured_instructions: 300,
            cpi: 2.000_4,
            steady_cpi: 2.0,
            aux_slope: 0.1,
            cpi_stddev: 0.01,
            ci95_half_width: 0.05,
        });
        r
    }

    fn quarantined_record() -> Record {
        Record::from_failure(
            "test",
            "mcf",
            "interval",
            Some("mcf"),
            JobFailure {
                job: 3,
                workload: "mcf".to_string(),
                seed: 7,
                model: "interval".to_string(),
                digest: "abc123".to_string(),
                kind: FailureKind::Timeout,
                message: "no record within 300 ms \"deadline\"".to_string(),
                attempts: 2,
            },
        )
    }

    #[test]
    fn every_record_shape_round_trips_exactly() {
        let records = vec![
            record("detailed", 2_000, 1_000, 4.0),
            sampled_record(),
            quarantined_record(),
        ];
        let parsed = parse_records_jsonl(&render_records_jsonl(&records)).unwrap();
        assert_eq!(records, parsed);
    }

    #[test]
    fn host_seconds_round_trips_at_full_precision() {
        let mut r = record("interval", 2_000, 1_000, 0.0);
        r.host_seconds = 0.123_456_789_012_345_68;
        let parsed = parse_record_line(&render_record_line(&r)).unwrap();
        assert_eq!(r.host_seconds.to_bits(), parsed.host_seconds.to_bits());
    }

    #[test]
    fn json_document_wraps_the_same_objects() {
        let records = vec![record("detailed", 2_000, 1_000, 4.0), sampled_record()];
        let doc = render_records_json(&records);
        assert!(doc.contains("iss-records/v2"));
        assert_eq!(parse_records_json(&doc).unwrap(), records);
        // The document embeds exactly the JSONL lines.
        for line in render_records_jsonl(&records).lines() {
            assert!(doc.contains(line));
        }
    }

    #[test]
    fn malformed_lines_fail_with_the_line_number() {
        let good = render_record_line(&record("interval", 2_000, 1_000, 1.0));
        let text = format!("{good}\n{{\"sweep\": \"x\"}}\n");
        let err = parse_records_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn unknown_failure_kinds_are_rejected() {
        let mut line = render_record_line(&quarantined_record());
        line = line.replace("\"kind\": \"timeout\"", "\"kind\": \"gremlins\"");
        let err = parse_record_line(&line).unwrap_err();
        assert!(err.contains("unknown failure kind"), "{err}");
    }

    #[test]
    fn wrong_schema_documents_are_rejected() {
        let doc = render_records_json(&[record("interval", 2_000, 1_000, 1.0)]);
        let old = doc.replace("iss-records/v2", "iss-records/v1");
        let err = parse_records_json(&old).unwrap_err();
        assert!(err.contains("expected schema"), "{err}");
    }
}
