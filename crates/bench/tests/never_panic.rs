//! Never-panic properties for the text decoders that read outside input:
//! every `ISS_*` knob parser, the JSON reader, the golden-accuracy and
//! perf-file parsers behind the CI gates, the scenario-file TOML subset and
//! the JSONL record reader. Each must return `Ok` or `Err` on any input —
//! arbitrary bytes, token soup, mutated valid documents, every truncation of
//! the checked-in gate and scenario files and of a rendered record line —
//! and never panic.

use proptest::prelude::*;

use iss_bench::gates::{parse_golden_accuracy, parse_perf_file};
use iss_sim::env::TABLE;
use iss_sim::jsonval;
use iss_sim::scenario::{parse_record_line, parse_records_jsonl, render_record_line};
use iss_sim::{CoreSummary, Record, SamplingEstimate, SweepSpec};

const GOLDEN: &str = include_str!("../../../ci/golden_accuracy.json");
const BASELINE: &str = include_str!("../../../ci/BENCH_baseline.json");
const SCENARIO: &str = include_str!("../../../examples/scenarios/hetero-quad-no-l2-sampled.toml");

/// JSON- and TOML-ish fragments, so generated text reaches deep into both
/// grammars.
const TOKENS: [&str; 32] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    ":",
    ",",
    " ",
    "0",
    "-1",
    "2.5e3",
    "\\u00e9",
    "\\u12",
    "null",
    "true",
    "NaN",
    "-inf",
    "é",
    "\u{1F600}",
    "\"schema\"",
    "\"rows\"",
    "\"models\"",
    "panic:3",
    "=",
    "\n",
    "#",
    "[sweep]",
    "[[template]]",
    "schema = \"iss-scenario/v1\"",
    "models = [\"interval\"",
    "\"sampled-detailed-1in2@2000w400p4\"",
];

/// One rendered JSONL line of a sampled two-core record, so every field the
/// record reader knows appears in it.
fn record_line() -> String {
    let per_core = (0..2)
        .map(|core| CoreSummary {
            core,
            instructions: 5_000,
            cycles: 9_000 + core as u64,
        })
        .collect();
    render_record_line(&Record {
        sweep: "sampling".to_string(),
        group: "mcf/2c".to_string(),
        variant: "sampled-detailed-1in2@2000w400p4".to_string(),
        benchmark: Some("mcf".to_string()),
        digest: "0123456789abcdef".to_string(),
        workload: "2x mcf".to_string(),
        cores: 2,
        seed: 42,
        per_core,
        cycles: 9_001,
        instructions: 10_000,
        host_seconds: 0.125,
        swaps: 3,
        sampling: Some(SamplingEstimate {
            units_total: 10,
            units_measured: 3,
            prefix_instructions: 1_000,
            measured_instructions: 3_000,
            cpi: 1.8,
            steady_cpi: 1.75,
            aux_slope: -0.5,
            cpi_stddev: 0.25,
            ci95_half_width: 0.0625,
        }),
        failure: None,
    })
}

/// Every checked-in scenario file.
fn scenario_files() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

/// Runs every decoder on `text`; reaching the end means none panicked.
fn decode_everything(text: &str) {
    for (_, check) in TABLE {
        let _ = check(Some(text));
    }
    let _ = jsonval::parse(text);
    let _ = parse_golden_accuracy(text);
    let _ = parse_perf_file(text);
    let _ = SweepSpec::from_toml(text);
    let _ = parse_record_line(text);
    let _ = parse_records_jsonl(text);
}

/// `doc` with each `(position, byte)` edit applied, read back lossily.
fn mutate(doc: &str, edits: &[(usize, u8)]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(at, byte) in edits {
        let at = at % bytes.len();
        match byte % 3 {
            0 => bytes[at] = byte,
            1 => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        decode_everything(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0..TOKENS.len(), 0..48)) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        decode_everything(&text);
    }

    #[test]
    fn mutated_gate_files_never_panic(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        decode_everything(&mutate(GOLDEN, &edits));
        decode_everything(&mutate(BASELINE, &edits));
    }

    #[test]
    fn mutated_scenarios_and_record_lines_never_panic(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..8),
    ) {
        decode_everything(&mutate(SCENARIO, &edits));
        let line = record_line();
        decode_everything(&mutate(&line, &edits));
        decode_everything(&mutate(&format!("{line}\n{line}\n"), &edits));
    }
}

#[test]
fn every_truncation_of_the_gate_files_is_handled() {
    for doc in [GOLDEN, BASELINE] {
        // Only the trailing newline can go without losing the document.
        for end in 0..doc.trim_end().len() {
            let prefix = String::from_utf8_lossy(&doc.as_bytes()[..end]);
            let _ = jsonval::parse(&prefix);
            assert!(parse_golden_accuracy(&prefix).is_err(), "{end}-byte prefix");
            assert!(parse_perf_file(&prefix).is_err(), "{end}-byte prefix");
        }
    }
}

#[test]
fn every_truncation_of_the_scenario_files_is_handled() {
    let files = scenario_files();
    assert!(files.len() >= 10, "the scenario examples must be found");
    for doc in &files {
        assert!(SweepSpec::from_toml(doc).is_ok());
        for end in 0..doc.len() {
            let prefix = String::from_utf8_lossy(&doc.as_bytes()[..end]);
            let _ = SweepSpec::from_toml(&prefix);
        }
    }
}

#[test]
fn every_truncation_of_a_record_line_is_handled() {
    let line = record_line();
    let full = parse_record_line(&line).unwrap();
    assert_eq!(render_record_line(&full), line);
    assert_eq!(
        parse_records_jsonl(&format!("{line}\n")).unwrap(),
        vec![full]
    );
    for end in 1..line.len() {
        let prefix = String::from_utf8_lossy(&line.as_bytes()[..end]);
        assert!(parse_record_line(&prefix).is_err(), "{end}-byte prefix");
        assert!(parse_records_jsonl(&prefix).is_err(), "{end}-byte prefix");
    }
}

#[test]
fn the_checked_in_gate_files_parse() {
    let golden = parse_golden_accuracy(GOLDEN).unwrap();
    assert_eq!(golden.rows.len(), 66);
    let baseline = parse_perf_file(BASELINE).unwrap();
    assert_eq!(baseline.models.len(), 5);
    assert_eq!(baseline.kernels.len(), 4);
    assert!(baseline.reference_kernel_mops.is_some());
}
