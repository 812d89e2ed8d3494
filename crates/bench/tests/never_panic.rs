//! Never-panic properties for the text decoders that read outside input:
//! every `ISS_*` knob parser, the JSON reader, and the golden-accuracy and
//! perf-file parsers behind the CI gates. Each must return `Ok` or `Err`
//! on any input — arbitrary bytes, token soup, mutated valid documents and
//! every truncation of the checked-in gate files — and never panic.

use proptest::prelude::*;

use iss_bench::gates::{parse_golden_accuracy, parse_perf_file};
use iss_sim::env::TABLE;
use iss_sim::jsonval;

const GOLDEN: &str = include_str!("../../../ci/golden_accuracy.json");
const BASELINE: &str = include_str!("../../../ci/BENCH_baseline.json");

/// JSON-ish fragments, so generated text reaches deep into the grammar.
const TOKENS: [&str; 24] = [
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
];

/// Runs every decoder on `text`; reaching the end means none panicked.
fn decode_everything(text: &str) {
    for (_, check) in TABLE {
        let _ = check(Some(text));
    }
    let _ = jsonval::parse(text);
    let _ = parse_golden_accuracy(text);
    let _ = parse_perf_file(text);
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
fn the_checked_in_gate_files_parse() {
    let golden = parse_golden_accuracy(GOLDEN).unwrap();
    assert_eq!(golden.rows.len(), 66);
    let baseline = parse_perf_file(BASELINE).unwrap();
    assert_eq!(baseline.models.len(), 5);
    assert_eq!(baseline.kernels.len(), 4);
    assert!(baseline.reference_kernel_mops.is_some());
}
