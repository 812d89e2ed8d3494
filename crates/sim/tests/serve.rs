//! In-process integration tests of simulation-as-a-service: a real
//! `Server` on a loopback port, real `Client`s, a real on-disk result
//! store — asserting the cache contract end to end: a warm replay is
//! 100% hits with byte-identical responses, concurrent identical
//! requests deduplicate to one simulation, and shutdown is clean.

// Test helpers panic on failure, like the tests that call them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use iss_sim::{Client, Record, ServeOptions, Server};

/// A 4-point sweep (2 benchmarks × 2 models), small enough to simulate
/// in milliseconds.
const SWEEP_SPEC: &str = r#"
schema = "iss-scenario/v1"
name = "serve-test"
seed = 7
model = "interval"

[machine]
baseline = "hpca2010"

[workload]
kind = "single"
benchmark = "gcc"
length = 2000

[sweep]
benchmarks = ["gcc", "mcf"]
models = ["interval", "one-ipc"]
"#;

/// A single-point spec for the coalescing test.
const POINT_SPEC: &str = r#"
schema = "iss-scenario/v1"
name = "serve-point"
seed = 11
model = "interval"

[machine]
baseline = "hpca2010"

[workload]
kind = "single"
benchmark = "twolf"
length = 2500
"#;

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iss-serve-tests-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Binds a server on a free loopback port and serves it on a background
/// thread. Returns the bound address and the join handle whose `Ok(())`
/// is the clean-shutdown witness.
fn start(tag: &str, workers: usize) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let options = ServeOptions {
        workers,
        cache_dir: cache_dir(tag),
        cache_max_bytes: None,
        evict_on_start: false,
    };
    let server = Server::bind("127.0.0.1:0", &options).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

#[test]
fn a_warm_replay_is_all_hits_and_byte_identical() {
    let (addr, handle) = start("warm", 2);
    let mut client = Client::connect(&addr).expect("connect");

    let cold = client.run(SWEEP_SPEC).expect("cold run");
    assert_eq!(cold.jobs, 4);
    assert_eq!(cold.misses, 4, "an empty store must simulate everything");
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.records.len(), 4);
    assert_eq!(cold.events.len(), 4);
    assert!(cold.records.iter().all(|r| r.failure.is_none()));

    let warm = client.run(SWEEP_SPEC).expect("warm run");
    assert_eq!(warm.hits, 4, "a replay must be 100% cache hits");
    assert_eq!(warm.misses, 0);
    assert!((warm.hit_rate() - 1.0).abs() < f64::EPSILON);
    assert_eq!(
        warm.record_lines, cold.record_lines,
        "cached responses must be byte-identical to the fresh simulation"
    );
    assert!(
        warm.events.iter().all(|e| e.source == "cache"),
        "every point must come from the store"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.jobs, 8);
    assert_eq!(stats.hits, 4);
    assert_eq!(stats.misses, 4);
    assert_eq!(stats.entries, 4);
    assert!(stats.busy_seconds > 0.0);
    assert!(stats.uptime_seconds > 0.0);
    assert!(stats.worker_utilization() <= 1.0);

    client.shutdown().expect("shutdown");
    assert_eq!(
        handle.join().expect("join"),
        Ok(()),
        "shutdown must be clean"
    );
}

#[test]
fn concurrent_identical_requests_deduplicate_to_one_simulation() {
    let (addr, handle) = start("dedupe", 4);
    let clients = 4;
    let barrier = Arc::new(Barrier::new(clients));
    let mut joins = Vec::new();
    for _ in 0..clients {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            barrier.wait();
            client.run(POINT_SPEC).expect("run")
        }));
    }
    let outcomes: Vec<_> = joins.into_iter().map(|j| j.join().expect("join")).collect();

    let first = &outcomes[0].record_lines;
    for outcome in &outcomes {
        assert_eq!(outcome.jobs, 1);
        assert_eq!(
            &outcome.record_lines, first,
            "every requester must see bit-identical responses"
        );
    }
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.misses, 1,
        "identical concurrent requests must run exactly one simulation"
    );
    assert_eq!(
        stats.hits + stats.coalesced,
        clients as u64 - 1,
        "the rest must be answered from cache or the in-flight slot"
    );
    client.shutdown().expect("shutdown");
    assert_eq!(handle.join().expect("join"), Ok(()));
}

#[test]
fn evict_empties_the_store_and_bad_requests_keep_the_connection_alive() {
    let (addr, handle) = start("evict", 2);
    let mut client = Client::connect(&addr).expect("connect");

    // A malformed spec answers with an error event, not a dead socket.
    let err = client.run("schema = \"nope\"").expect_err("bad spec");
    assert!(!err.is_empty());

    let cold = client.run(SWEEP_SPEC).expect("cold run");
    assert_eq!(cold.misses, 4);
    assert_eq!(client.evict().expect("evict"), 4);
    let recold = client.run(SWEEP_SPEC).expect("re-cold run");
    assert_eq!(
        recold.misses, 4,
        "an evicted store must simulate everything again"
    );
    // Two *fresh* simulations agree on every deterministic field (only
    // `host_seconds` differs run to run — byte-identity is the promise
    // between a cached response and the simulation that populated it).
    let canonical = |o: &iss_sim::serve::RunOutcome| {
        o.records.iter().map(Record::canonical).collect::<Vec<_>>()
    };
    assert_eq!(
        canonical(&recold),
        canonical(&cold),
        "re-simulation reproduces the same deterministic fields"
    );

    client.shutdown().expect("shutdown");
    assert_eq!(handle.join().expect("join"), Ok(()));
}

#[test]
fn the_store_outlives_the_server_across_restarts() {
    let options = ServeOptions {
        workers: 2,
        cache_dir: cache_dir("restart"),
        cache_max_bytes: None,
        evict_on_start: false,
    };
    let run_once = |options: &ServeOptions| {
        let server = Server::bind("127.0.0.1:0", options).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || server.serve());
        let mut client = Client::connect(&addr).expect("connect");
        let outcome = client.run(SWEEP_SPEC).expect("run");
        client.shutdown().expect("shutdown");
        assert_eq!(handle.join().expect("join"), Ok(()));
        outcome
    };
    let cold = run_once(&options);
    assert_eq!(cold.misses, 4);
    let warm = run_once(&options);
    assert_eq!(warm.hits, 4, "a fresh server must reuse the on-disk store");
    assert_eq!(warm.record_lines, cold.record_lines);

    // `--evict` clears it on startup.
    let evicting = ServeOptions {
        evict_on_start: true,
        ..options
    };
    let recold = run_once(&evicting);
    assert_eq!(recold.misses, 4, "--evict must start from an empty store");
}

/// A one-point spec small enough that even a mutated-but-valid copy of it
/// (any digit of its length changed) simulates in milliseconds.
const FUZZ_SPEC: &str = r#"schema = "iss-scenario/v1"
name = "serve-fuzz"
[workload]
kind = "single"
benchmark = "gzip"
length = 1000
"#;

/// Fragments for arbitrary request lines: JSON structure, protocol words,
/// escapes, multi-byte characters and bytes that are not UTF-8.
const FRAGMENTS: [&[u8]; 22] = [
    b"{",
    b"}",
    b"[",
    b"]",
    b"\"",
    b":",
    b",",
    b" ",
    b"\\",
    b"\\u12",
    b"\\ud800",
    b"0",
    b"-1e999",
    b"null",
    b"\"cmd\"",
    b"\"run\"",
    b"\"stats\"",
    b"\"spec_toml\"",
    b"\r",
    "é\u{1F600}".as_bytes(),
    b"\xff",
    b"\xc3",
];

/// The reply a request line must draw: `None` for a blank line (ignored),
/// else the terminal event names it may end with.
fn expected_replies(line: &[u8]) -> Option<&'static [&'static str]> {
    let Ok(text) = std::str::from_utf8(line) else {
        return Some(&["error"]);
    };
    let text = text.strip_suffix('\r').unwrap_or(text);
    if text.trim().is_empty() {
        return None;
    }
    let cmd = iss_sim::jsonval::parse(text)
        .ok()
        .and_then(|v| v.get("cmd").and_then(|c| c.as_str().map(str::to_string)));
    Some(match cmd.as_deref() {
        Some("stats") => &["stats"],
        Some("run") => &["done", "error"],
        Some(other) => {
            assert_ne!(other, "shutdown", "generated a shutdown request");
            &["error"]
        }
        None => &["error"],
    })
}

#[test]
fn arbitrary_and_mutated_request_lines_each_draw_an_answer() {
    use std::io::{BufRead, BufReader, Write};

    let (addr, handle) = start("fuzz", 1);
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    // A request the server never answers fails the test instead of
    // hanging it.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // Deterministic xorshift, so a failure names a reproducible input.
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let stats_line = br#"{"cmd": "stats"}"#.to_vec();
    let run_line = format!(
        "{{\"cmd\": \"run\", \"spec_toml\": \"{}\"}}",
        iss_sim::jsonval::escape(FUZZ_SPEC)
    )
    .into_bytes();
    let mut lines: Vec<Vec<u8>> = Vec::new();
    for _ in 0..150 {
        let len = 1 + next(12);
        lines.push(
            (0..len)
                .flat_map(|_| FRAGMENTS[next(FRAGMENTS.len())].to_vec())
                .collect(),
        );
    }
    for base in [&stats_line, &run_line] {
        for _ in 0..60 {
            let mut line = base.clone();
            let at = next(line.len());
            line[at] = [b'"', b'}', b'0', b' ', b'\n', line[at] ^ 0x01, 0xff][next(7)];
            lines.push(line);
        }
        for cut in [1, base.len() / 2, base.len() - 1] {
            lines.push(base[..cut].to_vec());
        }
    }

    for line in &lines {
        writer
            .write_all(&[line.as_slice(), b"\n"].concat())
            .expect("send");
        // A newline inside a line splits it into several requests, each
        // answered in turn.
        for request in line.split(|&b| b == b'\n') {
            let Some(allowed) = expected_replies(request) else {
                continue;
            };
            let event = loop {
                let mut reply = String::new();
                let n = reader.read_line(&mut reply).expect("read reply");
                assert!(
                    n > 0,
                    "server closed the connection on {:?}",
                    String::from_utf8_lossy(request)
                );
                let value = iss_sim::jsonval::parse(reply.trim_end()).expect("reply is JSON");
                let event = value
                    .get("event")
                    .and_then(|e| e.as_str().map(str::to_string));
                // A run streams `job` events before its terminal one.
                if event.as_deref() != Some("job") {
                    break event.unwrap_or_default();
                }
            };
            assert!(
                allowed.contains(&event.as_str()),
                "{:?} drew `{event}`, expected one of {allowed:?}",
                String::from_utf8_lossy(request)
            );
        }
    }

    // The server is still whole: this connection and a fresh one answer.
    writer
        .write_all(b"{\"cmd\": \"stats\"}\n")
        .expect("send stats");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("stats reply");
    assert!(reply.contains("\"stats\""), "{reply}");
    // A clean shutdown waits for open connections to close.
    drop((reader, writer));
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats after the fuzz");
    assert!(stats.requests > 0);
    client.shutdown().expect("shutdown");
    assert_eq!(handle.join().expect("join"), Ok(()));
}
