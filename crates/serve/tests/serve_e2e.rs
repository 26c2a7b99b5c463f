//! End-to-end daemon contract: warm-store replay of the full
//! six-method × four-target GF(2^8) grid with zero recomputations,
//! byte-identical daemon vs in-process reports, singleflight dedup of
//! concurrent identical requests, and graceful drain on shutdown.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Arc;

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use rgf2m_core::Method;
use rgf2m_fpga::{Pipeline, Target};
use rgf2m_serve::client::{Client, ClientJob};
use rgf2m_serve::json::JsonValue;
use rgf2m_serve::net::Endpoint;
use rgf2m_serve::protocol::{
    encode_request, parse_response, FieldSpec, Request, SynthRequest, DEFAULT_SEED,
};
use rgf2m_serve::server::{self, default_template, ServerConfig};
use rgf2m_serve::store::ArtifactStore;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rgf2m-e2e-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn gf256() -> Field {
    Field::from_pentanomial(&TypeIiPentanomial::new(8, 2).expect("(8,2) is the paper's field"))
}

/// The daemon's per-(target, seed) pipeline, reproduced in-process.
fn pipeline_like_daemon(target: Target, seed: u64) -> Pipeline {
    let mut p = default_template();
    if target != p.target() {
        p = p.with_target(target);
    }
    p.with_place_seed(seed)
}

/// Acceptance criterion: a warm-store replay of the six-method ×
/// four-target GF(2^8) grid completes with **zero** pipeline
/// recomputations, asserted via `CacheStats`, and serves reports
/// identical to the cold run's.
#[test]
fn warm_store_replay_of_the_gf256_grid_recomputes_nothing() {
    let store = Arc::new(ArtifactStore::open(scratch("grid")).unwrap());
    let field = gf256();
    let nets: Vec<_> = Method::ALL
        .iter()
        .map(|m| m.generator().generate(&field))
        .collect();
    let grid_size = Method::ALL.len() * Target::ALL.len();
    // Cold pass: every (method, target) cell is a genuine computation.
    let mut cold = Vec::new();
    for target in Target::ALL {
        let p = pipeline_like_daemon(target, DEFAULT_SEED).with_artifact_hook(store.clone());
        for net in &nets {
            cold.push(p.run_report(net).unwrap());
        }
        let stats = p.cache_stats();
        assert_eq!(stats.misses, Method::ALL.len(), "{target:?}: {stats:?}");
    }
    assert_eq!(store.stats().writes, grid_size);
    // Warm replay in "another process": fresh pipelines, same store.
    let mut warm = Vec::new();
    for target in Target::ALL {
        let p = pipeline_like_daemon(target, DEFAULT_SEED).with_artifact_hook(store.clone());
        for net in &nets {
            let (report, _) = p.run_report_sourced(net).unwrap();
            warm.push(report);
        }
        let stats = p.cache_stats();
        assert_eq!(stats.misses, 0, "{target:?} recomputed: {stats:?}");
        assert_eq!(stats.store_hits, Method::ALL.len(), "{target:?}: {stats:?}");
    }
    assert_eq!(warm, cold);
}

/// Daemon answers must be indistinguishable from in-process runs: the
/// reconstructed reports compare equal (floats bit-for-bit), repeat
/// traffic is served from daemon memory, and a daemon restart over the
/// same store serves from disk without recomputing.
#[test]
fn daemon_reports_match_in_process_runs_and_survive_restart() {
    let sock = scratch("daemon.sockdir").join("d.sock");
    fs::create_dir_all(sock.parent().unwrap()).unwrap();
    let store_root = scratch("daemon-store");
    let jobs: Vec<ClientJob> = Method::ALL
        .map(|method| ClientJob {
            field: FieldSpec::Pair { m: 8, n: 2 },
            method,
            target: Target::Artix7,
            seed: DEFAULT_SEED,
        })
        .to_vec();

    let handle =
        server::spawn(ServerConfig::new(Endpoint::Unix(sock.clone())).with_store_root(&store_root))
            .unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let served = client.synth_batch(&jobs).unwrap();

    let field = gf256();
    let reference = pipeline_like_daemon(Target::Artix7, DEFAULT_SEED);
    for (job, outcome) in jobs.iter().zip(&served) {
        let (report, source) = outcome.as_ref().expect("valid job");
        assert_eq!(source, "computed");
        let fresh = reference
            .run_report(&job.method.generator().generate(&field))
            .unwrap();
        assert_eq!(*report, fresh, "{:?}", job.method);
        assert_eq!(report.time_ns.to_bits(), fresh.time_ns.to_bits());
    }
    // Same batch again: every answer now comes from daemon memory.
    for outcome in client.synth_batch(&jobs).unwrap() {
        assert_eq!(outcome.expect("valid job").1, "memory");
    }
    // An invalid job errors without disturbing the daemon.
    let invalid = ClientJob {
        field: FieldSpec::Pair { m: 16, n: 2 },
        ..jobs[0].clone()
    };
    let err = client.synth(&invalid).unwrap().unwrap_err();
    assert!(err.contains("(16, 2) is not a valid type II pentanomial"));
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Restart over the same store: no memory, but every report comes
    // off disk — nothing is recomputed, across processes.
    let handle =
        server::spawn(ServerConfig::new(Endpoint::Unix(sock.clone())).with_store_root(&store_root))
            .unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    for outcome in client.synth_batch(&jobs).unwrap() {
        assert_eq!(outcome.expect("valid job").1, "store");
    }
    let stats = client.stats().unwrap();
    let num = |path: &[&str]| {
        let mut v = &stats;
        for key in path {
            v = v.get(key).unwrap_or_else(|| panic!("stats lacks {path:?}"));
        }
        v.as_f64()
            .unwrap_or_else(|| panic!("{path:?} not a number"))
    };
    assert_eq!(num(&["computed"]), 0.0);
    assert_eq!(num(&["from_store"]), Method::ALL.len() as f64);
    assert_eq!(num(&["store", "hits"]), Method::ALL.len() as f64);
    assert_eq!(num(&["jobs_ok"]), Method::ALL.len() as f64);
    assert_eq!(
        stats.get("schema").and_then(JsonValue::as_str),
        Some("rgf2m-stats/1")
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Singleflight: N concurrent identical requests (over N independent
/// connections) trigger exactly one pipeline computation.
#[test]
fn concurrent_identical_requests_compute_exactly_once() {
    let handle =
        server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into())).with_workers(2))
            .unwrap();
    let endpoint = handle.endpoint().clone();
    const N: usize = 6;
    let job = ClientJob {
        field: FieldSpec::Pair { m: 8, n: 2 },
        method: Method::ProposedFlat,
        target: Target::Artix7,
        seed: DEFAULT_SEED,
    };
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let endpoint = endpoint.clone();
                let job = job.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&endpoint).unwrap();
                    client.synth(&job).unwrap().expect("valid job").0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &reports[1..] {
        assert_eq!(r, &reports[0]);
    }
    let mut client = Client::connect(&endpoint).unwrap();
    let stats = client.stats().unwrap();
    let computed = stats.get("computed").and_then(JsonValue::as_f64).unwrap();
    assert_eq!(computed, 1.0, "identical in-flight jobs must dedup");
    let ok = stats.get("jobs_ok").and_then(JsonValue::as_f64).unwrap();
    assert_eq!(ok, N as f64);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Graceful shutdown drains: jobs pipelined *before* the shutdown op
/// on the same connection are all answered before the daemon exits.
#[test]
fn shutdown_drains_pipelined_work_before_exiting() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let endpoint = handle.endpoint().clone();
    let mut conn = endpoint.connect().unwrap();
    let mut lines = Vec::new();
    for (i, method) in Method::ALL.iter().enumerate() {
        lines.push(encode_request(&Request::Synth(SynthRequest {
            id: 1 + i as u64,
            field: FieldSpec::Pair { m: 8, n: 2 },
            method: *method,
            target: Target::Artix7,
            seed: DEFAULT_SEED,
        })));
    }
    lines.push(encode_request(&Request::Shutdown { id: 99 }));
    conn.write_all((lines.join("\n") + "\n").as_bytes())
        .unwrap();
    conn.flush().unwrap();
    // Every synth job submitted before the shutdown op must be
    // answered; the ack may interleave anywhere.
    let reader = BufReader::new(conn.try_clone().unwrap());
    let mut ok_jobs = 0;
    let mut acked = false;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let resp = parse_response(&line).unwrap();
        if resp.id == 99 {
            acked = true;
        } else {
            assert!(resp.ok, "job {} failed: {:?}", resp.id, resp.error());
            ok_jobs += 1;
        }
        if acked && ok_jobs == Method::ALL.len() {
            break;
        }
    }
    assert!(acked, "shutdown never acknowledged");
    assert_eq!(ok_jobs, Method::ALL.len(), "drain lost answers");
    handle.join().unwrap();
    // The daemon is actually gone.
    assert!(Client::connect(&endpoint).is_err());
}

/// The daemon outlives whoever started it: with its stdout reader gone,
/// the readiness and drain banners fail to write, and it must still
/// serve, drain and exit 0 rather than panic.
#[test]
fn daemon_drains_and_exits_cleanly_with_stdout_closed() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let dir = scratch("closed-stdout");
    fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("served.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_rgf2m-served"))
        .arg("--unix")
        .arg(&socket)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    drop(child.stdout.take());

    let endpoint = Endpoint::Unix(socket);
    let started = Instant::now();
    let mut client = loop {
        match Client::connect(&endpoint) {
            Ok(client) => break client,
            Err(_) if started.elapsed() < Duration::from_secs(20) => {
                if let Some(status) = child.try_wait().unwrap() {
                    panic!("daemon exited before serving: {status}");
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("daemon never came up: {e}"),
        }
    };
    client.shutdown().unwrap();
    let status = child.wait().unwrap();
    assert!(status.success(), "daemon exited with {status}");
    let _ = fs::remove_dir_all(&dir);
}

/// One request line of 100 000 `[` gets an error reply; the daemon
/// keeps serving the same connection instead of overflowing its stack.
#[test]
fn deeply_nested_request_is_answered_with_an_error() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let mut conn = handle.endpoint().connect().unwrap();
    let hostile = "[".repeat(100_000);
    let shutdown = encode_request(&Request::Shutdown { id: 7 });
    conn.write_all(format!("{hostile}\n{shutdown}\n").as_bytes())
        .unwrap();
    conn.flush().unwrap();
    let mut lines = BufReader::new(conn.try_clone().unwrap()).lines();
    let reply = parse_response(&lines.next().unwrap().unwrap()).unwrap();
    assert!(!reply.ok);
    assert!(reply.error().unwrap().contains("nesting"), "{reply:?}");
    let ack = parse_response(&lines.next().unwrap().unwrap()).unwrap();
    assert_eq!((ack.id, ack.ok), (7, true));
    handle.join().unwrap();
}

/// Sends one raw request line and returns the raw reply line.
fn raw_round_trip(endpoint: &Endpoint, line: &str) -> String {
    let mut conn = endpoint.connect().unwrap();
    conn.write_all(format!("{line}\n").as_bytes()).unwrap();
    conn.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).unwrap();
    reply
}

/// The `stats` line of a fresh daemon is fully deterministic (every
/// counter and timing is zero), so its bytes pin the key order at
/// every level, with and without a store.
#[test]
fn fresh_daemon_stats_line_bytes_are_pinned() {
    let dir = scratch("stats-pin");
    for (config, store) in [
        (
            ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into())),
            "null",
        ),
        (
            ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into())).with_store_root(&dir),
            r#"{"hits": 0, "misses": 0, "corrupt": 0, "writes": 0, "write_errors": 0}"#,
        ),
    ] {
        let handle = server::spawn(config.with_workers(1)).unwrap();
        let line = raw_round_trip(handle.endpoint(), r#"{"op": "stats", "id": 5}"#);
        assert_eq!(
            line,
            format!(
                "{{\"id\": 5, \"ok\": true, \"schema\": \"rgf2m-stats/1\", \
                 \"jobs_received\": 0, \"jobs_ok\": 0, \"jobs_failed\": 0, \"dedup_waits\": 0, \
                 \"computed\": 0, \"from_memory\": 0, \"from_store\": 0, \"pipelines\": 0, \
                 \"cache\": {{\"hits\": 0, \"store_hits\": 0, \"misses\": 0, \"inserts\": 0, \"entries\": 0}}, \
                 \"store\": {store}, \"timings\": {{\"generate\": {{\"count\": 0, \"total_us\": 0, \"max_us\": 0}}, \
                 \"synth\": {{\"count\": 0, \"total_us\": 0, \"max_us\": 0}}}}}}\n"
            )
        );
        Client::connect(handle.endpoint())
            .unwrap()
            .shutdown()
            .unwrap();
        handle.join().unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A request line one byte over the cap gets an error reply without
/// being buffered whole; the same connection then keeps working, and
/// so do other connections.
#[test]
fn over_long_request_line_is_answered_with_an_error() {
    let handle = server::spawn(ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))).unwrap();
    let mut conn = handle.endpoint().connect().unwrap();
    let long = "x".repeat(server::MAX_REQUEST_LINE + 1);
    let stats = encode_request(&Request::Stats { id: 2 });
    conn.write_all(format!("{long}\n{stats}\n").as_bytes())
        .unwrap();
    conn.flush().unwrap();
    let mut lines = BufReader::new(conn.try_clone().unwrap()).lines();
    let reply = parse_response(&lines.next().unwrap().unwrap()).unwrap();
    assert!(!reply.ok);
    assert!(reply.error().unwrap().contains("longer than"), "{reply:?}");
    let stats = parse_response(&lines.next().unwrap().unwrap()).unwrap();
    assert_eq!((stats.id, stats.ok), (2, true));
    let mut other = Client::connect(handle.endpoint()).unwrap();
    assert!(other.stats().is_ok());
    other.shutdown().unwrap();
    handle.join().unwrap();
}
