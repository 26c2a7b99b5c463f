//! `serve-tcp`: an in-process daemon (`server::spawn`) on 127.0.0.1
//! TCP with a fresh store, driven by a closed loop of two connections
//! that each wait for their reply. One pass runs three phases over a
//! seeded pool of distinct jobs:
//!
//! 1. **cold** — every pool job once, split over the connections; the
//!    daemon computes each one;
//! 2. **repeat** — seeded pairs of pool jobs, one per connection; about
//!    a quarter of the pairs send the same job on both connections at
//!    once (so singleflight dedup runs); all are memory hits;
//! 3. **restart + store** — the daemon is shut down and respawned over
//!    the same store, and seeded replays hit the store.
//!
//! The daemon runs in-process because `rgf2m-served` panics in
//! `println!` at drain when its stdout reader has gone.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use rgf2m_bench::job_seed_from;
use rgf2m_core::Method;
use rgf2m_fpga::{ImplReport, Pipeline, Target};
use rgf2m_serve::client::{Client, ClientJob};
use rgf2m_serve::net::Endpoint;
use rgf2m_serve::protocol::{
    encode_request, encode_synth_ok, parse_response, FieldSpec, Request, SynthRequest,
};
use rgf2m_serve::server::{self, default_template, ServerConfig, ServerHandle};
use rgf2m_serve::{ArtifactStore, JsonValue};

use crate::common::{
    fan, median, peak_rss_mb, percentile, report_metrics, timed_passes, Outcome, SetupTimer,
};
use crate::trace::Trace;

/// Fields of the job pool.
pub const FIELDS: [(usize, usize); 2] = [(8, 2), (64, 23)];
/// Targets of the job pool.
pub const TARGETS: [Target; 2] = [Target::Artix7, Target::Spartan3];
/// Memory-hit steps per pass (one request per connection each).
pub const REPEAT_STEPS: usize = 96;
/// Store-hit steps per pass (one request per connection each).
pub const STORE_STEPS: usize = 24;
/// Client connections and daemon workers: one per core of a 2-core host.
pub const CONNS: usize = 2;

/// The phase a request belongs to, and the source its reply must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Computed by the daemon.
    Cold,
    /// Served from the daemon's memory.
    Repeat,
    /// Served from the store after the restart.
    Store,
}

impl Phase {
    fn source(self) -> &'static str {
        match self {
            Phase::Cold => "computed",
            Phase::Repeat => "memory",
            Phase::Store => "store",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Phase::Cold => "cold",
            Phase::Repeat => "repeat",
            Phase::Store => "store",
        }
    }
}

/// The request stream one seed gives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Distinct jobs; job `i` anneals with `job_seed_from(seed, i)`.
    pub pool: Vec<ClientJob>,
    /// Pool indices in cold order (a seeded permutation).
    pub cold: Vec<usize>,
    /// Per repeat step, the pool index each connection sends.
    pub repeat: Vec<[usize; CONNS]>,
    /// Per store step, the pool index each connection sends.
    pub store: Vec<[usize; CONNS]>,
}

fn permutation(n: usize, draw: impl Fn(usize) -> u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| draw(i));
    order
}

impl Stream {
    /// The pool and stream of `seed`.
    pub fn new(seed: u64) -> Stream {
        let mut pool = Vec::new();
        for &(m, n) in &FIELDS {
            for target in TARGETS {
                for method in Method::ALL {
                    pool.push(ClientJob {
                        field: FieldSpec::Pair { m, n },
                        method,
                        target,
                        seed: job_seed_from(seed, pool.len()),
                    });
                }
            }
        }
        let len = pool.len();
        let draw = |salt: u64, k: usize| job_seed_from(seed ^ salt, k);
        let cold = permutation(len, |i| draw(0xC01D, i));
        let repeat = (0..REPEAT_STEPS)
            .map(|k| {
                let r = draw(0x4E7, k);
                let a = (r % len as u64) as usize;
                let b = if (r >> 32) % 4 == 0 {
                    a
                } else {
                    ((r >> 16) % len as u64) as usize
                };
                [a, b]
            })
            .collect();
        let replay = permutation(len, |i| draw(0x5702E, i));
        let store = (0..STORE_STEPS)
            .map(|k| [replay[(2 * k) % len], replay[(2 * k + 1) % len]])
            .collect();
        Stream {
            pool,
            cold,
            repeat,
            store,
        }
    }

    /// The in-process pipeline that must reproduce pool job `i`.
    pub fn pipeline(&self, i: usize) -> Pipeline {
        let job = &self.pool[i];
        let mut p = default_template();
        if job.target != p.target() {
            p = p.with_target(job.target);
        }
        p.with_place_seed(job.seed)
    }
}

/// A directory removed when dropped.
#[derive(Debug)]
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> io::Result<TempDir> {
        let path = PathBuf::from(".bench_out").join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running daemon and its two client connections.
struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
}

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(CONNS)
}

impl Daemon {
    /// Binds a daemon over `store`, opens the connections and makes one
    /// `stats` round trip.
    fn start(store: &Path) -> io::Result<Daemon> {
        let config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()))
            .with_store_root(store)
            .with_workers(workers());
        let handle = server::spawn(config)?;
        let mut clients = (0..CONNS)
            .map(|_| Client::connect(handle.endpoint()))
            .collect::<io::Result<Vec<_>>>()?;
        clients[0].stats()?;
        Ok(Daemon { handle, clients })
    }

    /// Drains the daemon and waits for its thread.
    fn stop(mut self) -> io::Result<()> {
        self.clients[0].shutdown()?;
        drop(self.clients);
        self.handle.join()
    }
}

/// The daemon set-up `setup_s` times: a store directory, `spawn`, the
/// connections and one `stats` round trip.
fn set_up(tag: &str) -> io::Result<(TempDir, Daemon)> {
    let dir = TempDir::new(tag)?;
    let daemon = Daemon::start(dir.path())?;
    Ok((dir, daemon))
}

/// One answered request.
#[derive(Debug)]
struct Req {
    phase: Phase,
    job: usize,
    ms: f64,
    reply: Result<(ImplReport, String), String>,
}

/// Daemon counters read from `stats`.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    computed: f64,
    from_memory: f64,
    from_store: f64,
    dedup_waits: f64,
    generate_us: f64,
    synth_us: f64,
    executions: f64,
}

impl Stats {
    fn read(client: &mut Client) -> io::Result<Stats> {
        let doc = client.stats()?;
        let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
        let timing = |stage: &str, key: &str| {
            num(doc
                .get("timings")
                .and_then(|t| t.get(stage))
                .and_then(|s| s.get(key)))
        };
        Ok(Stats {
            computed: num(doc.get("computed")),
            from_memory: num(doc.get("from_memory")),
            from_store: num(doc.get("from_store")),
            dedup_waits: num(doc.get("dedup_waits")),
            generate_us: timing("generate", "total_us"),
            synth_us: timing("synth", "total_us"),
            executions: timing("synth", "count"),
        })
    }

    /// Mean daemon generate + synth time per execution since `before`, in ms.
    fn busy_ms_since(&self, before: &Stats) -> f64 {
        let us = (self.generate_us - before.generate_us) + (self.synth_us - before.synth_us);
        us / 1e3 / (self.executions - before.executions).max(1.0)
    }
}

/// What one pass leaves: its requests, its wall time, the stats read at
/// the phase boundaries (traced only) and the store it filled.
struct PassLog {
    requests: Vec<Req>,
    wall_s: f64,
    /// Daemon 1 after cold, daemon 1 after repeat, daemon 2 after store.
    stats: Option<[Stats; 3]>,
    store: TempDir,
}

fn send(client: &mut Client, stream: &Stream, phase: Phase, job: usize) -> Req {
    let t0 = Instant::now();
    let reply = match client.synth(&stream.pool[job]) {
        Ok(outcome) => outcome,
        Err(e) => Err(format!("i/o: {e}")),
    };
    Req {
        phase,
        job,
        ms: t0.elapsed().as_secs_f64() * 1e3,
        reply,
    }
}

fn request_span(
    trace: Option<&Trace>,
    parent: Option<usize>,
    phase: Phase,
    conn: usize,
    k: usize,
    job: usize,
) -> Option<usize> {
    trace.map(|t| {
        t.open(
            &format!("request.{}", phase.name()),
            parent,
            &format!("c{conn}:{}:{k}:job{job}", phase.name()),
        )
    })
}

fn close(trace: Option<&Trace>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (trace, id) {
        t.close(id);
    }
}

/// Cold phase: both connections pull the next job of the cold order.
fn cold_phase(
    d: &mut Daemon,
    stream: &Stream,
    trace: Option<&Trace>,
    parent: Option<usize>,
) -> Vec<Req> {
    let next = AtomicUsize::new(0);
    let log = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (conn, client) in d.clients.iter_mut().enumerate() {
            let (next, log) = (&next, &log);
            s.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&job) = stream.cold.get(k) else {
                    break;
                };
                let span = request_span(trace, parent, Phase::Cold, conn, k, job);
                let req = send(client, stream, Phase::Cold, job);
                close(trace, span);
                log.lock().expect("log poisoned").push(req);
            });
        }
    });
    log.into_inner().expect("log poisoned")
}

/// Paired phase: connection `c` sends `steps[k][c]` for every step `k`.
fn paired_phase(
    d: &mut Daemon,
    stream: &Stream,
    steps: &[[usize; CONNS]],
    phase: Phase,
    trace: Option<&Trace>,
    parent: Option<usize>,
) -> Vec<Req> {
    let barrier = Barrier::new(d.clients.len());
    let log = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (conn, client) in d.clients.iter_mut().enumerate() {
            let (barrier, log) = (&barrier, &log);
            s.spawn(move || {
                // Both connections start together, then each sends its
                // next job when its reply arrives. They meet again only
                // before a step that sends one job on both, so the
                // duplicates are simultaneous. A barrier on every step
                // would park the faster connection for most of a round
                // trip, which keeps the kernel's delayed-ACK heuristics
                // from settling and splits hit latency into two modes.
                // Never leave the loop early: the other connection may
                // be waiting at the barrier.
                barrier.wait();
                for (k, step) in steps.iter().enumerate() {
                    if step.iter().all(|&job| job == step[0]) {
                        barrier.wait();
                    }
                    let span = request_span(trace, parent, phase, conn, k, step[conn]);
                    let req = send(client, stream, phase, step[conn]);
                    close(trace, span);
                    log.lock().expect("log poisoned").push(req);
                }
            });
        }
    });
    log.into_inner().expect("log poisoned")
}

fn phase_span<T>(
    trace: Option<&Trace>,
    name: &str,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    let id = trace.map(|t| t.open(name, parent, "pass"));
    let out = f(id);
    close(trace, id);
    out
}

/// One pass over a fresh daemon: cold, repeat, restart, store.
fn run_pass(
    store: TempDir,
    mut d: Daemon,
    stream: &Stream,
    trace: Option<&Trace>,
) -> io::Result<PassLog> {
    let t0 = Instant::now();
    let root = trace.map(|t| t.open("pass", None, "pass"));
    let mut requests = phase_span(trace, "phase.cold", root, |p| {
        cold_phase(&mut d, stream, trace, p)
    });
    let stats_cold = phase_span(trace, "stats", root, |_| {
        trace.map(|_| Stats::read(&mut d.clients[0])).transpose()
    })?;
    requests.extend(phase_span(trace, "phase.repeat", root, |p| {
        paired_phase(&mut d, stream, &stream.repeat, Phase::Repeat, trace, p)
    }));
    let stats_repeat = phase_span(trace, "stats", root, |_| {
        trace.map(|_| Stats::read(&mut d.clients[0])).transpose()
    })?;
    let mut d = phase_span(trace, "phase.restart", root, |_| {
        d.stop()?;
        Daemon::start(store.path())
    })?;
    requests.extend(phase_span(trace, "phase.store", root, |p| {
        paired_phase(&mut d, stream, &stream.store, Phase::Store, trace, p)
    }));
    let stats_store = phase_span(trace, "stats", root, |_| {
        trace.map(|_| Stats::read(&mut d.clients[0])).transpose()
    })?;
    close(trace, root);
    let wall_s = t0.elapsed().as_secs_f64();
    d.stop()?;
    let stats = match (stats_cold, stats_repeat, stats_store) {
        (Some(a), Some(b), Some(c)) => Some([a, b, c]),
        _ => None,
    };
    Ok(PassLog {
        requests,
        wall_s,
        stats,
        store,
    })
}

/// In-process `run_report` of every pool job: what each reply must equal.
pub fn references(stream: &Stream) -> Vec<Result<ImplReport, String>> {
    fan(stream.pool.len(), workers(), |i| {
        let job = &stream.pool[i];
        let field = job.field.build_field()?;
        let net = job.method.generator().generate(&field);
        stream
            .pipeline(i)
            .run_report(&net)
            .map_err(|e| e.to_string())
    })
}

/// Checks every reply against the in-process report and its phase's
/// source label.
fn check(requests: &[Req], refs: &[Result<ImplReport, String>], out: &mut Outcome) {
    for r in requests {
        match (&r.reply, &refs[r.job]) {
            (Err(e), _) => out.fail(format!("{} request for job {}: {e}", r.phase.name(), r.job)),
            (Ok(_), Err(e)) => out.fail(format!("job {}: in-process run failed: {e}", r.job)),
            (Ok((report, source)), Ok(reference)) => {
                if report != reference {
                    out.fail(format!(
                        "{} reply for job {} differs from run_report",
                        r.phase.name(),
                        r.job
                    ));
                } else if source != r.phase.source() {
                    out.fail(format!(
                        "{} reply for job {} came from {source}",
                        r.phase.name(),
                        r.job
                    ));
                }
            }
        }
    }
}

fn hit_ms(requests: &[Req]) -> Vec<f64> {
    requests
        .iter()
        .filter(|r| r.phase != Phase::Cold)
        .map(|r| r.ms)
        .collect()
}

/// Starts the next pass's daemon: the set-up one for the first pass, a
/// fresh one (not timed) after that.
fn next_daemon(
    first: &mut Option<(TempDir, Daemon)>,
    pass: usize,
) -> io::Result<(TempDir, Daemon)> {
    match first.take() {
        Some(d) => Ok(d),
        None => set_up(&format!("pass{pass}")),
    }
}

/// One round of timed daemon set-ups; every set-up but the last is
/// drained. The first error, if any, wins.
fn setup_round(timer: &mut SetupTimer, tag: &str) -> io::Result<(TempDir, Daemon)> {
    let mut err = None;
    let last = timer.round(
        |rep| set_up(&format!("{tag}{rep}")),
        |built| match built.and_then(|(dir, d)| d.stop().map(|()| drop(dir))) {
            Ok(()) => {}
            Err(e) => err = err.take().or(Some(e)),
        },
    );
    match err {
        Some(e) => Err(e),
        None => last,
    }
}

fn ok_reports(refs: &[Result<ImplReport, String>]) -> Vec<ImplReport> {
    refs.iter()
        .filter_map(|r| r.as_ref().ok().cloned())
        .collect()
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let stream = Stream::new(seed);
    let mut timer = SetupTimer::default();
    let first = match setup_round(&mut timer, "setup") {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("daemon set-up failed: {e}"));
            return out;
        }
    };
    let mut first = Some(first);
    let mut requests = Vec::new();
    let mut walls = Vec::new();
    let mut passes = 0;
    let (_, last) = timed_passes(seconds, || {
        let log =
            next_daemon(&mut first, passes).and_then(|(dir, d)| run_pass(dir, d, &stream, None));
        passes += 1;
        if let Ok(log) = &log {
            walls.push(log.wall_s);
        }
        log.map(|log| requests.extend(log.requests))
    });
    let rss = peak_rss_mb();
    out.attempted = requests.len().max(1);
    if let Err(e) = last.and_then(|()| setup_round(&mut timer, "resetup")?.1.stop()) {
        out.fail(format!("pass failed: {e}"));
        return out;
    }
    let refs = references(&stream);
    check(&requests, &refs, &mut out);
    let hits = hit_ms(&requests);
    out.set("setup_s", timer.median_s());
    out.set("wall_s", median(&walls));
    out.set("op_ms_p50", median(&hits));
    out.set("op_ms_p95", percentile(&hits, 0.95));
    out.set("peak_rss_mb", rss);
    report_metrics(&ok_reports(&refs), &mut out, false);
    out
}

/// Times `encode_request` on every request line of the pass and
/// `parse_response` on every reply line, in µs per line.
fn protocol_us(requests: &[Req], stream: &Stream) -> (f64, f64) {
    let (mut encode, mut parse, mut lines) = (0.0, 0.0, 0usize);
    for (id, r) in requests.iter().enumerate() {
        let job = &stream.pool[r.job];
        let req = SynthRequest {
            id: id as u64,
            field: job.field.clone(),
            method: job.method,
            target: job.target,
            seed: job.seed,
        };
        let Ok((report, source)) = &r.reply else {
            continue;
        };
        let request = Request::Synth(req.clone());
        let t0 = Instant::now();
        let line = encode_request(&request);
        encode += t0.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(line);
        let reply = encode_synth_ok(&req, report, source);
        let t0 = Instant::now();
        let parsed = parse_response(&reply);
        parse += t0.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(parsed.ok());
        lines += 1;
    }
    (encode / lines.max(1) as f64, parse / lines.max(1) as f64)
}

/// Times `ArtifactStore::load` on the pass's store and `save` into a
/// scratch store, in ms per document; a load that misses or disagrees
/// with the in-process report is a failure.
fn store_ms(
    stream: &Stream,
    store: &Path,
    refs: &[Result<ImplReport, String>],
    out: &mut Outcome,
) -> io::Result<(f64, f64)> {
    let filled = ArtifactStore::open(store)?;
    let scratch_dir = TempDir::new("scratch")?;
    let scratch = ArtifactStore::open(scratch_dir.path())?;
    let (mut load, mut save, mut docs) = (0.0, 0.0, 0usize);
    for (i, reference) in refs.iter().enumerate() {
        let Ok(reference) = reference else { continue };
        let job = &stream.pool[i];
        let field = job.field.build_field().map_err(io::Error::other)?;
        let net = job.method.generator().generate(&field);
        let (hash, fingerprint) = (net.content_hash(), stream.pipeline(i).options_fingerprint());
        let t0 = Instant::now();
        let loaded = filled.load(net.name(), hash, fingerprint);
        load += t0.elapsed().as_secs_f64() * 1e3;
        if loaded.as_ref() != Some(reference) {
            out.fail(format!("store document of job {i} is missing or differs"));
        }
        let t0 = Instant::now();
        let saved = scratch.save(hash, fingerprint, reference);
        save += t0.elapsed().as_secs_f64() * 1e3;
        if !saved {
            out.fail(format!("store save of job {i} failed"));
        }
        docs += 1;
    }
    Ok((load / docs.max(1) as f64, save / docs.max(1) as f64))
}

/// The traced run: one untraced reference pass, then a traced pass
/// that reads `stats` at each phase boundary; then the protocol and
/// store layers are timed on the pass's own lines and documents.
pub fn run_traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let stream = Stream::new(seed);
    let trace = Trace::new();
    let logs = set_up("reference")
        .and_then(|(dir, d)| run_pass(dir, d, &stream, None))
        .and_then(|reference| {
            let (dir, d) = set_up("traced")?;
            Ok((reference, run_pass(dir, d, &stream, Some(&trace))?))
        });
    let (reference, traced) = match logs {
        Ok(logs) => logs,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("pass failed: {e}"));
            return out;
        }
    };
    out.attempted = reference.requests.len() + traced.requests.len();
    let refs = references(&stream);
    check(&reference.requests, &refs, &mut out);
    check(&traced.requests, &refs, &mut out);

    let [cold, repeat, store] = traced.stats.expect("a traced pass reads stats");
    // `repeat` is daemon 1's running total, `store` daemon 2's.
    let computed = repeat.computed + store.computed;
    let from_memory = repeat.from_memory + store.from_memory;
    let from_store = repeat.from_store + store.from_store;
    out.set("server.computed", computed);
    out.set("server.from_memory", from_memory);
    out.set("server.from_store", from_store);
    out.set("server.dedup_waits", repeat.dedup_waits + store.dedup_waits);
    out.set(
        "server.generate_ms",
        (repeat.generate_us + store.generate_us) / 1e3,
    );
    out.set("server.synth_ms", (repeat.synth_us + store.synth_us) / 1e3);
    out.set(
        "server.hit_ratio",
        (from_memory + from_store) / (computed + from_memory + from_store),
    );

    // Transport: hit latency minus the daemon's mean generate + synth
    // time per execution in the hit's phase.
    let busy_repeat = repeat.busy_ms_since(&cold);
    let busy_store = store.busy_ms_since(&Stats::default());
    let transport: Vec<f64> = traced
        .requests
        .iter()
        .filter_map(|r| match r.phase {
            Phase::Cold => None,
            Phase::Repeat => Some(r.ms - busy_repeat),
            Phase::Store => Some(r.ms - busy_store),
        })
        .collect();
    let cold64: Vec<f64> = traced
        .requests
        .iter()
        .filter(|r| {
            r.phase == Phase::Cold && stream.pool[r.job].field == FieldSpec::Pair { m: 64, n: 23 }
        })
        .map(|r| r.ms)
        .collect();
    out.set("client.hit_count", hit_ms(&traced.requests).len() as f64);
    out.set("client.cold_ms_p50", median(&cold64));
    out.set("client.transport_ms_p50", median(&transport));

    let (encode_us, parse_us) = protocol_us(&traced.requests, &stream);
    out.set("protocol.encode_us", encode_us);
    out.set("protocol.parse_us", parse_us);
    match store_ms(&stream, traced.store.path(), &refs, &mut out) {
        Ok((load, save)) => {
            out.set("store.load_ms", load);
            out.set("store.save_ms", save);
        }
        Err(e) => out.fail(format!("store timing failed: {e}")),
    }

    out.account(&trace, "pass");
    out.set("trace.overhead_ratio", traced.wall_s / reference.wall_s);
    report_metrics(&ok_reports(&refs), &mut out, true);
    out.spans_jsonl = Some(trace.to_jsonl());
    out
}
