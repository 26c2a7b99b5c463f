//! Harness tests: seed discipline, the traced path being the same
//! program, and `BENCHMARK.json` matching the metric tables.

use rgf2m_bench::{table_v_jobs, BatchRunner};
use rgf2m_core::Method;
use rgf2m_perfbench::common::{END_TO_END, PER_LAYER};
use rgf2m_perfbench::flows::{self, FlowWorkload, Setup};
use rgf2m_perfbench::serve_tcp::{self, Stream};
use rgf2m_perfbench::{reported, WORKLOADS};
use rgf2m_serve::{parse_json, JsonValue};

fn small_flow() -> FlowWorkload {
    FlowWorkload {
        fields: vec![(8, 2)],
        methods: Method::ALL.to_vec(),
    }
}

#[test]
fn same_seed_same_stream_and_exact_metrics_other_seed_other_stream() {
    let a = Stream::new(42);
    assert_eq!(a, Stream::new(42));
    assert_eq!(
        serve_tcp::references(&a),
        serve_tcp::references(&Stream::new(42))
    );

    let b = Stream::new(43);
    assert_ne!(a.cold, b.cold);
    assert_ne!(a.repeat, b.repeat);
    assert_ne!(a.store, b.store);
    assert!(a.pool.iter().zip(&b.pool).all(|(x, y)| x.seed != y.seed));
    // Same jobs, other seeds: only the order and placement seeds move.
    assert!(a
        .pool
        .iter()
        .zip(&b.pool)
        .all(|(x, y)| (&x.field, x.method, x.target) == (&y.field, y.method, y.target)));
}

#[test]
fn stream_exercises_dedup_and_covers_the_pool() {
    let s = Stream::new(2018);
    assert!(
        s.repeat.iter().any(|[a, b]| a == b),
        "simultaneous duplicates"
    );
    let mut cold = s.cold.clone();
    cold.sort_unstable();
    assert_eq!(cold, (0..s.pool.len()).collect::<Vec<_>>());
    let mut replayed: Vec<usize> = s.store.iter().flatten().copied().collect();
    replayed.sort_unstable();
    replayed.dedup();
    assert_eq!(
        replayed.len(),
        s.pool.len(),
        "the store phase replays every job"
    );
}

#[test]
fn flow_jobs_match_the_batch_runner() {
    let w = small_flow();
    let setup = Setup::build(&w);
    let ours: Vec<_> = w
        .jobs(7)
        .into_iter()
        .map(|j| flows::run_job(&setup, j).result)
        .collect();
    let batch = BatchRunner::new()
        .with_base_seed(7)
        .with_threads(2)
        .run(&table_v_jobs(&[(8, 2)]));
    assert_eq!(ours, batch);
}

#[test]
fn flow_runs_repeat_exactly_and_the_traced_path_agrees() {
    let w = small_flow();
    let first = flows::run(&w, 5, 0.0);
    let second = flows::run(&w, 5, 0.0);
    assert_eq!(first.failed, 0, "{:?}", first.mismatches);
    for exact in ["gates_total", "luts_total"] {
        assert_eq!(first.metrics[exact], second.metrics[exact]);
    }
    let traced = flows::run_traced(&w, 5);
    assert_eq!(traced.failed, 0, "{:?}", traced.mismatches);
    assert!(reported(&first, false).is_ok());
    let layers = reported(&traced, true).expect("per-layer metrics never fail");
    assert_eq!(layers.len(), PER_LAYER.len());
    assert_eq!(traced.metrics["map.luts"], first.metrics["luts_total"]);
}

fn names(doc: &JsonValue, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_tables() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let doc = parse_json(&text).expect("valid JSON");
    assert_eq!(names(&doc, "workloads"), WORKLOADS);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&doc, "end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&doc, "per_layer"), layers);
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let units: Vec<&str> = doc
            .get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("unit").and_then(JsonValue::as_str).unwrap())
            .collect();
        let expected: Vec<&str> = table.iter().map(|(_, u)| *u).collect();
        assert_eq!(units, expected, "{key} units");
    }
}
