//! What every workload shares: the metric tables, the run outcome,
//! order statistics, set-up timing and the process's peak memory.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rgf2m_fpga::ImplReport;

use crate::trace::Trace;

/// End-to-end metrics `(name, unit)`: every workload reports each of
/// them with tracing off. Keep in step with `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("gates_total", "gates"),
    ("luts_total", "LUTs"),
];

/// Per-layer metrics `(name, unit)`: every workload reports each of
/// them in the traced run, `0` where the layer does not run. Keep in
/// step with `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 49] = [
    // core.gen / gf2m
    ("field.ms", "ms"),
    ("gen.ms", "ms"),
    ("gen.gates", "gates"),
    // fpga.resynth, fpga.map, fpga.lint, sampled verify
    ("resynth.ms", "ms"),
    ("resynth.gates_out", "gates"),
    ("map.ms", "ms"),
    ("map.luts", "LUTs"),
    ("map.depth", "levels"),
    ("lint.ms", "ms"),
    ("lint.findings", "count"),
    ("verify.ms", "ms"),
    // fpga.pack
    ("pack.ms", "ms"),
    ("pack.slices", "slices"),
    ("pack.fill", "ratio"),
    // fpga.place
    ("place.ms", "ms"),
    ("place.proposals", "count"),
    ("place.accepted", "count"),
    ("place.accept_ratio", "ratio"),
    ("place.hpwl_final", "units"),
    // fpga.timing
    ("sta.ms", "ms"),
    ("sta.endpoints", "count"),
    // the paper's result, exact per seed
    ("report.slices_total", "slices"),
    ("report.critical_ns_geomean", "ns"),
    ("report.axt_geomean", "LUT.ns"),
    // static certificates
    ("mul_spec.ms", "ms"),
    ("delay_spec.ms", "ms"),
    ("area_spec.ms", "ms"),
    ("formal_src.ms", "ms"),
    ("formal_mapped.ms", "ms"),
    ("strash.ms", "ms"),
    ("strash.saved", "gates"),
    ("audit.checks", "count"),
    ("audit.violations", "count"),
    // serve
    ("protocol.encode_us", "us"),
    ("protocol.parse_us", "us"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("server.computed", "count"),
    ("server.from_memory", "count"),
    ("server.from_store", "count"),
    ("server.dedup_waits", "count"),
    ("server.generate_ms", "ms"),
    ("server.synth_ms", "ms"),
    ("server.hit_ratio", "ratio"),
    ("client.hit_count", "count"),
    ("client.cold_ms_p50", "ms"),
    ("client.transport_ms_p50", "ms"),
    // accounting
    ("flow.unaccounted_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Fewest fresh set-ups timed per [`SetupTimer::round`].
pub const SETUP_REPS: usize = 11;
/// Each round of set-ups continues until this many seconds have gone by.
pub const SETUP_SECS: f64 = 0.25;
/// [`SetupTimer::during`] rests this many times a set-up's duration
/// between set-ups.
pub const SAMPLER_REST: u32 = 49;

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (designs run or audited, requests sent).
    pub attempted: usize,
    /// Attempted operations that failed: a flow error, an error reply,
    /// an I/O error, an audit violation or a correctness mismatch.
    pub failed: usize,
    /// One line per mismatch, for the log.
    pub mismatches: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced run's spans, as JSON lines.
    pub spans_jsonl: Option<String>,
}

impl Outcome {
    /// Records a failed operation and why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.mismatches.push(why);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The accounting check: the spans named `root` must be covered by
    /// their child spans to within [`UNACCOUNTED_TOLERANCE`]. Reports the
    /// uncovered time as `flow.unaccounted_ms`.
    pub fn account(&mut self, trace: &Trace, root: &str) {
        let root_ms = trace.total_ms(root);
        let unaccounted = trace.unaccounted_ms(root);
        if unaccounted > UNACCOUNTED_TOLERANCE * root_ms {
            self.fail(format!(
                "child spans leave {unaccounted:.1} ms of {root_ms:.1} ms of `{root}` unaccounted"
            ));
        }
        self.set("flow.unaccounted_ms", unaccounted);
    }
}

/// The largest share of a traced unit of work (a design, or a serve
/// pass) that its child spans may leave uncovered.
pub const UNACCOUNTED_TOLERANCE: f64 = 0.02;

/// Sets the exact report metrics: gate and LUT totals end to end,
/// slices and the paper's time and area×time per layer.
pub fn report_metrics(reports: &[ImplReport], out: &mut Outcome, traced: bool) {
    if traced {
        out.set(
            "report.slices_total",
            reports.iter().map(|r| r.slices).sum::<usize>() as f64,
        );
        let ns: Vec<f64> = reports.iter().map(|r| r.time_ns).collect();
        let axt: Vec<f64> = reports.iter().map(ImplReport::area_time).collect();
        out.set("report.critical_ns_geomean", geomean(&ns));
        out.set("report.axt_geomean", geomean(&axt));
    } else {
        out.set(
            "gates_total",
            reports
                .iter()
                .map(|r| r.and_gates + r.xor_gates)
                .sum::<usize>() as f64,
        );
        out.set(
            "luts_total",
            reports.iter().map(|r| r.luts).sum::<usize>() as f64,
        );
    }
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0..=1`); `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Times fresh set-ups, either in rounds before and after the timed
/// phase or on a second thread all through it. One set-up can last about
/// a millisecond, and on a shared host memory-bound code drifts in speed
/// over seconds, so `setup_s` is the median over many set-ups spread
/// across the run.
#[derive(Debug, Default)]
pub struct SetupTimer {
    times: Vec<f64>,
}

impl SetupTimer {
    /// One round: builds at least [`SETUP_REPS`] times and for at least
    /// [`SETUP_SECS`], timing each build, and tears down every build but
    /// the last, which it returns.
    pub fn round<T>(
        &mut self,
        mut build: impl FnMut(usize) -> T,
        mut teardown: impl FnMut(T),
    ) -> T {
        let start = Instant::now();
        let mut last = None;
        let mut reps = 0;
        while reps < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECS {
            if let Some(prev) = last.take() {
                teardown(prev);
            }
            let t0 = Instant::now();
            let built = build(self.times.len());
            self.times.push(t0.elapsed().as_secs_f64());
            last = Some(built);
            reps += 1;
        }
        last.expect("at least one set-up")
    }

    /// Runs `work` while a second thread keeps timing fresh set-ups,
    /// resting [`SAMPLER_REST`] times as long as each one took (about 2 %
    /// of a core), so set-up is sampled all through the timed phase.
    pub fn during<T, S>(&mut self, build: impl Fn() -> S + Sync, work: impl FnOnce() -> T) -> T {
        let stop = AtomicBool::new(false);
        let (out, samples) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut samples = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    drop(build());
                    let took = t0.elapsed();
                    samples.push(took.as_secs_f64());
                    let until = Instant::now() + took * SAMPLER_REST;
                    while !stop.load(Ordering::Relaxed) && Instant::now() < until {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
                samples
            });
            let out = work();
            stop.store(true, Ordering::Relaxed);
            (out, sampler.join().expect("set-up sampler panicked"))
        });
        self.times.extend(samples);
        out
    }

    /// The median set-up time so far, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs timed passes until `seconds` have elapsed (at least one pass).
/// Each pass's output is dropped before the next pass starts, so every
/// pass sees the same memory. Returns each pass's wall time in seconds
/// and the last pass's output.
pub fn timed_passes<T>(seconds: f64, mut pass: impl FnMut() -> T) -> (Vec<f64>, T) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut last: Option<T> = None;
    loop {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(pass());
        walls.push(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (walls, last.expect("at least one pass"))
}

/// Runs `f(0..n)` on up to `threads` scoped workers pulling indices in
/// order; results come back in index order.
pub fn fan<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every index ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn setup_keeps_the_last_build() {
        let mut timer = SetupTimer::default();
        let mut torn = Vec::new();
        let last = timer.round(|rep| rep, |prev| torn.push(prev));
        assert_eq!(last + 1, torn.len() + 1);
        assert_eq!(torn, (0..last).collect::<Vec<_>>());
        assert!(last + 1 >= SETUP_REPS);
        assert!(timer.median_s() >= 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
