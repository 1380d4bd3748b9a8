//! The run's result: operation counts, named metrics with units, run
//! context, and the per-layer reduction of a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::replay::{LayerCounts, RealRuns};
use crate::speed::HostSpeed;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;

#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    context: Vec<(&'static str, String)>,
}

impl Report {
    /// Counts one operation (a spec run, a request or a check), failed when
    /// `error` is set.
    pub fn attempt(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(error) = error {
            self.failed += 1;
            eprintln!("check failed: {error}");
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn context_num(&mut self, key: &'static str, value: f64) {
        self.context.push((key, json_number(value)));
    }

    pub fn context_int(&mut self, key: &'static str, value: u64) {
        self.context.push((key, value.to_string()));
    }

    pub fn context_list(&mut self, key: &'static str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
        self.context.push((key, format!("[{}]", items.join(","))));
    }

    pub fn context_str(&mut self, key: &'static str, value: &str) {
        self.context.push((key, format!("\"{}\"", escape(value))));
    }

    /// The run is correct when nothing failed, something ran, and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, value, _)| value.is_finite())
    }

    pub fn context_json(&self) -> String {
        let fields: Vec<String> = self
            .context
            .iter()
            .map(|(key, value)| format!("\"{key}\":{value}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// Reports the host-time metrics — `setup_s`, `wall_s`, `req_p50_ms`,
    /// `req_p99_ms` and `miss_p50_ms`, in this order — at the reference host
    /// speed: `setup_s` times `setup_factor`, the host-speed factor of the
    /// set-up phase, and the others times the factor of the timed phase,
    /// `speed`. The raw values and the factors go to the context.
    pub fn host_times(&mut self, setup_factor: f64, speed: &HostSpeed, raw: [f64; 5]) {
        const NAMES: [(&str, &str, &str); 5] = [
            ("setup_s", "raw_setup_s", "s"),
            ("wall_s", "raw_wall_s", "s"),
            ("req_p50_ms", "raw_req_p50_ms", "ms"),
            ("req_p99_ms", "raw_req_p99_ms", "ms"),
            ("miss_p50_ms", "raw_miss_p50_ms", "ms"),
        ];
        let factor = speed.factor();
        for (i, ((name, raw_name, unit), value)) in NAMES.into_iter().zip(raw).enumerate() {
            let scale = if i == 0 { setup_factor } else { factor };
            self.metric(name, value * scale, unit);
            self.context_num(raw_name, value);
        }
        self.context_num("setup_host_speed", setup_factor);
        self.context_num("host_speed", factor);
        self.context_int("host_speed_samples", speed.samples() as u64);
    }

    /// Writes the tracer's spans as Chrome trace-event JSON to
    /// `.bench_out/trace-<workload>.json` under the working directory.
    pub fn write_trace(&mut self, args: &Args, tracer: &Tracer) {
        let path = format!(".bench_out/trace-{}.json", args.workload.name());
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(&self.context_json())));
        match written {
            Ok(()) => {
                self.context_str("trace_file", &path);
                self.context_int("trace_spans", tracer.len() as u64);
            }
            Err(error) => self.attempt(Some(format!("writing {path}: {error}"))),
        }
    }
}

/// Finite values print with every digit Rust's shortest round-trip form
/// gives; anything else prints as `null` (and makes the run incorrect).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The replay's layer spans inside `P2::run` other than the search, whose
/// time comes from the real run.
const CHILD_SPANS: [&str; 4] = [
    "placement.enumerate",
    "synthesis.lower",
    "cost.predict",
    "exec.measure",
];

/// One traced repetition: the replay's self time per span name, the host
/// seconds of its `P2::run` replays, and the real runs it replayed.
struct TracedRep {
    own: BTreeMap<&'static str, f64>,
    replay_s: f64,
    real: RealRuns,
}

/// The traced repetitions of a run.
#[derive(Default)]
pub struct TracedReps {
    reps: Vec<TracedRep>,
}

impl TracedReps {
    pub fn add(&mut self, tracer: &Tracer, real: RealRuns) {
        self.reps.push(TracedRep {
            own: tracer.self_seconds(),
            replay_s: tracer.durations("core.run").iter().sum(),
            real,
        });
    }

    /// Median over repetitions of `f(repetition)`; 0 without a traced
    /// repetition.
    fn median_of(&self, f: impl Fn(&TracedRep) -> f64) -> f64 {
        let per_rep: Vec<f64> = self.reps.iter().map(f).collect();
        if per_rep.is_empty() {
            0.0
        } else {
            median(&per_rep)
        }
    }

    /// Median over repetitions of the summed self time of spans named in
    /// `names`.
    pub fn seconds(&self, names: &[&str]) -> f64 {
        self.median_of(|rep| span_seconds(&rep.own, names))
    }
}

fn span_seconds(own: &BTreeMap<&'static str, f64>, names: &[&str]) -> f64 {
    names.iter().filter_map(|name| own.get(name)).sum()
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The per-layer metrics of the pipeline layers. Layer times are the
/// replay's self times, except two that come from the real runs: the search
/// time `P2::run` reports itself, and `core.self_s`, the real runs' time
/// minus the layer times (replayed, and the real search).
pub fn layer_metrics(report: &mut Report, reps: &TracedReps, counts: &LayerCounts) {
    report.metric("exec.measure_s", reps.seconds(&["exec.measure"]), "s");
    report.metric("exec.measure_calls", counts.measure_calls as f64, "count");
    report.metric(
        "exec.steps_simulated",
        counts.steps_simulated as f64,
        "count",
    );
    report.metric("synthesis.lower_s", reps.seconds(&["synthesis.lower"]), "s");
    report.metric(
        "synthesis.lowered_steps",
        counts.lowered_steps as f64,
        "count",
    );
    report.metric("cost.predict_s", reps.seconds(&["cost.predict"]), "s");
    report.metric("cost.calls", counts.cost_calls as f64, "count");
    report.metric(
        "cost.cache_hit_ratio",
        ratio(counts.cost_cache_hits, counts.cost_cache_misses),
        "ratio",
    );
    report.metric(
        "core.self_s",
        reps.median_of(|rep| {
            rep.real.run_s - rep.real.search_s - span_seconds(&rep.own, &CHILD_SPANS)
        }),
        "s",
    );
    report.metric(
        "core.programs_retained",
        counts.programs_retained as f64,
        "count",
    );
    report.metric(
        "synthesis.search_s",
        reps.median_of(|rep| rep.real.search_s),
        "s",
    );
    report.metric(
        "synthesis.states_explored",
        counts.states_explored as f64,
        "count",
    );
    report.metric(
        "synthesis.memo_hit_ratio",
        ratio(counts.memo_hits, counts.memo_misses),
        "ratio",
    );
    report.metric(
        "placement.enumerate_s",
        reps.seconds(&["placement.enumerate"]),
        "s",
    );
    report.metric("placement.matrices", counts.matrices as f64, "count");
    report.metric("par.steals", counts.steals as f64, "count");
    report.metric("par.peak_in_flight", counts.peak_in_flight as f64, "count");
    // The replay's own loop work: every span that is not a layer's.
    report.metric(
        "trace.unattributed_s",
        reps.seconds(&["bench.rep", "core.run", "core.placement", "core.shortlist"]),
        "s",
    );
    // Traced replays minus the untraced runs of the same sessions, each
    // replay right after its run.
    report.metric(
        "trace.overhead_s",
        reps.median_of(|rep| rep.replay_s - rep.real.run_s),
        "s",
    );
    report.context_num("real_run_s", reps.median_of(|rep| rep.real.run_s));
    report.context_num("replay_run_s", reps.median_of(|rep| rep.replay_s));
    report.context_num("replay_search_s", reps.seconds(&["synthesis.search"]));
}

/// The service-layer metrics, in this order: fingerprint, store get and
/// store insert times, hit ratio, disk hits, syntheses, coalesced requests
/// and peak queue depth. A workload without a planner reports zeros.
pub fn service_metrics(report: &mut Report, values: [f64; 8]) {
    const NAMES: [(&str, &str); 8] = [
        ("service.fingerprint_us", "us"),
        ("service.store_get_us", "us"),
        ("service.store_insert_us", "us"),
        ("service.hit_ratio", "ratio"),
        ("service.disk_hits", "count"),
        ("service.syntheses", "count"),
        ("service.coalesced", "count"),
        ("service.peak_queue_depth", "count"),
    ];
    for ((name, unit), value) in NAMES.into_iter().zip(values) {
        report.metric(name, value, unit);
    }
}
