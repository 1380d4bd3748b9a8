//! The `planner_mix` workload: two closed-loop clients call `Planner::plan`
//! with requests drawn from a seeded Zipf distribution over a fixed family
//! of distinct plan requests. Set-up writes a third of the family to an
//! on-disk plan store, so the timed rounds see warm hits, disk hits,
//! coalesced waits and misses.
//!
//! No recorded planner traffic exists to derive the mix from, so its
//! parameters are assumptions: Zipf exponent 1.0, every third member on
//! disk, buffer sizes of the spec's own and an eighth of it, 1000 requests
//! per client per round. With 2000 draws over 56 members even the least
//! popular one is drawn about 7.8 times per round, so a round almost surely
//! requests every member: its composition is fixed at 37 syntheses and 19
//! disk hits, the rest (about 1944) warm or coalesced hits. That is by
//! design, so `wall_s` does not move with the seed; the seed orders the
//! requests, which decides what waits behind a miss and what coalesces.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use p2_bench::{table3_specs, table4_specs, ExperimentSpec};
use p2_core::{run_batch, BatchOptions, ExperimentResult, RunMode};
use p2_cost::NcclAlgo;
use p2_service::{
    Fingerprint, Plan, PlanEntry, PlanRequest, PlanSource, PlanStore, Planner, PlannerConfig,
};

use crate::replay::{run_then_replay, LayerCounts, RealRuns};
use crate::report::{layer_metrics, service_metrics, Report, TracedReps};
use crate::speed::HostSpeed;
use crate::stats::{median, percentile, SplitMix64, Zipf};
use crate::sweep::{check_measured, quality_metrics};
use crate::sys;
use crate::trace::Tracer;
use crate::Args;

/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Requests each client sends per round.
const REQUESTS_PER_CLIENT: usize = 1000;
/// Zipf exponent of request popularity (family index = popularity rank).
const ZIPF_S: f64 = 1.0;
/// Every `PREPOPULATE_EVERY`-th family member is on disk before a round.
const PREPOPULATE_EVERY: usize = 3;
/// Worker threads of the planner's synthesis pool.
const POOL_WORKERS: usize = 1;
/// Distinct requests in the family; pinned so a change to the spec list or
/// to fingerprinting shows.
const FAMILY_SIZE: usize = 56;

/// The request family: every `sweep_batch` spec for both NCCL algorithms and
/// two buffer sizes, in shortlist mode with bounded retention, deduplicated by
/// fingerprint. Every request carries the workload seed as its noise seed.
fn family(seed: u64) -> Vec<(PlanRequest, Fingerprint)> {
    let mut specs: Vec<ExperimentSpec> = Vec::new();
    for (id, system, nodes, axes) in table3_specs() {
        for reduction in [0, 1] {
            specs.push(ExperimentSpec::new(
                id,
                system,
                nodes,
                axes.clone(),
                vec![reduction],
                NcclAlgo::Ring,
            ));
        }
    }
    specs.extend(table4_specs());
    let mut out: Vec<(PlanRequest, Fingerprint)> = Vec::new();
    for spec in &specs {
        for algo in [NcclAlgo::Ring, NcclAlgo::Tree] {
            for bytes in [spec.bytes_per_device(), spec.bytes_per_device() / 8.0] {
                let request = PlanRequest::new(
                    spec.system.system(spec.nodes),
                    spec.axes.clone(),
                    spec.reduction.clone(),
                )
                .with_algo(algo)
                .with_bytes_per_device(bytes)
                .with_seed(seed)
                .with_mode(RunMode::Shortlist(10))
                .with_keep_top(8);
                let fingerprint = request.fingerprint();
                if out.iter().all(|(_, f)| *f != fingerprint) {
                    out.push((request, fingerprint));
                }
            }
        }
    }
    out
}

/// One client's requests for one round, as family indices.
fn stream(seed: u64, round: usize, client: usize, zipf: &Zipf) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ ((round as u64) << 20) ^ ((client as u64) << 40));
    (0..REQUESTS_PER_CLIENT)
        .map(|_| zipf.sample(&mut rng))
        .collect()
}

fn prepopulated(index: usize) -> bool {
    index.is_multiple_of(PREPOPULATE_EVERY)
}

/// Plans the prepopulated part of the family the way the planner's miss path
/// does — a batch on a one-worker pool, then `Plan::from_result` — and writes
/// each plan to a persistent store in `dir`.
fn set_up(
    family: &[(PlanRequest, Fingerprint)],
    dir: &Path,
) -> Result<Vec<(ExperimentResult, Arc<Plan>)>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = PlanStore::persistent(FAMILY_SIZE, dir).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (request, fingerprint) in family.iter().step_by(PREPOPULATE_EVERY) {
        let session = request.session().map_err(|e| e.to_string())?;
        let outcome = run_batch(&[session], &BatchOptions::with_threads(POOL_WORKERS), &())
            .map_err(|e| e.to_string())?;
        let result = outcome.results.into_iter().next().ok_or("empty batch")?;
        let plan = Arc::new(Plan::from_result(*fingerprint, &result, request.top_k));
        store.insert(Arc::clone(&plan)).map_err(|e| e.to_string())?;
        out.push((result, plan));
    }
    Ok(out)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// The checks every served plan must pass: it answers the request, its
/// entries are ranked by measured time, and every time is finite and
/// positive.
fn check_plan(plan: &Plan, fingerprint: Fingerprint, top_k: usize) -> Result<(), String> {
    if plan.fingerprint != fingerprint {
        return Err(format!(
            "plan {} served for {fingerprint}",
            plan.fingerprint
        ));
    }
    if plan.entries.is_empty() || plan.entries.len() > top_k {
        return Err(format!(
            "{fingerprint}: {} plan entries",
            plan.entries.len()
        ));
    }
    let positive = |t: f64| t.is_finite() && t > 0.0;
    if plan
        .entries
        .iter()
        .any(|e| !positive(e.predicted_seconds) || !positive(e.measured_seconds))
    {
        return Err(format!("{fingerprint}: a plan time is not positive"));
    }
    if plan
        .entries
        .windows(2)
        .any(|w| w[0].measured_seconds > w[1].measured_seconds)
    {
        return Err(format!("{fingerprint}: plan entries not ranked"));
    }
    Ok(())
}

/// The first plan served for each fingerprint; every later answer for the
/// same fingerprint must carry identical entries.
#[derive(Default)]
struct Served(Mutex<HashMap<u128, Vec<PlanEntry>>>);

impl Served {
    fn check(&self, plan: &Plan) -> Result<(), String> {
        let mut seen = self.0.lock().expect("served map poisoned");
        let first = seen
            .entry(plan.fingerprint.0)
            .or_insert_with(|| plan.entries.clone());
        if *first == plan.entries {
            Ok(())
        } else {
            Err(format!(
                "{}: plan changed between answers",
                plan.fingerprint
            ))
        }
    }
}

/// One timed round's outcome.
struct Round {
    wall_s: f64,
    /// (latency in ms, source) of every request.
    latencies: Vec<(f64, PlanSource)>,
    hit_ratio: f64,
    warm_hits: u64,
    disk_hits: u64,
    syntheses: u64,
    coalesced: u64,
    peak_queue_depth: u64,
}

/// Runs one round: a fresh planner over a fresh copy of the prepopulated
/// store, and `CLIENTS` closed-loop clients sending their streams.
fn run_round(
    family: &[(PlanRequest, Fingerprint)],
    streams: &[Vec<usize>],
    template: &Path,
    dir: &Path,
    served: &Served,
    report: &Mutex<&mut Report>,
) -> Result<Round, String> {
    copy_dir(template, dir).map_err(|e| format!("copying the store: {e}"))?;
    let planner = Planner::new(PlannerConfig {
        threads: POOL_WORKERS,
        store_dir: Some(dir.to_path_buf()),
        ..PlannerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let latencies: Vec<Vec<(f64, PlanSource)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(client, stream)| {
                let planner = &planner;
                scope.spawn(move || {
                    let tenant = format!("client{client}");
                    let mut out = Vec::with_capacity(stream.len());
                    for &index in stream {
                        let (request, fingerprint) = &family[index];
                        let request = request.clone();
                        let sent = Instant::now();
                        let response = planner.plan(&tenant, request);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let outcome = response.map_err(|e| e.to_string()).and_then(|response| {
                            check_plan(&response.plan, *fingerprint, family[index].0.top_k)?;
                            served.check(&response.plan)?;
                            Ok(response.source)
                        });
                        match outcome {
                            Ok(source) => {
                                report.lock().expect("report poisoned").attempt(None);
                                out.push((latency_ms, source));
                            }
                            Err(error) => {
                                report.lock().expect("report poisoned").attempt(Some(error))
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = planner.stats();
    planner.shutdown();
    drop(planner);
    let _ = std::fs::remove_dir_all(dir);

    let sent: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let answered = stats.warm_hits + stats.disk_hits + stats.syntheses + stats.coalesced;
    if stats.requests != sent || answered != sent {
        return Err(format!(
            "planner counted {} requests and answered {answered} \
             (warm {} + disk {} + synthesized {} + coalesced {}), {sent} were sent",
            stats.requests, stats.warm_hits, stats.disk_hits, stats.syntheses, stats.coalesced
        ));
    }
    let mut distinct: Vec<usize> = streams.iter().flatten().copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let expected_disk = distinct.iter().filter(|&&i| prepopulated(i)).count() as u64;
    let expected_misses = distinct.len() as u64 - expected_disk;
    if (stats.disk_hits, stats.syntheses) != (expected_disk, expected_misses) {
        return Err(format!(
            "{} disk hits and {} syntheses, the streams imply {expected_disk} and {expected_misses}",
            stats.disk_hits, stats.syntheses
        ));
    }
    Ok(Round {
        wall_s,
        latencies: latencies.into_iter().flatten().collect(),
        hit_ratio: (stats.warm_hits + stats.disk_hits) as f64 / sent as f64,
        warm_hits: stats.warm_hits,
        disk_hits: stats.disk_hits,
        syntheses: stats.syntheses,
        coalesced: stats.coalesced,
        peak_queue_depth: stats.peak_queue_depth,
    })
}

/// Replays one round's requests on this thread through the service layer's
/// public functions — fingerprint, store get, and on a miss the untraced
/// `P2::run` and its traced replay, `Plan::from_result` and store insert —
/// checking every plan against the one the planner served.
#[allow(clippy::too_many_arguments)]
fn replay_round(
    family: &[(PlanRequest, Fingerprint)],
    streams: &[Vec<usize>],
    template: &Path,
    dir: &Path,
    served: &Served,
    tracer: &Tracer,
    counts: &mut LayerCounts,
    real: &mut RealRuns,
) -> Result<(), String> {
    copy_dir(template, dir).map_err(|e| format!("copying the store: {e}"))?;
    let mut store = PlanStore::persistent(PlannerConfig::default().lru_capacity, dir)
        .map_err(|e| e.to_string())?;
    // The clients' requests, interleaved in turn.
    let order = (0..REQUESTS_PER_CLIENT).flat_map(|i| streams.iter().map(move |s| s[i]));
    let outcome = tracer.span("bench.rep", None, |root| {
        for index in order {
            let (request, expected) = &family[index];
            let fingerprint =
                tracer.span("service.fingerprint", Some(root), |_| request.fingerprint());
            if fingerprint != *expected {
                return Err(format!("fingerprint of family member {index} changed"));
            }
            let cached = tracer.span("service.store_get", Some(root), |_| store.get(fingerprint));
            let plan = match cached {
                Some((plan, _)) => plan,
                None => {
                    let session = request.session().map_err(|e| e.to_string())?;
                    let result =
                        run_then_replay(&session, POOL_WORKERS, tracer, root, counts, real)?;
                    let plan = Arc::new(Plan::from_result(fingerprint, &result, request.top_k));
                    tracer
                        .span("service.store_insert", Some(root), |_| {
                            store.insert(Arc::clone(&plan))
                        })
                        .map_err(|e| e.to_string())?;
                    plan
                }
            };
            check_plan(&plan, fingerprint, request.top_k)?;
            served.check(&plan)?;
        }
        Ok(())
    });
    let _ = std::fs::remove_dir_all(dir);
    outcome
}

pub fn run(args: &Args, report: &mut Report) {
    let family = family(args.seed);
    if family.len() != FAMILY_SIZE {
        report.attempt(Some(format!(
            "request family has {} distinct members, pinned {FAMILY_SIZE}",
            family.len()
        )));
        return;
    }
    let base = PathBuf::from(format!(".bench_out/planner_mix-{}", std::process::id()));
    let template = base.join("template");
    // Set-up is scaled by the kernel samples taken during set-up, the
    // rounds by those taken between them.
    let mut setup_speed = HostSpeed::new();
    let mut setup_s = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (outcome, seconds) = setup_speed.time(|| set_up(&family, &template));
        setup_s.push(seconds);
        match outcome {
            Ok(done) => prepared = done,
            Err(error) => {
                report.attempt(Some(format!("set-up: {error}")));
                let _ = std::fs::remove_dir_all(&base);
                return;
            }
        }
    }
    report.context_int("workers", POOL_WORKERS as u64);
    report.context_int("clients", CLIENTS as u64);
    report.context_int("family", family.len() as u64);
    let setup_factor = setup_speed.factor();
    drop(setup_speed);
    let mut speed = HostSpeed::new();

    let served = Served::default();
    for (result, plan) in &prepared {
        let outcome = check_plan(plan, plan.fingerprint, family[0].0.top_k)
            .and_then(|()| served.check(plan))
            .and_then(|()| check_measured(result, family[0].0.mode));
        report.attempt(outcome.err());
    }
    let zipf = Zipf::new(family.len(), ZIPF_S);
    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut reps = TracedReps::default();
    let mut first_counts = None;
    let mut last_tracer = None;
    let mut service_us: [Vec<f64>; 3] = Default::default();
    let mut peak_rss_mb = None;
    for round in 0.. {
        let streams: Vec<Vec<usize>> = (0..CLIENTS)
            .map(|client| stream(args.seed, round, client, &zipf))
            .collect();
        let dir = base.join("round");
        let (outcome, _) = {
            let shared = Mutex::new(&mut *report);
            speed.time(|| run_round(&family, &streams, &template, &dir, &served, &shared))
        };
        match outcome {
            Ok(done) => {
                eprintln!("planner_mix round {}: {:.3} s", round + 1, done.wall_s);
                peak_rss_mb.get_or_insert_with(sys::peak_rss_mb);
                rounds.push(done)
            }
            Err(error) => {
                report.attempt(Some(format!("round {round}: {error}")));
                break;
            }
        }
        if args.trace {
            let tracer = Tracer::new();
            let mut counts = LayerCounts::default();
            let mut real = RealRuns::default();
            let outcome = replay_round(
                &family,
                &streams,
                &template,
                &base.join("replay"),
                &served,
                &tracer,
                &mut counts,
                &mut real,
            );
            report.attempt(outcome.err().map(|e| format!("replay round {round}: {e}")));
            for (samples, name) in service_us.iter_mut().zip([
                "service.fingerprint",
                "service.store_get",
                "service.store_insert",
            ]) {
                samples.extend(tracer.durations(name).iter().map(|s| s * 1e6));
            }
            reps.add(&tracer, real);
            first_counts.get_or_insert(counts);
            last_tracer = Some(tracer);
        }
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    if rounds.is_empty() {
        return;
    }
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let first = &rounds[0];
    report.context_int("round_requests", (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    report.context_int("round_syntheses", first.syntheses);
    report.context_int("round_disk_hits", first.disk_hits);
    report.context_int("round_warm_hits", first.warm_hits);
    report.context_int("round_coalesced", first.coalesced);
    if args.trace {
        layer_metrics(report, &reps, &first_counts.unwrap_or_default());
        report.metric("cost.top1_accuracy", 0.0, "fraction");
        report.metric("cost.top10_accuracy", 0.0, "fraction");
        service_metrics(
            report,
            [
                median(&service_us[0]),
                median(&service_us[1]),
                median(&service_us[2]),
                first.hit_ratio,
                first.disk_hits as f64,
                first.syntheses as f64,
                first.coalesced as f64,
                first.peak_queue_depth as f64,
            ],
        );
        if let Some(tracer) = last_tracer {
            report.write_trace(args, &tracer);
        }
    } else {
        let all: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.latencies.iter().map(|(ms, _)| *ms))
            .collect();
        let misses: Vec<f64> = rounds
            .iter()
            .flat_map(|r| &r.latencies)
            .filter(|(_, source)| *source == PlanSource::Synthesized)
            .map(|(ms, _)| *ms)
            .collect();
        report.host_times(
            setup_factor,
            &speed,
            [
                median(&setup_s),
                median(&walls),
                median(&all),
                percentile(&all, 0.99),
                median(&misses),
            ],
        );
        report.metric("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN), "MB");
        let results: Vec<ExperimentResult> = prepared.into_iter().map(|(r, _)| r).collect();
        quality_metrics(&results, report);
        report.context_list("setup_s_samples", &setup_s);
        report.context_list("wall_s_samples", &walls);
        report.context_int("req_samples", all.len() as u64);
        report.context_int("miss_samples", misses.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_family_and_streams_are_fixed_by_the_seed() {
        let family = family(5);
        assert_eq!(family.len(), FAMILY_SIZE);
        let zipf = Zipf::new(family.len(), ZIPF_S);
        assert_eq!(stream(5, 0, 0, &zipf), stream(5, 0, 0, &zipf));
        assert_ne!(stream(5, 0, 0, &zipf), stream(5, 0, 1, &zipf));
        assert_ne!(stream(5, 0, 0, &zipf), stream(5, 1, 0, &zipf));
        // The noise seed is part of every request, so it is part of the
        // fingerprint.
        assert_ne!(family[0].1, super::family(6)[0].1);
    }

    #[test]
    fn a_round_answers_every_request_and_the_replay_agrees() {
        // Two cheap members of the family: the first on disk, the second a miss.
        let family: Vec<_> = super::family(9).into_iter().take(2).collect();
        let base = std::env::temp_dir().join(format!("p2-perfbench-test-{}", std::process::id()));
        let template = base.join("template");
        let prepared = set_up(&family, &template).unwrap();
        assert_eq!(prepared.len(), 1);
        let served = Served::default();
        let streams = vec![vec![0, 1, 1, 0], vec![1, 0, 1, 1]];
        let mut report = Report::default();
        let round = {
            let shared = Mutex::new(&mut report);
            run_round(
                &family,
                &streams,
                &template,
                &base.join("round"),
                &served,
                &shared,
            )
            .unwrap()
        };
        assert_eq!(round.latencies.len(), 8);
        assert_eq!((round.disk_hits, round.syntheses), (1, 1));
        assert!(report.correct());
        let tracer = Tracer::new();
        let mut counts = LayerCounts::default();
        let mut real = RealRuns::default();
        let streams: Vec<Vec<usize>> = streams
            .iter()
            .map(|s| {
                s.iter()
                    .copied()
                    .cycle()
                    .take(REQUESTS_PER_CLIENT)
                    .collect()
            })
            .collect();
        replay_round(
            &family,
            &streams,
            &template,
            &base.join("replay"),
            &served,
            &tracer,
            &mut counts,
            &mut real,
        )
        .unwrap();
        assert_eq!(tracer.durations("service.store_insert").len(), 1);
        assert_eq!(tracer.durations("real.run").len(), 1);
        assert!(real.run_s > 0.0);
        assert_eq!(
            counts.matrices,
            family[1].0.session().unwrap().placements().unwrap().len() as u64
        );
        std::fs::remove_dir_all(&base).unwrap();
    }
}
