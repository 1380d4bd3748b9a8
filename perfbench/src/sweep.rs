//! The two sweep workloads: `paper_sweep` (the paper's Table 3 + Table 4
//! batch, every program measured) and `deep_shortlist` (a 3-level rack
//! system at program size 7, shortlist mode). Both run `P2::run` spec after
//! spec on one worker thread.

use std::time::Instant;

use p2_bench::{table3_specs, table4_specs};
use p2_core::{top_k_accuracy, ExperimentResult, P2Builder, ProgramEvaluation, RunMode, P2};
use p2_cost::NcclAlgo;
use p2_synthesis::Synthesizer;
use p2_topology::presets;

use crate::replay::{run_then_replay, LayerCounts, RealRuns};
use crate::report::{layer_metrics, service_metrics, Report, TracedReps};
use crate::speed::HostSpeed;
use crate::stats::{geomean, median, percentile};
use crate::sys;
use crate::trace::Tracer;
use crate::Args;

/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// One experiment of a sweep with its pinned placement and program counts.
pub struct SpecDef {
    id: String,
    builder: P2Builder,
    placements: usize,
    programs: u64,
}

/// A built session with the counts it must reproduce.
pub struct Spec {
    pub id: String,
    pub session: P2,
    placements: usize,
    programs: u64,
}

/// The 15 `sweep_batch` specs: each Table 3 axes group for both reduction
/// axes (ring), then Table 4 rows F–L. Every program is measured.
pub fn paper_sweep(seed: u64) -> Vec<SpecDef> {
    // (placements, programs) per spec, in order; 41 placements and 2643
    // programs in total at the default program size 5.
    const PINS: [(usize, u64); 15] = [
        (2, 6),
        (2, 186),
        (3, 99),
        (3, 189),
        (3, 189),
        (3, 189),
        (3, 189),
        (3, 99),
        (2, 96),
        (3, 99),
        (4, 372),
        (4, 372),
        (1, 93),
        (4, 372),
        (1, 93),
    ];
    let mut specs = Vec::new();
    for (id, system, nodes, axes) in table3_specs() {
        for reduction in [0, 1] {
            specs.push(p2_bench::ExperimentSpec::new(
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
    specs
        .iter()
        .zip(PINS)
        .map(|(spec, (placements, programs))| SpecDef {
            id: format!("{}{:?}", spec.id, spec.reduction),
            builder: spec.session().seed(seed).threads(1).mode(RunMode::Measure),
            placements,
            programs,
        })
        .collect()
}

/// Three specs on `rack_node_gpu_system(2, 2, 4)` at program size 7 in
/// shortlist mode: 11 placements and 44303 programs, every one lowered and
/// predicted, ten measured per spec.
pub fn deep_shortlist(seed: u64) -> Vec<SpecDef> {
    let specs: [(&[usize], &[usize], usize, u64); 3] = [
        (&[16], &[0], 1, 8749),
        (&[2, 8], &[1], 3, 8935),
        (&[2, 2, 4], &[0, 2], 7, 26619),
    ];
    specs
        .iter()
        .map(|&(axes, reduction, placements, programs)| SpecDef {
            id: format!("rack{axes:?}r{reduction:?}"),
            builder: P2::builder(presets::rack_node_gpu_system(2, 2, 4))
                .parallelism_axes(axes.iter().copied())
                .reduction_axes(reduction.iter().copied())
                .algo(NcclAlgo::Ring)
                .bytes_per_device((1u64 << 26) as f64 * 2.0 * 4.0)
                .max_program_size(7)
                .seed(seed)
                .threads(1)
                .mode(RunMode::Shortlist(10)),
            placements,
            programs,
        })
        .collect()
}

/// Builds every session, enumerates its placements and counts each
/// placement's programs, failing on any count that differs from its pin.
fn set_up(defs: Vec<SpecDef>) -> Result<Vec<Spec>, String> {
    let mut specs = Vec::with_capacity(defs.len());
    let mut errors = Vec::new();
    for def in defs {
        match set_up_spec(def) {
            Ok(spec) => specs.push(spec),
            Err(error) => errors.push(error),
        }
    }
    if errors.is_empty() {
        Ok(specs)
    } else {
        Err(errors.join("; "))
    }
}

fn set_up_spec(def: SpecDef) -> Result<Spec, String> {
    let session = def
        .builder
        .build()
        .map_err(|e| format!("{}: {e}", def.id))?;
    let config = session.config();
    let matrices = session
        .placements()
        .map_err(|e| format!("{}: {e}", def.id))?;
    let mut programs = 0;
    for matrix in &matrices {
        let synthesizer = Synthesizer::new(
            matrix.clone(),
            config.reduction_axes.clone(),
            config.hierarchy_kind,
        )
        .map_err(|e| format!("{}: {e}", def.id))?;
        programs += synthesizer.count_programs(config.max_program_size).total;
    }
    if (matrices.len(), programs) != (def.placements, def.programs) {
        return Err(format!(
            "{}: {} placements / {programs} programs, pinned {} / {}",
            def.id,
            matrices.len(),
            def.placements,
            def.programs
        ));
    }
    Ok(Spec {
        id: def.id,
        session,
        placements: def.placements,
        programs: def.programs,
    })
}

/// The correctness gate for one `P2::run` result.
fn check(spec: &Spec, result: &ExperimentResult) -> Result<(), String> {
    let id = &spec.id;
    if result.placements.len() != spec.placements || result.total_programs() as u64 != spec.programs
    {
        return Err(format!(
            "{id}: ran {} placements / {} programs, pinned {} / {}",
            result.placements.len(),
            result.total_programs(),
            spec.placements,
            spec.programs
        ));
    }
    let positive = |t: f64| t.is_finite() && t > 0.0;
    for placement in &result.placements {
        let at = format!("{id} {}", placement.matrix);
        if !positive(placement.allreduce_predicted) || !positive(placement.allreduce_measured) {
            return Err(format!("{at}: AllReduce baseline missing or not positive"));
        }
        if placement.programs.is_empty() {
            return Err(format!("{at}: no program retained"));
        }
        if matches!(spec.session.mode(), RunMode::Measure)
            && placement.programs_retained != placement.num_programs
        {
            return Err(format!("{at}: a measured sweep must retain every program"));
        }
        for program in &placement.programs {
            if !positive(program.predicted_seconds) || !positive(program.measured_seconds) {
                return Err(format!("{at}: {} has a non-positive time", program.program));
            }
        }
        if placement
            .programs
            .windows(2)
            .any(|w| w[0].measured_seconds > w[1].measured_seconds)
        {
            return Err(format!("{at}: programs not sorted by measured time"));
        }
    }
    check_measured(result, spec.session.mode())
}

/// Whether `program` was measured. A run leaves each program it does not
/// measure with its prediction as its measured time (`RunMode`'s contract),
/// so a measured program is one whose two times differ; [`check_measured`]
/// pins how many of them a run has.
fn was_measured(program: &ProgramEvaluation) -> bool {
    program.measured_seconds.to_bits() != program.predicted_seconds.to_bits()
}

/// Checks that `result` has exactly as many measured programs as `mode`
/// implies: all of them, or the shortlist's `n`.
pub fn check_measured(result: &ExperimentResult, mode: RunMode) -> Result<(), String> {
    let retained = result.total_programs_retained();
    let expected = match mode {
        RunMode::Measure => retained,
        RunMode::Shortlist(n) => n.min(retained),
        RunMode::PredictOnly => 0,
    };
    let measured = result
        .placements
        .iter()
        .flat_map(|p| &p.programs)
        .filter(|q| was_measured(q))
        .count();
    if measured == expected {
        Ok(())
    } else {
        Err(format!(
            "{}: {measured} programs measured, the run mode implies {expected}",
            result.label
        ))
    }
}

/// A digest of everything simulated in a run, to show later repetitions
/// reproduce the first bit for bit.
fn digest(results: &[ExperimentResult]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |value: u64| {
        hash ^= value;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    };
    for result in results {
        for placement in &result.placements {
            eat(placement.num_programs as u64);
            eat(placement.allreduce_predicted.to_bits());
            eat(placement.allreduce_measured.to_bits());
            for program in &placement.programs {
                eat(program.predicted_seconds.to_bits());
                eat(program.measured_seconds.to_bits());
            }
        }
    }
    hash
}

/// The simulated quality metrics of a set of results: the paper's speedup
/// over AllReduce per placement and the effect of the placement itself.
///
/// Only measured programs count, so that no figure divides a simulated time
/// by a prediction: in shortlist mode a placement without a measured program
/// is left out of the per-placement figures, and a spec's best program is its
/// best measured one. Every AllReduce baseline is measured.
pub fn quality_metrics(results: &[ExperimentResult], report: &mut Report) {
    let mut speedups = Vec::new();
    let mut improved = 0usize;
    let mut plan_speedups = Vec::new();
    let mut spread_max: f64 = 0.0;
    for result in results {
        let mut best_program = f64::INFINITY;
        for placement in &result.placements {
            let best = placement
                .programs
                .iter()
                .filter(|q| was_measured(q))
                .map(|q| q.measured_seconds)
                .fold(f64::INFINITY, f64::min);
            if best.is_finite() {
                // Floored at 1 like `PlacementEvaluation::speedup`.
                speedups.push((placement.allreduce_measured / best).max(1.0));
                improved += usize::from(best < placement.allreduce_measured);
            }
            best_program = best_program.min(best);
        }
        let allreduce = result.placements.iter().map(|p| p.allreduce_measured);
        let best_allreduce = allreduce.clone().fold(f64::INFINITY, f64::min);
        let worst_allreduce = allreduce.fold(0.0, f64::max);
        plan_speedups.push(best_allreduce / best_program);
        spread_max = spread_max.max(worst_allreduce / best_allreduce);
    }
    report.metric("speedup_geomean", geomean(&speedups), "x");
    report.metric(
        "speedup_max",
        speedups.iter().copied().fold(0.0, f64::max),
        "x",
    );
    report.metric(
        "improved_frac",
        improved as f64 / speedups.len() as f64,
        "fraction",
    );
    report.metric("plan_speedup", geomean(&plan_speedups), "x");
    report.metric("allreduce_spread_max", spread_max, "x");
    report.context_int("quality_placements", speedups.len() as u64);
}

/// One pass over every spec with `P2::run`, checking each result.
struct Rep {
    results: Vec<ExperimentResult>,
    /// Host seconds of the specs' `P2::run` calls.
    wall_s: f64,
}

fn run_rep(specs: &[Spec], speed: &mut HostSpeed, report: &mut Report) -> Rep {
    let mut results = Vec::with_capacity(specs.len());
    let mut wall_s = 0.0;
    for spec in specs {
        let (outcome, seconds) = speed.time(|| spec.session.run());
        wall_s += seconds;
        let outcome = outcome
            .map_err(|e| format!("{}: {e}", spec.id))
            .and_then(|result| check(spec, &result).map(|()| result));
        report.attempt(outcome.as_ref().err().cloned());
        if let Ok(result) = outcome {
            results.push(result);
        }
    }
    Rep { results, wall_s }
}

/// One traced pass: each spec's untraced `P2::run`, then its traced replay,
/// checked against each other and against the spec's pins.
fn run_traced_rep(
    specs: &[Spec],
    tracer: &Tracer,
    counts: &mut LayerCounts,
    real: &mut RealRuns,
    report: &mut Report,
) -> Vec<ExperimentResult> {
    let mut results = Vec::with_capacity(specs.len());
    tracer.span("bench.rep", None, |root| {
        for spec in specs {
            let outcome = run_then_replay(&spec.session, 1, tracer, root, counts, real)
                .and_then(|result| check(spec, &result).map(|()| result))
                .map_err(|e| format!("{}: {e}", spec.id));
            report.attempt(outcome.as_ref().err().cloned());
            if let Ok(result) = outcome {
                results.push(result);
            }
        }
    });
    results
}

/// Checks that a repetition's results reproduce the first repetition's bit
/// for bit; `first` keeps the first complete repetition's digest.
fn check_repeat(
    results: &[ExperimentResult],
    specs: usize,
    first: &mut Option<u64>,
    report: &mut Report,
) {
    if results.len() != specs {
        return;
    }
    let rep_digest = digest(results);
    match first {
        None => *first = Some(rep_digest),
        Some(first) if *first != rep_digest => {
            report.attempt(Some("a repetition changed a simulated result".into()))
        }
        Some(_) => {}
    }
}

/// Runs a sweep workload whose specs `defs` builds from the seed.
pub fn run(args: &Args, defs: fn(u64) -> Vec<SpecDef>, report: &mut Report) {
    // Set-up is scaled by the kernel samples taken during set-up.
    let mut setup_speed = HostSpeed::new();
    let mut setup_s = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (built, seconds) = setup_speed.time(|| set_up(defs(args.seed)));
        setup_s.push(seconds);
        match built {
            Ok(built) => specs = built,
            Err(error) => {
                report.attempt(Some(format!("set-up: {error}")));
                return;
            }
        }
    }
    report.context_int("workers", 1);
    report.context_int("clients", 1);
    report.context_int("specs", specs.len() as u64);
    let setup_factor = setup_speed.factor();
    drop(setup_speed);
    if args.trace {
        run_traced(args, &specs, report);
    } else {
        run_timed(args, &specs, &setup_s, setup_factor, report);
    }
}

/// The timed run: untraced repetitions and the end-to-end metrics.
fn run_timed(
    args: &Args,
    specs: &[Spec],
    setup_s: &[f64],
    setup_factor: f64,
    report: &mut Report,
) {
    let mut speed = HostSpeed::new();
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first_digest = None;
    let mut first_results = None;
    let mut peak_rss_mb = None;
    loop {
        let rep = run_rep(specs, &mut speed, report);
        peak_rss_mb.get_or_insert_with(sys::peak_rss_mb);
        check_repeat(&rep.results, specs.len(), &mut first_digest, report);
        eprintln!(
            "{} rep {}: {:.3} s",
            args.workload.name(),
            walls.len() + 1,
            rep.wall_s
        );
        walls.push(rep.wall_s);
        first_results.get_or_insert(rep.results);
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let results = first_results.unwrap_or_default();
    if results.len() != specs.len() {
        return;
    }
    // A sweep's request is the whole sweep, the job a user submits, and it
    // is always a miss: every `P2::run` starts cold. (Single specs are too
    // short to time steadily on the reference host: one spec run varies by
    // about 20% from run to run.)
    let wall_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    report.host_times(
        setup_factor,
        &speed,
        [
            median(setup_s),
            median(&walls),
            median(&wall_ms),
            percentile(&wall_ms, 0.99),
            median(&wall_ms),
        ],
    );
    report.metric("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN), "MB");
    quality_metrics(&results, report);
    report.context_list("setup_s_samples", setup_s);
    report.context_list("wall_s_samples", &walls);
    report.context_int("req_samples", walls.len() as u64);
    report.context_int("miss_samples", walls.len() as u64);
}

/// The traced run: traced repetitions and the per-layer metrics.
fn run_traced(args: &Args, specs: &[Spec], report: &mut Report) {
    let started = Instant::now();
    let mut reps = TracedReps::default();
    let mut first_digest = None;
    let mut first_results = None;
    let mut first_counts: Option<LayerCounts> = None;
    let mut last_tracer = None;
    for rep in 1.. {
        let tracer = Tracer::new();
        let mut counts = LayerCounts::default();
        let mut real = RealRuns::default();
        let results = run_traced_rep(specs, &tracer, &mut counts, &mut real, report);
        eprintln!(
            "{} traced rep {rep}: {:.3} s untraced, {:.3} s traced",
            args.workload.name(),
            real.run_s,
            tracer.durations("core.run").iter().sum::<f64>()
        );
        check_repeat(&results, specs.len(), &mut first_digest, report);
        match &first_counts {
            None => first_counts = Some(counts),
            Some(first) if *first != counts => {
                report.attempt(Some("a traced repetition changed a layer count".into()))
            }
            Some(_) => {}
        }
        reps.add(&tracer, real);
        last_tracer = Some(tracer);
        first_results.get_or_insert(results);
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let results = first_results.unwrap_or_default();
    if results.len() != specs.len() {
        return;
    }
    let accuracy = if args.workload == crate::Workload::PaperSweep {
        top_k_accuracy(&results, &[1, 10]).accuracy
    } else {
        vec![0.0, 0.0]
    };
    layer_metrics(report, &reps, &first_counts.unwrap_or_default());
    report.metric("cost.top1_accuracy", accuracy[0], "fraction");
    report.metric("cost.top10_accuracy", accuracy[1], "fraction");
    service_metrics(report, [0.0; 8]);
    if let Some(tracer) = last_tracer {
        report.write_trace(args, &tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 4 row F: 2 placements, 96 programs — small enough to
    /// cross-check against the pre-interning reference search.
    fn spec_f(seed: u64) -> SpecDef {
        paper_sweep(seed)
            .into_iter()
            .find(|def| def.id == "F[0]")
            .expect("row F is in the sweep")
    }

    #[test]
    fn pinned_totals_match_the_workload_definitions() {
        let totals = |defs: Vec<SpecDef>| {
            let placements: usize = defs.iter().map(|d| d.placements).sum();
            let programs: u64 = defs.iter().map(|d| d.programs).sum();
            (defs.len(), placements, programs)
        };
        assert_eq!(totals(paper_sweep(1)), (15, 41, 2643));
        assert_eq!(totals(deep_shortlist(1)), (3, 11, 44303));
    }

    #[test]
    fn pinned_counts_agree_with_the_reference_search_and_the_pipeline() {
        let def = spec_f(7);
        let (placements, programs) = (def.placements, def.programs);
        let spec = set_up(vec![def]).expect("pins hold").remove(0);
        let config = spec.session.config();
        let matrices = spec.session.placements().unwrap();
        assert_eq!(matrices.len(), placements);
        let reference: usize = matrices
            .iter()
            .map(|matrix| {
                Synthesizer::new(
                    matrix.clone(),
                    config.reduction_axes.clone(),
                    config.hierarchy_kind,
                )
                .unwrap()
                .synthesize_reference(config.max_program_size)
                .programs
                .len()
            })
            .sum();
        assert_eq!(reference as u64, programs);
        let result = spec.session.run().unwrap();
        check(&spec, &result).unwrap();
    }

    #[test]
    fn a_wrong_pin_fails_set_up() {
        let mut def = spec_f(7);
        def.programs += 1;
        let error = set_up(vec![def]).err().expect("pin must not hold");
        assert!(error.contains("F[0]"), "{error}");
    }

    #[test]
    fn the_check_rejects_unsorted_or_non_positive_results() {
        let spec = set_up(vec![spec_f(7)]).unwrap().remove(0);
        let good = spec.session.run().unwrap();
        let mut unsorted = good.clone();
        unsorted.placements[0].programs.reverse();
        assert!(check(&spec, &unsorted).is_err());
        let mut broken = good.clone();
        broken.placements[1].allreduce_measured = f64::NAN;
        assert!(check(&spec, &broken).is_err());
        let mut short = good;
        short.placements.pop();
        assert!(check(&spec, &short).is_err());
    }

    #[test]
    fn shortlist_quality_counts_only_measured_programs() {
        let session = P2::builder(presets::a100_system(2))
            .parallelism_axes([8, 4])
            .reduction_axes([0])
            .bytes_per_device(1.0e9)
            .seed(5)
            .threads(1)
            .mode(RunMode::Shortlist(3))
            .build()
            .unwrap();
        let result = session.run().unwrap();
        check_measured(&result, RunMode::Shortlist(3)).unwrap();
        assert!(check_measured(&result, RunMode::Shortlist(4)).is_err());
        let metrics = |result: &ExperimentResult| {
            let mut report = Report::default();
            quality_metrics(std::slice::from_ref(result), &mut report);
            report.result_json()
        };
        // An unmeasured program carries its prediction; however small, it
        // must not enter the simulated figures.
        let mut tampered = result.clone();
        let unmeasured = tampered
            .placements
            .iter_mut()
            .flat_map(|p| &mut p.programs)
            .find(|q| !was_measured(q))
            .expect("a shortlist of 3 leaves programs unmeasured");
        unmeasured.predicted_seconds = 1e-9;
        unmeasured.measured_seconds = 1e-9;
        assert_eq!(metrics(&result), metrics(&tampered));
    }

    #[test]
    fn the_same_seed_reproduces_every_simulated_metric() {
        let run = |seed| {
            let spec = set_up(vec![spec_f(seed)]).unwrap().remove(0);
            let results = vec![spec.session.run().unwrap()];
            let mut report = Report::default();
            quality_metrics(&results, &mut report);
            (digest(&results), report.result_json())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0);
    }
}
