//! Traced replay of `P2::run`: the same pipeline driven from outside through
//! each layer's public functions, with a span around every call into a
//! layer. The replay must reproduce the session's own placements, counts and
//! best and AllReduce times bit for bit ([`compare`]).
//!
//! The layer times are the replay's, not `P2::run`'s: the replay calls the
//! same layer functions, but its own loop (retention, ranking) is a copy of
//! `p2_core`'s. So [`run_then_replay`] also times the real, untraced
//! `P2::run` of the same session, and the report takes from it what the run
//! reports itself (its search time) and what only it can show (`p2_core`'s
//! own share: the real run minus the replay's layer times).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2_collectives::SharedTables;
use p2_core::{ExperimentResult, PlacementEvaluation, ProgramEvaluation, RunMode, P2};
use p2_cost::{AlphaBetaModel, CachedCostModel, CostAccumulator, CostModel};
use p2_exec::{ExecConfig, Executor};
use p2_placement::ParallelismMatrix;
use p2_synthesis::{baseline_allreduce, LoweredProgram, Program, SinkControl, Synthesizer};

use crate::trace::{SpanId, Tracer};

/// Work counts gathered at the layer boundaries during a replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub matrices: u64,
    pub states_explored: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub lowered_steps: u64,
    pub cost_calls: u64,
    pub cost_cache_hits: u64,
    pub cost_cache_misses: u64,
    pub measure_calls: u64,
    pub steps_simulated: u64,
    pub programs_retained: u64,
    pub steals: u64,
    pub peak_in_flight: u64,
}

impl LayerCounts {
    pub fn add(&mut self, other: &LayerCounts) {
        self.matrices += other.matrices;
        self.states_explored += other.states_explored;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.lowered_steps += other.lowered_steps;
        self.cost_calls += other.cost_calls;
        self.cost_cache_hits += other.cost_cache_hits;
        self.cost_cache_misses += other.cost_cache_misses;
        self.measure_calls += other.measure_calls;
        self.steps_simulated += other.steps_simulated;
        self.programs_retained += other.programs_retained;
        self.steals += other.steals;
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
    }
}

/// Replays `session.run()` on a pool of `threads` workers, as `P2::run`
/// (or a planner batch) does: placements are enumerated, then each is a pool job that
/// synthesizes, lowers, predicts and measures; a shortlist session measures
/// its best predictions afterwards.
pub fn replay_run(
    session: &P2,
    threads: usize,
    tracer: &Tracer,
    parent: SpanId,
    counts: &mut LayerCounts,
) -> Result<ExperimentResult, String> {
    tracer.span("core.run", Some(parent), |run| {
        let config = session.config();
        let matrices = tracer.span("placement.enumerate", Some(run), |_| session.placements());
        let matrices = matrices.map_err(|e| e.to_string())?;
        counts.matrices += matrices.len() as u64;
        let model: Arc<dyn CostModel> = match &config.cost_model {
            Some(model) => Arc::clone(model),
            None => Arc::new(
                AlphaBetaModel::new(config.system.clone(), config.algo, config.bytes_per_device)
                    .map_err(|e| e.to_string())?,
            ),
        };
        let measure_programs = matches!(session.mode(), RunMode::Measure);
        // One set of interning tables for the whole run, as `P2::run` keeps.
        let tables = config.shared_intern.then(|| Arc::new(SharedTables::new()));
        let (jobs, steals, peak) = p2_par::scope(threads, |pool| {
            let handles: Vec<_> = matrices
                .iter()
                .map(|matrix| {
                    let model = Arc::clone(&model);
                    let tables = tables.clone();
                    pool.spawn(move || {
                        let job = Job {
                            session,
                            matrix,
                            model: &model,
                            tables,
                            measure_programs,
                        };
                        replay_placement(&job, tracer, run)
                    })
                })
                .collect();
            let jobs: Vec<_> = handles.into_iter().map(|handle| handle.join()).collect();
            (jobs, pool.steals(), pool.peak_in_flight())
        });
        counts.steals += steals as u64;
        counts.peak_in_flight = counts.peak_in_flight.max(peak as u64);
        let mut placements = Vec::with_capacity(jobs.len());
        for job in jobs {
            let (placement, job_counts) = job?;
            counts.add(&job_counts);
            placements.push(placement);
        }
        let mut result = ExperimentResult {
            label: config.label(),
            parallelism_axes: config.parallelism_axes.clone(),
            reduction_axes: config.reduction_axes.clone(),
            synthesis_time: placements.iter().map(|p| p.synthesis_time).sum(),
            placements,
            shared_unique_device_states: None,
            table_store: None,
        };
        if let RunMode::Shortlist(n) = session.mode() {
            tracer.span("core.shortlist", Some(run), |shortlist| {
                measure_shortlist(session, &mut result, n, tracer, shortlist, counts)
            })?;
        }
        counts.programs_retained += result.total_programs_retained() as u64;
        Ok(result)
    })
}

fn exec_config(session: &P2) -> ExecConfig {
    let config = session.config();
    ExecConfig::new(config.algo, config.bytes_per_device)
        .with_noise(config.noise_fraction)
        .with_seed(config.seed)
        .with_repeats(config.repeats)
}

/// A program kept by the bounded top-K retention, ordered as the pipeline
/// orders it: measured time, then arrival.
struct Kept {
    predicted: f64,
    measured: f64,
    seq: usize,
    program: Program,
    lowered: LoweredProgram,
}

impl Kept {
    fn key(&self) -> (f64, usize) {
        (self.measured, self.seq)
    }
}

impl PartialEq for Kept {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Kept {}

impl PartialOrd for Kept {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Kept {
    fn cmp(&self, other: &Self) -> Ordering {
        self.measured
            .total_cmp(&other.measured)
            .then(self.seq.cmp(&other.seq))
    }
}

/// One placement's evaluation job.
struct Job<'a> {
    session: &'a P2,
    matrix: &'a ParallelismMatrix,
    model: &'a Arc<dyn CostModel>,
    tables: Option<Arc<SharedTables>>,
    measure_programs: bool,
}

fn replay_placement(
    job: &Job<'_>,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<(PlacementEvaluation, LayerCounts), String> {
    let Job {
        session,
        matrix,
        model,
        measure_programs,
        ..
    } = *job;
    tracer.span("core.placement", Some(parent), |placement| {
        let config = session.config();
        let mut counts = LayerCounts::default();
        let executor =
            Executor::new(&config.system, exec_config(session)).map_err(|e| e.to_string())?;
        let cache = CachedCostModel::new(Arc::clone(model));
        let cost: &dyn CostModel = if config.cost_cache {
            &cache
        } else {
            model.as_ref()
        };
        let repeats = config.repeats as u64;
        let measure = |lowered: &LoweredProgram, counts: &mut LayerCounts, parent: SpanId| {
            counts.measure_calls += 1;
            counts.steps_simulated += lowered.steps.len() as u64 * repeats;
            tracer.span("exec.measure", Some(parent), |_| executor.measure(lowered))
        };
        let mut synthesizer = Synthesizer::new(
            matrix.clone(),
            config.reduction_axes.clone(),
            config.hierarchy_kind,
        )
        .map_err(|e| e.to_string())?;
        if let Some(tables) = &job.tables {
            synthesizer = synthesizer.with_shared_tables(Arc::clone(tables));
        }
        if config.parallel_build {
            synthesizer = synthesizer.with_build_threads(config.threads);
        }
        let baseline =
            baseline_allreduce(matrix, &config.reduction_axes).map_err(|e| e.to_string())?;
        counts.cost_calls += 1;
        let allreduce_predicted = tracer.span("cost.predict", Some(placement), |_| {
            cost.program_time(&baseline)
        });
        let allreduce_measured = measure(&baseline, &mut counts, placement);

        let keep_top = config.keep_top;
        // Without an observer bound, `P2::run` prunes exactly when `keep_top`
        // is set.
        let prune = keep_top.is_some();
        let mut best_predicted = allreduce_predicted;
        let mut programs: Vec<ProgramEvaluation> = Vec::new();
        let mut heap: BinaryHeap<Kept> = BinaryHeap::new();
        let mut num_programs = 0usize;
        let mut seq = 0usize;
        let mut lower_error = None;
        let stats = tracer.span("synthesis.search", Some(placement), |search| {
            synthesizer.for_each_program(config.max_program_size, &mut |program: &Program| {
                num_programs += 1;
                let lowered = match tracer.span("synthesis.lower", Some(search), |_| {
                    synthesizer.lower(program)
                }) {
                    Ok(lowered) => lowered,
                    Err(e) => {
                        lower_error = Some(e.to_string());
                        return SinkControl::Stop;
                    }
                };
                counts.lowered_steps += lowered.steps.len() as u64;
                counts.cost_calls += 1;
                if !prune {
                    let predicted = tracer.span("cost.predict", Some(search), |_| {
                        cost.program_time(&lowered)
                    });
                    let measured = if measure_programs {
                        measure(&lowered, &mut counts, search)
                    } else {
                        predicted
                    };
                    programs.push(ProgramEvaluation {
                        program: program.clone(),
                        lowered,
                        predicted_seconds: predicted,
                        measured_seconds: measured,
                    });
                    return SinkControl::Continue;
                }
                let k = keep_top.expect("pruning implies keep_top");
                let mut bound = best_predicted * (1.0 + config.prune_slack);
                if !measure_programs && heap.len() == k {
                    if let Some(worst) = heap.peek() {
                        bound = bound.min(worst.measured);
                    }
                }
                let predicted = tracer.span("cost.predict", Some(search), |_| {
                    let mut acc = CostAccumulator::new(cost);
                    for step in &lowered.steps {
                        acc.push(step);
                        if acc.exceeds(bound) {
                            return None;
                        }
                    }
                    Some(acc.seconds())
                });
                let Some(predicted) = predicted else {
                    return SinkControl::Continue;
                };
                best_predicted = best_predicted.min(predicted);
                let measured = if measure_programs {
                    measure(&lowered, &mut counts, search)
                } else {
                    predicted
                };
                let entry = Kept {
                    predicted,
                    measured,
                    seq,
                    program: program.clone(),
                    lowered,
                };
                seq += 1;
                if heap.len() < k {
                    heap.push(entry);
                } else if heap.peek().is_some_and(|worst| entry.key() < worst.key()) {
                    heap.pop();
                    heap.push(entry);
                }
                SinkControl::Continue
            })
        });
        if let Some(e) = lower_error {
            return Err(e);
        }
        if prune {
            let mut kept = heap.into_vec();
            kept.sort();
            programs = kept
                .into_iter()
                .map(|entry| ProgramEvaluation {
                    program: entry.program,
                    lowered: entry.lowered,
                    predicted_seconds: entry.predicted,
                    measured_seconds: entry.measured,
                })
                .collect();
        }
        programs.sort_by(|a, b| a.measured_seconds.total_cmp(&b.measured_seconds));
        let cache_stats = cache.stats();
        counts.cost_cache_hits += cache_stats.hits;
        counts.cost_cache_misses += cache_stats.misses;
        counts.states_explored += stats.states_explored as u64;
        counts.memo_hits += stats.suffix_memo_hits as u64;
        counts.memo_misses += stats.suffix_memo_misses as u64;
        let evaluation = PlacementEvaluation {
            matrix: matrix.clone(),
            synthesis_time: Duration::ZERO,
            num_programs,
            programs_pruned: num_programs - programs.len(),
            programs_retained: programs.len(),
            states_explored: stats.states_explored,
            unique_device_states: stats.unique_device_states,
            suffix_memo_hits: stats.suffix_memo_hits,
            suffix_memo_misses: stats.suffix_memo_misses,
            suffix_memo_preloaded: stats.suffix_memo_preloaded,
            shared_states_reused: stats.shared_states_reused,
            allreduce_predicted,
            allreduce_measured,
            programs,
        };
        Ok((evaluation, counts))
    })
}

/// The shortlist post-pass: measure the `n` best predictions of the whole
/// run, then re-rank every placement by measured time.
fn measure_shortlist(
    session: &P2,
    result: &mut ExperimentResult,
    n: usize,
    tracer: &Tracer,
    parent: SpanId,
    counts: &mut LayerCounts,
) -> Result<(), String> {
    let mut order: Vec<(usize, usize, f64)> = result
        .placements
        .iter()
        .enumerate()
        .flat_map(|(pi, placement)| {
            placement
                .programs
                .iter()
                .enumerate()
                .map(move |(qi, program)| (pi, qi, program.predicted_seconds))
        })
        .collect();
    order.sort_by(|a, b| a.2.total_cmp(&b.2));
    let config = session.config();
    let executor =
        Executor::new(&config.system, exec_config(session)).map_err(|e| e.to_string())?;
    for &(pi, qi, _) in &order[..n.min(order.len())] {
        let program = &mut result.placements[pi].programs[qi];
        counts.measure_calls += 1;
        counts.steps_simulated += program.lowered.steps.len() as u64 * config.repeats as u64;
        program.measured_seconds = tracer.span("exec.measure", Some(parent), |_| {
            executor.measure(&program.lowered)
        });
    }
    for placement in &mut result.placements {
        placement
            .programs
            .sort_by(|a, b| a.measured_seconds.total_cmp(&b.measured_seconds));
    }
    Ok(())
}

/// Checks that `replayed` reproduces `real`: the same placements in the same
/// order, the same program and state counts per placement, and bit-identical
/// AllReduce, best-predicted and best-measured times. How many programs a
/// placement retains or prunes is left out, so a change to `p2_core`'s
/// retention that keeps the best programs does not fail the replay.
pub fn compare(real: &ExperimentResult, replayed: &ExperimentResult) -> Result<(), String> {
    let label = &real.label;
    if real.placements.len() != replayed.placements.len() {
        return Err(format!(
            "{label}: {} placements, replay has {}",
            real.placements.len(),
            replayed.placements.len()
        ));
    }
    for (a, b) in real.placements.iter().zip(&replayed.placements) {
        let at = format!("{label} {}", a.matrix);
        if a.matrix != b.matrix {
            return Err(format!("{at}: replay placement is {}", b.matrix));
        }
        let counts = |p: &PlacementEvaluation| (p.num_programs, p.states_explored);
        if counts(a) != counts(b) {
            return Err(format!(
                "{at}: (programs, states) {:?} vs replay {:?}",
                counts(a),
                counts(b)
            ));
        }
        let bits = |p: &PlacementEvaluation| {
            (
                p.allreduce_predicted.to_bits(),
                p.allreduce_measured.to_bits(),
                p.best_predicted().map(|q| q.predicted_seconds.to_bits()),
                p.best_measured().map(|q| q.measured_seconds.to_bits()),
            )
        };
        if bits(a) != bits(b) {
            return Err(format!("{at}: replayed times differ from P2::run"));
        }
    }
    Ok(())
}

/// Host time of the untraced `P2::run` calls behind one traced repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealRuns {
    /// Host seconds inside `P2::run`.
    pub run_s: f64,
    /// The runs' own search time: the sum of
    /// `PlacementEvaluation::synthesis_time`, which leaves out the lowering,
    /// costing and measuring interleaved with the search.
    pub search_s: f64,
}

/// Runs `session` untraced on a pool of `threads` workers, then replays it
/// traced on the same number, and checks that the replay reproduces the run.
/// Returns the run's result; its host time is added to `real`.
pub fn run_then_replay(
    session: &P2,
    threads: usize,
    tracer: &Tracer,
    parent: SpanId,
    counts: &mut LayerCounts,
    real: &mut RealRuns,
) -> Result<ExperimentResult, String> {
    // The real run gets a span of its own so its time is no span's self time;
    // it is no layer's either.
    let start = Instant::now();
    let result = tracer.span("real.run", Some(parent), |_| {
        p2_par::scope(threads, |pool| session.run_on(pool, &()))
    });
    real.run_s += start.elapsed().as_secs_f64();
    let result = result.map_err(|e| e.to_string())?;
    real.search_s += result
        .placements
        .iter()
        .map(|p| p.synthesis_time.as_secs_f64())
        .sum::<f64>();
    let replayed = replay_run(session, threads, tracer, parent, counts)?;
    compare(&result, &replayed)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_core::P2Builder;
    use p2_topology::presets;

    fn small(mode: RunMode) -> P2Builder {
        P2::builder(presets::a100_system(2))
            .parallelism_axes([8, 4])
            .reduction_axes([0])
            .bytes_per_device(1.0e9)
            .repeats(2)
            .seed(11)
            .threads(1)
            .mode(mode)
    }

    fn replay_matches(session: P2) -> LayerCounts {
        let tracer = Tracer::new();
        let mut counts = LayerCounts::default();
        let mut runs = RealRuns::default();
        let real = tracer
            .span("bench.rep", None, |root| {
                run_then_replay(&session, 1, &tracer, root, &mut counts, &mut runs)
            })
            .unwrap();
        assert_eq!(
            tracer.durations("real.run").iter().sum::<f64>() > 0.0,
            runs.run_s > 0.0
        );
        assert!(runs.run_s >= runs.search_s && runs.search_s > 0.0);
        let own = tracer.self_seconds();
        for layer in [
            "synthesis.search",
            "synthesis.lower",
            "cost.predict",
            "exec.measure",
        ] {
            assert!(own.contains_key(layer), "no {layer} span");
        }
        assert_eq!(
            counts.programs_retained,
            real.total_programs_retained() as u64
        );
        counts
    }

    #[test]
    fn measured_replay_reproduces_the_run() {
        let counts = replay_matches(small(RunMode::Measure).build().unwrap());
        assert_eq!(counts.matrices, 2);
        // Every program and each placement's AllReduce baseline is measured.
        assert_eq!(counts.measure_calls, counts.programs_retained + 2);
    }

    #[test]
    fn bounded_shortlist_replay_reproduces_the_run() {
        let session = small(RunMode::Shortlist(3)).keep_top(2).build().unwrap();
        let counts = replay_matches(session);
        assert_eq!(counts.measure_calls, 3 + 2);
        assert!(counts.programs_retained <= 4);
    }

    #[test]
    fn compare_reports_a_changed_best_time_or_count_only() {
        let session = small(RunMode::Shortlist(3)).build().unwrap();
        let real = session.run().unwrap();
        let mut changed = real.clone();
        let best = changed.placements[0]
            .programs
            .iter_mut()
            .min_by(|a, b| a.predicted_seconds.total_cmp(&b.predicted_seconds))
            .unwrap();
        best.predicted_seconds *= 1.0 - 1e-12;
        assert!(compare(&real, &changed).is_err());
        let mut fewer = real.clone();
        fewer.placements[1].num_programs -= 1;
        assert!(compare(&real, &fewer).is_err());
        // Retaining fewer programs is not a mismatch while the best stay.
        let mut trimmed = real.clone();
        for placement in &mut trimmed.placements {
            placement.programs.truncate(1);
            placement.programs_retained = 1;
        }
        compare(&real, &trimmed).unwrap();
    }
}
