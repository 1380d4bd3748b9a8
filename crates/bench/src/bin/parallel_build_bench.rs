//! Benchmarks the parallel level-synchronous DAG build against the serial
//! build on the heaviest rack/node/GPU placement, asserts the two are
//! bit-identical (same programs, same order, same deterministic statistics)
//! and reports the build-phase speedup.
//!
//! Usage: `cargo run --release -p p2_bench --bin parallel_build_bench --`
//! `[--size N] [--threads N] [--repeats N] [--assert-speedup X]`
//! `[--json PATH]`
//!
//! The serial and parallel builds each run `--repeats` times (default 3) and
//! the best build-phase time of each is compared. `--assert-speedup X` exits
//! non-zero unless parallel is at least `X`× faster — the CI gate; it is
//! opt-in because the speedup depends on the runner's core count.
//! `--json PATH` writes a machine-readable record for the bench trajectory.

use std::time::Duration;

use p2_bench::{exit_with_usage, flag_arg};
use p2_placement::enumerate_matrices;
use p2_synthesis::{HierarchyKind, SynthesisResult, Synthesizer};
use p2_topology::presets;

const USAGE: &str = "usage: parallel_build_bench [--size N] [--threads N] [--repeats N] \
[--assert-speedup X] [--json PATH]";

struct Args {
    size: usize,
    threads: usize,
    repeats: usize,
    assert_speedup: Option<f64>,
    json_path: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        size: 6,
        threads: 8,
        repeats: 3,
        assert_speedup: None,
        json_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => parsed.size = flag_arg(&mut args, "--size", USAGE),
            "--threads" => parsed.threads = flag_arg(&mut args, "--threads", USAGE),
            "--repeats" => parsed.repeats = flag_arg(&mut args, "--repeats", USAGE),
            "--assert-speedup" => {
                parsed.assert_speedup = Some(flag_arg(&mut args, "--assert-speedup", USAGE));
            }
            "--json" => parsed.json_path = Some(flag_arg(&mut args, "--json", USAGE)),
            "--help" | "-h" => exit_with_usage(USAGE, None),
            other => exit_with_usage(USAGE, Some(&format!("unknown argument `{other}`"))),
        }
    }
    if parsed.repeats == 0 {
        exit_with_usage(USAGE, Some("--repeats must be positive"));
    }
    parsed
}

/// Runs the synthesis `repeats` times at the given thread count and returns
/// the last result together with the best build-phase duration.
fn best_of(
    repeats: usize,
    threads: usize,
    size: usize,
    make: &dyn Fn() -> Synthesizer,
) -> (SynthesisResult, Duration) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..repeats {
        let result = make().with_build_threads(threads).synthesize(size);
        best = best.min(result.stats.build_duration);
        last = Some(result);
    }
    (last.expect("repeats > 0"), best)
}

fn main() {
    let Args {
        size,
        threads,
        repeats,
        assert_speedup,
        json_path,
    } = parse_args();

    let rack = presets::rack_node_gpu_system(2, 2, 4);
    let matrix = enumerate_matrices(&rack.hierarchy().arities(), &[16])
        .expect("rack axes fit the system")
        .into_iter()
        .next()
        .expect("at least one rack placement");
    let make = move || {
        Synthesizer::new(matrix.clone(), vec![0], HierarchyKind::ReductionAxes)
            .expect("valid synthesizer")
    };

    println!(
        "Parallel DAG build bench: heaviest rack/node/GPU placement, \
         max_program_size = {size}, best of {repeats}\n"
    );
    let (serial, serial_build) = best_of(repeats, 1, size, &make);
    let (parallel, parallel_build) = best_of(repeats, threads, size, &make);

    // The tentpole contract: bit-identical artifacts for any thread count.
    assert_eq!(
        serial.programs, parallel.programs,
        "parallel build changed the program set or order"
    );
    let deterministic = |r: &SynthesisResult| {
        (
            r.stats.states_explored,
            r.stats.instructions_tried,
            r.stats.candidate_instructions,
            r.stats.programs_emitted,
            r.stats.unique_device_states,
            r.stats.goal_respects_entries,
            r.stats.apply_cache_hits + r.stats.apply_cache_misses,
        )
    };
    assert_eq!(
        deterministic(&serial),
        deterministic(&parallel),
        "parallel build changed a deterministic statistic"
    );

    let serial_ms = serial_build.as_secs_f64() * 1e3;
    let parallel_ms = parallel_build.as_secs_f64() * 1e3;
    let speedup = serial_ms / parallel_ms.max(1e-9);
    println!(
        "serial build:   {serial_ms:.2} ms\n\
         parallel build: {parallel_ms:.2} ms ({threads} threads)\n\
         speedup:        {speedup:.2}x\n\
         programs:       {} (bit-identical across builds)",
        serial.programs.len()
    );

    if let Some(path) = json_path {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"parallel_build_bench\",\n",
                "  \"case\": \"rack_node_gpu_reduce0\",\n",
                "  \"max_program_size\": {},\n",
                "  \"threads\": {},\n",
                "  \"repeats\": {},\n",
                "  \"serial_build_ms\": {:.3},\n",
                "  \"parallel_build_ms\": {:.3},\n",
                "  \"speedup\": {:.3},\n",
                "  \"programs\": {},\n",
                "  \"bit_identical\": true\n",
                "}}\n"
            ),
            size,
            threads,
            repeats,
            serial_ms,
            parallel_ms,
            speedup,
            serial.programs.len(),
        );
        std::fs::write(&path, json).expect("writing the JSON report");
        println!("\nwrote {path}");
    }

    if let Some(min) = assert_speedup {
        assert!(
            speedup >= min,
            "parallel build speedup {speedup:.2}x below the required {min:.2}x"
        );
        println!("\nok: speedup {speedup:.2}x >= required {min:.2}x");
    } else {
        println!("\nok: serial and parallel builds are bit-identical");
    }
}
