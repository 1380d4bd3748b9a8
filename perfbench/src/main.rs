//! End-to-end and per-layer benchmark of P². One process runs one named
//! workload for a given time, checks every output, and prints the run
//! context and then, as its last line, one JSON result object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the same
//! workload through each layer's public functions under spans and reports
//! the per-layer metrics instead. See `perfbench/README.md`.

mod planner_mix;
mod replay;
mod report;
mod speed;
mod stats;
mod sweep;
mod sys;
mod trace;

use report::Report;

const USAGE: &str = "\
usage: p2_perfbench --workload <paper_sweep|deep_shortlist|planner_mix> \
--seed <u64> --seconds <secs> --trace <0|1>

  --workload  which workload to run
  --seed      workload seed: the simulated-measurement noise seed, and for
              planner_mix also the request stream
  --seconds   how long the timed phase runs (each workload finishes the
              repetition in progress, and runs at least one)
  --trace     0: end-to-end metrics; 1: traced replay, per-layer metrics
  --help      print this message";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    DeepShortlist,
    PlannerMix,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::DeepShortlist => "deep_shortlist",
            Workload::PlannerMix => "planner_mix",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        [
            Workload::PaperSweep,
            Workload::DeepShortlist,
            Workload::PlannerMix,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }
}

/// Checked command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Parses the arguments; `Ok(None)` asks for the usage text.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let parsed = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0);
                seconds =
                    Some(parsed.ok_or_else(|| format!("--seconds {value:?} is not in (0, 3600]"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.context_str("workload", args.workload.name());
    report.context_int("seed", args.seed);
    report.context_num("seconds", args.seconds);
    report.context_num("trace", f64::from(u8::from(args.trace)));
    report.context_str("git_sha", &sys::git_sha());
    report.context_int("available_parallelism", sys::available_parallelism() as u64);
    report.context_num("loadavg_1m_start", sys::loadavg_1m());
    match args.workload {
        Workload::PaperSweep => sweep::run(&args, sweep::paper_sweep, &mut report),
        Workload::DeepShortlist => sweep::run(&args, sweep::deep_shortlist, &mut report),
        Workload::PlannerMix => planner_mix::run(&args, &mut report),
    }
    report.context_num("loadavg_1m_end", sys::loadavg_1m());
    println!("{{\"context\":{}}}", report.context_json());
    println!("{}", report.result_json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn arguments_are_checked() {
        let args = parse("--workload planner_mix --seed 7 --seconds 2.5 --trace 1")
            .unwrap()
            .unwrap();
        assert_eq!(args.workload, Workload::PlannerMix);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 2.5, true));
        assert!(parse("--help").unwrap().is_none());
        assert!(parse("--workload paper_sweep --help").unwrap().is_none());
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1",
            "--workload paper_sweep --seed -1 --seconds 1",
            "--workload paper_sweep --seed 1 --seconds 0",
            "--workload paper_sweep --seed 1 --seconds 1 --trace 2",
            "--workload paper_sweep --seed 1 --seconds",
            "--workload paper_sweep --seed 1 --seconds 1 --frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
