//! Merges the per-bench JSON artifacts (`BENCH_*.json`) into one
//! `BENCH_trajectory.json` with a stable flat schema, so the CI history of
//! every benchmark is a single downloadable record per commit:
//!
//! ```json
//! {
//!   "schema": "p2-bench-trajectory-v1",
//!   "git_sha": "…",
//!   "records": [
//!     { "bin": "synthesis_smoke", "metric": "cases.rack_node_gpu_reduce0.build_ms", "value": 10.9 },
//!     …
//!   ]
//! }
//! ```
//!
//! Every numeric leaf of every input file becomes one record. The `bin` is
//! the input's top-level `"bench"` field when present, else the file stem
//! (so `BENCH_sweep.json` → `BENCH_sweep`); the metric is the dotted path to
//! the leaf, with array elements named by their `"case"`/`"label"`/`"name"`
//! field when they carry one and by index otherwise. Booleans are recorded
//! as 0/1; strings and nulls are skipped (they are identifiers, not
//! measurements). Inputs that are missing are skipped with a note — a bench
//! job that did not run must not fail the merge — but unparsable inputs do
//! fail it.
//!
//! Usage: `cargo run --release -p p2_bench --bin bench_trajectory --`
//! `--out BENCH_trajectory.json [--sha SHA] FILE...`
//!
//! The commit sha comes from `--sha`, else the `GITHUB_SHA` environment
//! variable, else `"unknown"`.

use std::path::Path;

use p2_bench::{exit_with_usage, flag_arg};
use p2_json::{write_atomically, Json};

const USAGE: &str = "usage: bench_trajectory --out PATH [--sha SHA] FILE...";

struct Record {
    bin: String,
    metric: String,
    value: f64,
}

/// Appends one record per numeric leaf under `value`, extending `path` with
/// dotted segments.
fn flatten(bin: &str, path: &str, value: &Json, out: &mut Vec<Record>) {
    match value {
        Json::Num(n) => out.push(Record {
            bin: bin.to_string(),
            metric: path.to_string(),
            value: *n,
        }),
        Json::Bool(b) => out.push(Record {
            bin: bin.to_string(),
            metric: path.to_string(),
            value: f64::from(u8::from(*b)),
        }),
        Json::Null | Json::Str(_) => {}
        Json::Arr(items) => {
            for (index, item) in items.iter().enumerate() {
                let segment = ["case", "label", "name"]
                    .iter()
                    .find_map(|key| item.get(key).and_then(Json::as_str))
                    .map_or_else(|| index.to_string(), str::to_string);
                flatten(bin, &join(path, &segment), item, out);
            }
        }
        Json::Obj(fields) => {
            for (key, field) in fields {
                flatten(bin, &join(path, key), field, out);
            }
        }
    }
}

fn join(path: &str, segment: &str) -> String {
    if path.is_empty() {
        segment.to_string()
    } else {
        format!("{path}.{segment}")
    }
}

/// JSON string escaping for the metric names we emit (paths and labels are
/// plain identifiers today; the escapes keep the writer honest anyway).
fn escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn main() {
    let mut out_path = None;
    let mut sha = None;
    let mut inputs = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(flag_arg::<String>(&mut args, "--out", USAGE)),
            "--sha" => sha = Some(flag_arg::<String>(&mut args, "--sha", USAGE)),
            "--help" | "-h" => exit_with_usage(USAGE, None),
            flag if flag.starts_with('-') => {
                exit_with_usage(USAGE, Some(&format!("unknown argument `{flag}`")))
            }
            input => inputs.push(input.to_string()),
        }
    }
    let Some(out_path) = out_path else {
        exit_with_usage(USAGE, Some("--out is required"))
    };
    let sha = sha
        .or_else(|| std::env::var("GITHUB_SHA").ok())
        .unwrap_or_else(|| "unknown".to_string());
    if inputs.is_empty() {
        exit_with_usage(USAGE, Some("no input files given"));
    }

    let mut records = Vec::new();
    let mut merged = 0usize;
    for input in &inputs {
        let path = Path::new(input);
        let Ok(text) = std::fs::read_to_string(path) else {
            println!("skipping {input}: not present (bench did not run)");
            continue;
        };
        let value =
            Json::parse(&text).unwrap_or_else(|err| panic!("{input}: invalid JSON ({err})"));
        let bin = value
            .get("bench")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| {
                path.file_stem()
                    .map(|stem| stem.to_string_lossy().into_owned())
                    .unwrap_or_else(|| input.clone())
            });
        let before = records.len();
        flatten(&bin, "", &value, &mut records);
        println!("{input}: {} metrics from '{bin}'", records.len() - before);
        merged += 1;
    }
    assert!(merged > 0, "every input file was missing");

    let body = records
        .iter()
        .map(|r| {
            format!(
                "    {{ \"bin\": \"{}\", \"metric\": \"{}\", \"value\": {} }}",
                escape(&r.bin),
                escape(&r.metric),
                // f64 Display round-trips every value we parsed.
                r.value,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"p2-bench-trajectory-v1\",\n",
            "  \"git_sha\": \"{}\",\n",
            "  \"records\": [\n{}\n  ]\n",
            "}}\n"
        ),
        escape(&sha),
        body,
    );
    write_atomically(Path::new(&out_path), &json).expect("writing the merged trajectory");
    println!(
        "wrote {out_path}: {} records from {merged} of {} inputs",
        records.len(),
        inputs.len()
    );

    // The merge must itself round-trip as valid JSON with the pinned schema.
    let check = Json::parse(&json).expect("merged trajectory is valid JSON");
    assert_eq!(
        check.get("schema").and_then(Json::as_str),
        Some("p2-bench-trajectory-v1")
    );
}
