//! The line-delimited JSON wire protocol of `plan_service`.
//!
//! One request per line, one response per line, over a plain TCP stream.
//! Requests are JSON objects dispatched on `"op"`:
//!
//! * `{"op":"ping"}` → `{"ok":true,"pong":true}`
//! * `{"op":"stats"}` → `{"ok":true, ...counter fields...}`
//! * `{"op":"shutdown"}` → `{"ok":true,"shutting_down":true}` and the
//!   server stops accepting connections.
//! * `{"op":"plan", ...}` → a plan response (below).
//!
//! A plan request names a preset topology and the experiment knobs:
//!
//! ```json
//! {"op":"plan","tenant":"alice","system":"a100","nodes":2,
//!  "axes":[8,4],"reduction":[0],"algo":"ring","mode":"measure",
//!  "cost_model":"alpha-beta","bytes_per_device":1e9,"repeats":2}
//! ```
//!
//! `system` is one of `a100` / `v100` / `v100-pcie` (with `nodes`),
//! `figure2a`, or `rack` (with `racks`, `nodes_per_rack`, `gpus`, and an
//! optional `oversubscription` ratio). Optional knobs mirror
//! [`PlanRequest`]: `max_program_size`, `noise`, `seed`, `repeats`,
//! `keep_top`, `prune_slack`, `top_k`, `shortlist` (with
//! `"mode":"shortlist"`). The response carries the plan plus its request
//! telemetry:
//!
//! ```json
//! {"ok":true,"source":"warm","fingerprint":"…32 hex…","latency_us":120,
//!  "queue_depth":0,"label":"…","entries":[…]}
//! ```
//!
//! Errors come back as `{"ok":false,"error":"…","kind":"…"}` and never
//! close the connection; parse failures of one line only fail that line.

use p2_core::RunMode;
use p2_cost::{CostModelKind, NcclAlgo};
use p2_topology::presets;

use crate::error::ServiceError;
use crate::json::{Json, JsonObject};
use crate::planner::{PlanResponse, PlannerStats};
use crate::request::PlanRequest;

/// A parsed wire request.
#[derive(Debug, Clone)]
pub enum WireRequest {
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Stop the server.
    Shutdown,
    /// Plan a request on behalf of a tenant.
    Plan {
        /// The tenant the fair scheduler accounts this request to.
        tenant: String,
        /// The decoded plan request.
        request: Box<PlanRequest>,
    },
}

fn get_usize(json: &Json, key: &str) -> Result<Option<usize>, ServiceError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value.as_u64().map(|v| Some(v as usize)).ok_or_else(|| {
            ServiceError::Protocol(format!("`{key}` must be a non-negative integer"))
        }),
    }
}

fn get_list(json: &Json, key: &str) -> Result<Option<Vec<usize>>, ServiceError> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => {
            let items = value
                .as_arr()
                .ok_or_else(|| ServiceError::Protocol(format!("`{key}` must be an array")))?;
            items
                .iter()
                .map(|item| {
                    item.as_u64().map(|v| v as usize).ok_or_else(|| {
                        ServiceError::Protocol(format!("`{key}` entries must be integers"))
                    })
                })
                .collect::<Result<Vec<usize>, ServiceError>>()
                .map(Some)
        }
    }
}

fn parse_system(json: &Json) -> Result<p2_topology::SystemTopology, ServiceError> {
    let name = json
        .get("system")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::Protocol("`system` is required".to_string()))?;
    let nodes = get_usize(json, "nodes")?.unwrap_or(2);
    match name {
        "a100" => Ok(presets::a100_system(nodes)),
        "v100" => Ok(presets::v100_system(nodes)),
        "v100-pcie" => Ok(presets::v100_pcie_system(nodes)),
        "figure2a" => Ok(presets::figure2a_system()),
        "rack" => {
            let racks = get_usize(json, "racks")?.unwrap_or(2);
            let nodes_per_rack = get_usize(json, "nodes_per_rack")?.unwrap_or(2);
            let gpus = get_usize(json, "gpus")?.unwrap_or(4);
            match json.get("oversubscription").and_then(Json::as_f64) {
                Some(ratio) => Ok(presets::rack_node_gpu_system_oversubscribed(
                    racks,
                    nodes_per_rack,
                    gpus,
                    ratio,
                )),
                None => Ok(presets::rack_node_gpu_system(racks, nodes_per_rack, gpus)),
            }
        }
        other => Err(ServiceError::Protocol(format!(
            "unknown system preset `{other}` (expected a100, v100, v100-pcie, figure2a, or rack)"
        ))),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`ServiceError::Protocol`] describing the first problem found.
pub fn parse_request(line: &str) -> Result<WireRequest, ServiceError> {
    let json = Json::parse(line).map_err(ServiceError::Protocol)?;
    let op = json
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::Protocol("`op` is required".to_string()))?;
    match op {
        "ping" => Ok(WireRequest::Ping),
        "stats" => Ok(WireRequest::Stats),
        "shutdown" => Ok(WireRequest::Shutdown),
        "plan" => {
            let system = parse_system(&json)?;
            let axes = get_list(&json, "axes")?
                .ok_or_else(|| ServiceError::Protocol("`axes` is required".to_string()))?;
            let reduction = get_list(&json, "reduction")?
                .ok_or_else(|| ServiceError::Protocol("`reduction` is required".to_string()))?;
            let mut request = PlanRequest::new(system, axes, reduction);
            if let Some(algo) = json.get("algo").and_then(Json::as_str) {
                request.algo = match algo {
                    "ring" => NcclAlgo::Ring,
                    "tree" => NcclAlgo::Tree,
                    other => {
                        return Err(ServiceError::Protocol(format!(
                            "unknown algo `{other}` (expected ring or tree)"
                        )))
                    }
                };
            }
            if let Some(kind) = json.get("cost_model").and_then(Json::as_str) {
                request.cost_model = kind
                    .parse::<CostModelKind>()
                    .map_err(|_| ServiceError::Protocol(format!("unknown cost model `{kind}`")))?;
            }
            if let Some(mode) = json.get("mode").and_then(Json::as_str) {
                request.mode = match mode {
                    "measure" => RunMode::Measure,
                    "predict" | "predict-only" => RunMode::PredictOnly,
                    "shortlist" => {
                        let n = get_usize(&json, "shortlist")?.ok_or_else(|| {
                            ServiceError::Protocol(
                                "`shortlist` length is required with mode=shortlist".to_string(),
                            )
                        })?;
                        RunMode::Shortlist(n)
                    }
                    other => {
                        return Err(ServiceError::Protocol(format!(
                            "unknown mode `{other}` (expected measure, predict, or shortlist)"
                        )))
                    }
                };
            }
            request.bytes_per_device = json.get("bytes_per_device").and_then(Json::as_f64);
            request.noise_fraction = json.get("noise").and_then(Json::as_f64);
            request.seed = json.get("seed").and_then(Json::as_u64);
            request.max_program_size = get_usize(&json, "max_program_size")?;
            request.repeats = get_usize(&json, "repeats")?;
            request.keep_top = get_usize(&json, "keep_top")?;
            request.prune_slack = json.get("prune_slack").and_then(Json::as_f64);
            if let Some(top_k) = get_usize(&json, "top_k")? {
                request.top_k = top_k;
            }
            let tenant = json
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or("default")
                .to_string();
            Ok(WireRequest::Plan {
                tenant,
                request: Box::new(request),
            })
        }
        other => Err(ServiceError::Protocol(format!("unknown op `{other}`"))),
    }
}

/// Renders a successful plan response line.
pub fn encode_plan_response(response: &PlanResponse) -> String {
    let entries: Vec<Json> = response
        .plan
        .entries
        .iter()
        .map(|entry| {
            JsonObject::new()
                .push("matrix", Json::Str(entry.matrix.clone()))
                .push("signature", Json::Str(entry.signature.clone()))
                .push("program", Json::Str(entry.program.clone()))
                .push("predicted_seconds", Json::Num(entry.predicted_seconds))
                .push("measured_seconds", Json::Num(entry.measured_seconds))
                .build()
        })
        .collect();
    JsonObject::new()
        .push("ok", Json::Bool(true))
        .push("source", Json::Str(response.source.as_str().to_string()))
        .push("fingerprint", Json::Str(response.fingerprint.to_string()))
        .push("latency_us", Json::Num(response.latency.as_micros() as f64))
        .push("queue_depth", Json::Num(response.queue_depth as f64))
        .push("label", Json::Str(response.plan.label.clone()))
        .push(
            "placements",
            Json::Num(response.plan.stats.placements as f64),
        )
        .push("programs", Json::Num(response.plan.stats.programs as f64))
        .push("entries", Json::Arr(entries))
        .build()
        .to_string()
}

/// Renders a stats response line.
pub fn encode_stats(stats: &PlannerStats) -> String {
    JsonObject::new()
        .push("ok", Json::Bool(true))
        .push("requests", Json::Num(stats.requests as f64))
        .push("warm_hits", Json::Num(stats.warm_hits as f64))
        .push("disk_hits", Json::Num(stats.disk_hits as f64))
        .push("coalesced", Json::Num(stats.coalesced as f64))
        .push("syntheses", Json::Num(stats.syntheses as f64))
        .push("batches", Json::Num(stats.batches as f64))
        .push("rejected", Json::Num(stats.rejected as f64))
        .push("store_errors", Json::Num(stats.store_errors as f64))
        .push("queue_depth", Json::Num(stats.queue_depth as f64))
        .push("peak_queue_depth", Json::Num(stats.peak_queue_depth as f64))
        .push("lru_len", Json::Num(stats.lru_len as f64))
        .push("evictions", Json::Num(stats.evictions as f64))
        .push("size_evictions", Json::Num(stats.size_evictions as f64))
        .push("ttl_evictions", Json::Num(stats.ttl_evictions as f64))
        .push("resident_bytes", Json::Num(stats.resident_bytes as f64))
        .push("disk_misreads", Json::Num(stats.disk_misreads as f64))
        .build()
        .to_string()
}

/// Renders an error response line, tagging the error kind for clients that
/// branch on it (`overloaded` → back off, `protocol` → fix the request).
pub fn encode_error(error: &ServiceError) -> String {
    let kind = match error {
        ServiceError::Pipeline(_) => "pipeline",
        ServiceError::Overloaded { .. } => "overloaded",
        ServiceError::ShuttingDown => "shutting_down",
        ServiceError::Store(_) => "store",
        ServiceError::Protocol(_) => "protocol",
    };
    JsonObject::new()
        .push("ok", Json::Bool(false))
        .push("kind", Json::Str(kind.to_string()))
        .push("error", Json::Str(error.to_string()))
        .build()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_requests_decode_to_the_same_fingerprint_as_native_ones() {
        let line = r#"{"op":"plan","tenant":"alice","system":"a100","nodes":2,
                       "axes":[8,4],"reduction":[0],"algo":"ring",
                       "bytes_per_device":1e9,"repeats":2,"seed":7}"#
            .replace('\n', " ");
        let parsed = parse_request(&line).unwrap();
        let WireRequest::Plan { tenant, request } = parsed else {
            panic!("expected a plan request");
        };
        assert_eq!(tenant, "alice");
        let native = PlanRequest::new(presets::a100_system(2), vec![8, 4], vec![0])
            .with_bytes_per_device(1.0e9)
            .with_repeats(2)
            .with_seed(7);
        assert_eq!(request.fingerprint(), native.fingerprint());
    }

    #[test]
    fn shortlist_mode_and_rack_preset_decode() {
        let line = r#"{"op":"plan","system":"rack","racks":2,"nodes_per_rack":2,"gpus":4,
                       "axes":[4,4],"reduction":[0],"mode":"shortlist","shortlist":10}"#
            .replace('\n', " ");
        let WireRequest::Plan { request, .. } = parse_request(&line).unwrap() else {
            panic!("expected a plan request");
        };
        assert_eq!(request.mode, RunMode::Shortlist(10));
        assert_eq!(request.system.num_devices(), 16);
    }

    #[test]
    fn control_ops_decode() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#).unwrap(),
            WireRequest::Ping
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            WireRequest::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            WireRequest::Shutdown
        ));
    }

    #[test]
    fn bad_requests_fail_with_protocol_errors() {
        for bad in [
            "not json",
            r#"{"op":"warp"}"#,
            r#"{"op":"plan","system":"quantum","axes":[2],"reduction":[0]}"#,
            r#"{"op":"plan","system":"a100","reduction":[0]}"#,
            r#"{"op":"plan","system":"a100","axes":[8,4],"reduction":[0],"mode":"shortlist"}"#,
            r#"{"op":"plan","system":"a100","axes":[8,-4],"reduction":[0]}"#,
        ] {
            assert!(
                matches!(parse_request(bad), Err(ServiceError::Protocol(_))),
                "{bad} should fail"
            );
        }
    }

    #[test]
    fn deeply_nested_lines_get_a_protocol_error_reply() {
        // One hostile line must not overflow the connection thread's stack
        // (which aborts the whole server): it is refused like any bad line.
        let line = "[".repeat(200_000);
        let error = parse_request(&line).unwrap_err();
        assert!(matches!(error, ServiceError::Protocol(_)), "{error}");
        let reply = Json::parse(&encode_error(&error)).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(reply.get("kind").and_then(Json::as_str), Some("protocol"));
    }

    #[test]
    fn error_lines_tag_their_kind() {
        let line = encode_error(&ServiceError::Overloaded {
            queue_depth: 64,
            capacity: 64,
        });
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("overloaded"));
    }
}
