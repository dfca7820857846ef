//! CI gate for the bench suite's JSON output.
//!
//! `scripts/verify.sh` runs the bench targets in smoke mode (via `cargo
//! test`), which writes `BENCH_<suite>.json` with single-shot timings,
//! then runs this binary. It fails (exit 1) when `BENCH_mapping.json`,
//! `BENCH_router.json`, `BENCH_gnn.json`, `BENCH_pipeline.json`, or
//! `BENCH_serve.json` is missing, malformed, or lacks the entries the
//! incremental-annealer, router, batched-GNN, artifact round-trip, and
//! serving-cache work is benchmarked by — so a refactor that silently
//! drops a bench registration breaks verify, not just the numbers.

use lisa_bench::timing::bench_dir;

/// Mapping-suite entries every run — smoke or measure — must produce
/// (cheap tier).
const REQUIRED_MAPPING: &[&str] = &[
    "movement/fig4_3x3/journal",
    "label_draw/gemm_x2_8x8_ii2",
    "race/fig4_3x3/lanes1",
    "race/fig4_3x3/lanes4",
    "movement/fig4_16x16/journal",
    "e2e/doitgen_16x16/constructive",
    "movement/fig4_32x32/journal",
    "e2e/doitgen_32x32/constructive",
    "filter/fig4_3x3/off",
    "filter/fig4_3x3/on",
    "strategy/doitgen_4x4/sa",
    "strategy/doitgen_4x4/mixed",
];

/// Distance-index footprint metrics the mapping suite must emit for the
/// big fabrics the landmark oracle serves.
const REQUIRED_MAPPING_METRICS: &[&str] = &[
    "distance/16x16_oracle_bytes",
    "distance/16x16_dense_bytes",
    "distance/32x32_oracle_bytes",
    "distance/32x32_dense_bytes",
    "filter/fig4_3x3/off_router_invocations",
    "filter/fig4_3x3/on_router_invocations",
    "filter/fig4_3x3/on_rejected",
    "filter/fig4_3x3/on_false_rejects",
    "strategy/fig9_4x4/mapped_sa",
    "strategy/fig9_4x4/mapped_mixed",
    "strategy/fig9_4x4/wins_constructive",
    "strategy/fig9_4x4/wins_sa",
    "strategy/doitgen_4x4/constructive_router_invocations",
    "strategy/doitgen_4x4/sa_router_invocations",
];

/// Router-suite entries every run must produce: direct, long-haul,
/// detouring, infeasible (cone-exhausting) and slack-waiting searches.
const REQUIRED_ROUTER: &[&str] = &[
    "adjacent_4x4",
    "corner_to_corner_8x8",
    "congested_4x4",
    "congested_8x8_fail",
    "slack_wait_8x8",
];

/// GNN-suite entries every run must produce: compiled-plan inference
/// throughput for each architecture, plus one training epoch per
/// architecture.
const REQUIRED_GNN: &[&str] = &[
    "schedule_order/predict_syr2k",
    "edge_mlp/predict",
    "spatial/predict",
    "schedule_order/train_epoch_8",
    "edge_mlp/train_epoch_64",
    "spatial/train_epoch_48",
];

/// Pipeline-suite entries every run must produce: DFG generation plus
/// the two checkpoint-artifact round-trips resume depends on. (The
/// end-to-end pipeline entry is heavy tier and absent in smoke mode.)
const REQUIRED_PIPELINE: &[&str] = &[
    "stage/generate_dfgs_12",
    "artifacts/dfg_set_round_trip_12",
    "artifacts/dataset_round_trip_12",
];

/// Serve-suite entries every run must produce: per-tier response cost,
/// a memory hit over loopback TCP (kept and per-request connections),
/// and the load-generator replay. (The sustained-load entry is heavy
/// tier and absent in smoke mode.)
const REQUIRED_SERVE: &[&str] = &[
    "engine/hit_memory",
    "engine/hit_disk",
    "engine/miss_compute",
    "tcp/kept_hit_memory",
    "tcp/connect_hit_memory",
    "load/replay_24",
];

/// Service-level metric rows the serve suite must emit (the load
/// generator's numbers, captured via `Suite::metric` in both modes).
const REQUIRED_SERVE_METRICS: &[&str] = &[
    "load/hit_rate_pct",
    "load/p50_ms",
    "load/p99_ms",
    "load/mappings_per_sec",
];

fn fail(msg: &str) -> ! {
    eprintln!("bench_check: FAIL: {msg}");
    std::process::exit(1);
}

/// Extracts the `median_ns` number from the result row for `name`.
/// The suite writes one row per line, so a line-oriented scan is exact.
fn median_ns_for<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"name\": \"{name}\"");
    let line = json.lines().find(|l| l.contains(&tag))?;
    let rest = line.split("\"median_ns\": ").nth(1)?;
    Some(rest.split([',', '}']).next()?.trim())
}

/// Extracts the `value` number from the metric row for `name` (metric
/// rows carry `"value"` where timing rows carry `"median_ns"`).
fn value_for<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"name\": \"{name}\"");
    let line = json
        .lines()
        .find(|l| l.contains(&tag) && l.contains("\"value\": "))?;
    let rest = line.split("\"value\": ").nth(1)?;
    Some(rest.split([',', '}']).next()?.trim())
}

/// Validates one suite file: header, mode, required timing entries with
/// finite positive medians, and required metric rows with finite
/// non-negative values. Returns the mode for the OK line.
fn check_suite(suite: &str, required: &[&str], required_metrics: &[&str]) -> &'static str {
    let path = format!("{}/BENCH_{suite}.json", bench_dir());
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => fail(&format!(
            "{path} unreadable ({e}); did the bench targets run?"
        )),
    };
    if !json.contains(&format!("\"suite\": \"{suite}\"")) {
        fail(&format!("{path} lacks the suite header"));
    }
    let mode = if json.contains("\"mode\": \"measure\"") {
        "measure"
    } else if json.contains("\"mode\": \"smoke\"") {
        "smoke"
    } else {
        fail(&format!("{path} lacks a mode field"));
    };
    for name in required {
        let Some(ns) = median_ns_for(&json, name) else {
            fail(&format!("{path} is missing required entry {name}"));
        };
        match ns.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => {}
            _ => fail(&format!("entry {name} has malformed median_ns {ns:?}")),
        }
    }
    for name in required_metrics {
        let Some(v) = value_for(&json, name) else {
            fail(&format!("{path} is missing required metric {name}"));
        };
        match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => {}
            _ => fail(&format!("metric {name} has malformed value {v:?}")),
        }
    }
    mode
}

fn main() {
    let suites: [(&str, &[&str], &[&str]); 5] = [
        ("mapping", REQUIRED_MAPPING, REQUIRED_MAPPING_METRICS),
        ("router", REQUIRED_ROUTER, &[]),
        ("gnn", REQUIRED_GNN, &[]),
        ("pipeline", REQUIRED_PIPELINE, &[]),
        ("serve", REQUIRED_SERVE, REQUIRED_SERVE_METRICS),
    ];
    for (suite, required, required_metrics) in suites {
        let mode = check_suite(suite, required, required_metrics);
        println!(
            "bench_check: OK (BENCH_{suite}.json, mode {mode}, {} required entries present)",
            required.len() + required_metrics.len()
        );
    }
}
