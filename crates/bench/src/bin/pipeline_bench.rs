//! Tick engine: the perf snapshot for parallel per-shard planning.
//!
//! A multi-device server takes one cold batch tick spanning ≥ 2 device
//! shards; every occupied shard's planning pass is individually timed.
//! The sequential-equivalent cost is the *sum* of the per-shard times, the
//! parallel critical path is their *max* — the bench asserts `max < sum`
//! strictly, an arithmetic fact about the fan-out that holds even on a
//! 1-core runner where the rayon pool degrades to serial execution.
//!
//! Simulated metrics (`*_sim_us`, `kernel_launches`) are deterministic
//! and CI-gated; `wall_*` planning timers are report-only, banded only by
//! the nightly lane.
//!
//! ```text
//! cargo run --release --bin pipeline_bench [OUT_PATH]
//! ```

use std::fmt::Write as _;

use fides_api::CkksEngine;
use fides_bench::print_table;
use fides_client::wire::{EvalRequest, OpProgram, ProgramOp};
use fides_core::CkksParameters;
use fides_serve::{Server, ServerConfig};

const OUT_PATH: &str = "BENCH_PR10.json";
const LOG_N: usize = 10;
const LEVELS: usize = 4;

/// Parallel-planning lane: device shards and tenants for the cold tick.
const SHARD_DEVICES: usize = 4;
const SHARD_TENANTS: usize = 12;

struct Tenant {
    session: fides_api::Session,
    req: EvalRequest,
}

/// A multiplication chain deep enough that every shard's planning pass
/// (fusion scan + liveness pooling over the recorded kernels) takes
/// measurable wall time even on a fast runner.
fn program() -> OpProgram {
    let mut p = OpProgram::new(1);
    let sq = p.push(ProgramOp::Square { a: 0 });
    let sh = p.push(ProgramOp::AddScalar { a: sq, c: 0.25 });
    let m = p.push(ProgramOp::Mul { a: sh, b: 0 });
    let out = p.push(ProgramOp::AddScalar { a: m, c: -0.125 });
    p.output(out);
    p
}

/// Pre-encrypts one request for each of `n` tenants (session id 0,
/// rewritten once the session opens), deterministically seeded so every
/// run serves identical ciphertext bytes.
fn tenants(n: usize) -> Vec<Tenant> {
    let program = program();
    (0..n)
        .map(|t| {
            let engine = CkksEngine::builder()
                .log_n(LOG_N)
                .levels(LEVELS)
                .scale_bits(40)
                .seed(10_100 + t as u64)
                .build()
                .expect("tenant engine");
            let session = engine.session();
            let x = 0.08 + 0.003 * (t * 17) as f64;
            let req = session
                .eval_request(0, &[&[x, -x, 0.5 * x]], &program)
                .expect("encrypt");
            Tenant { session, req }
        })
        .collect()
}

fn open_all(server: &Server, tenants: &[Tenant]) -> Vec<u64> {
    tenants
        .iter()
        .map(|t| {
            server
                .open_session(t.session.session_request(&[]).expect("session request"))
                .expect("open session")
        })
        .collect()
}

struct PlanRow {
    shards: usize,
    plan_misses: u64,
    kernel_launches: u64,
    first_tick_sim_us: f64,
    wall_plan_seq_us: u64,
    wall_plan_critical_us: u64,
}

/// One cold batch tick across ≥ 2 device shards; per-shard planning
/// times prove the fan-out strictly shortens the critical path.
fn run_parallel_plan() -> PlanRow {
    let params = CkksParameters::new(LOG_N, LEVELS, 40, 3)
        .expect("bench params")
        .with_num_devices(SHARD_DEVICES);
    let server = Server::new(ServerConfig::new(params).batch_size(SHARD_TENANTS)).expect("server");
    let mix = tenants(SHARD_TENANTS);
    let sids = open_all(&server, &mix);
    let tickets: Vec<_> = mix
        .iter()
        .zip(&sids)
        .map(|(t, sid)| {
            let mut req = t.req.clone();
            req.session_id = *sid;
            server.submit(req).expect("submit")
        })
        .collect();

    let sim0 = server.sync_us().expect("gpu-sim substrate");
    assert_eq!(
        server.run_tick(),
        SHARD_TENANTS,
        "the cold tick drains every tenant"
    );
    let first_tick_sim_us = server.sync_us().expect("gpu-sim substrate") - sim0;
    for t in &tickets {
        let resp = t.try_take().expect("served in the cold tick");
        assert!(resp.error.is_none(), "request failed: {:?}", resp.error);
    }

    let s = server.stats();
    // Occupied shards = devices the consistent-hash placement actually
    // routed tenants to this tick (deterministic: same session ids, same
    // ring, same split on every runner).
    let occupied: Vec<usize> = (0..SHARD_DEVICES)
        .filter(|&d| s.per_device_requests.get(d).copied().unwrap_or(0) > 0)
        .collect();
    assert!(
        occupied.len() >= 2,
        "the lane needs >= 2 device shards to demonstrate the fan-out \
         (got {})",
        occupied.len()
    );
    assert_eq!(
        s.plan_cache_misses,
        occupied.len() as u64,
        "every occupied shard plans exactly once on a cold cache"
    );
    let per: Vec<u64> = occupied.iter().map(|&d| s.per_device_plan_us[d]).collect();
    assert!(
        per.iter().all(|&us| us > 0),
        "every shard's planning pass must take measurable time: {per:?}"
    );
    let seq: u64 = per.iter().sum();
    let crit = *per.iter().max().expect("non-empty");
    assert!(
        crit < seq,
        "parallel critical path ({crit} us) must be strictly below the \
         sequential sum ({seq} us)"
    );

    PlanRow {
        shards: occupied.len(),
        plan_misses: s.plan_cache_misses,
        kernel_launches: s.planned_launches,
        first_tick_sim_us,
        wall_plan_seq_us: seq,
        wall_plan_critical_us: crit,
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| OUT_PATH.into());

    let plan = run_parallel_plan();

    print_table(
        "parallel per-shard planning (one cold tick)",
        &[
            "shards",
            "plan misses",
            "launches",
            "tick sim us",
            "seq plan us",
            "critical us",
            "speedup",
        ],
        &[vec![
            plan.shards.to_string(),
            plan.plan_misses.to_string(),
            plan.kernel_launches.to_string(),
            format!("{:.0}", plan.first_tick_sim_us),
            plan.wall_plan_seq_us.to_string(),
            plan.wall_plan_critical_us.to_string(),
            format!(
                "{:.2}x",
                plan.wall_plan_seq_us as f64 / plan.wall_plan_critical_us as f64
            ),
        ]],
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"pr\": 10,");
    let _ = writeln!(json, "  \"schema\": \"fideslib-bench-pipeline-v1\",");
    let _ = writeln!(json, "  \"gpu_sim\": {{");
    let _ = writeln!(
        json,
        "    \"device\": \"RTX 4090 (simulated, functional)\","
    );
    let _ = writeln!(
        json,
        "    \"params\": \"[logN, L, dnum] = [{LOG_N}, {LEVELS}, 3]; planning lane \
         {SHARD_DEVICES} devices x {SHARD_TENANTS} tenants\","
    );
    let _ = writeln!(json, "    \"parallel_planning\": {{");
    let _ = writeln!(json, "      \"shards\": {},", plan.shards);
    let _ = writeln!(json, "      \"plan_cache_misses\": {},", plan.plan_misses);
    let _ = writeln!(json, "      \"kernel_launches\": {},", plan.kernel_launches);
    let _ = writeln!(
        json,
        "      \"first_tick_sim_us\": {:.2},",
        plan.first_tick_sim_us
    );
    let _ = writeln!(
        json,
        "      \"wall_plan_seq_us\": {},",
        plan.wall_plan_seq_us
    );
    let _ = writeln!(
        json,
        "      \"wall_plan_critical_us\": {},",
        plan.wall_plan_critical_us
    );
    let _ = writeln!(
        json,
        "      \"wall_plan_speedup_x\": {:.3}",
        plan.wall_plan_seq_us as f64 / plan.wall_plan_critical_us as f64
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_PR10.json");
    println!("wrote {out_path}");
}
