//! The two DES workloads: the paper's evaluation vehicle replayed on the
//! host, timed from outside. Open loop, Poisson arrivals at 1 M ops/s
//! (below MINOS-B's ≈1.6 M ops/s knee), latency from scheduled arrival.

use minos_core::obs::{self, SharedSink, TraceRecord, TraceSink};
use minos_net::driver::{run_open_loop_sharded, run_open_loop_sharded_traced, ParMode};
use minos_net::Arch;
use minos_types::{DdpModel, PersistencyModel, ShardMap, SimConfig};
use minos_workload::{openloop::schedule_digest, OpenLoopSpec, Scenario};
use std::time::Instant;

pub const OFFERED_OPS_PER_S: f64 = 1e6;
pub const FULL_OPS: u64 = 300_000;
/// Prefix replayed for the telemetry and tracing overhead ratios: the
/// default 1 µs telemetry tick costs ≈144× at 300 K ops.
pub const OVERHEAD_OPS: u64 = 20_000;
const NODES: usize = 5;

pub fn spec(ops: u64) -> OpenLoopSpec {
    OpenLoopSpec::new(Scenario::YcsbA, OFFERED_OPS_PER_S)
        .with_total_ops(ops)
        .with_records(100_000)
        .with_sessions(10_000)
}

fn model() -> DdpModel {
    DdpModel::lin(PersistencyModel::Synchronous)
}

fn map() -> ShardMap {
    ShardMap::uniform(1, NODES, NODES as u16)
}

/// Virtual-time results of a replay: a pure function of `(arch, spec,
/// seed)`, so they must repeat bit-exactly.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Virtual {
    pub submitted: u64,
    pub completed: u64,
    pub events: u64,
    pub ops_per_s: f64,
    pub read_p50_ns: u64,
    pub read_p99_ns: u64,
    pub write_p50_ns: u64,
    pub write_p99_ns: u64,
}

pub struct Replay {
    pub wall_s: f64,
    pub vt: Virtual,
}

/// Builds the arrival schedule the way the driver will (it is rebuilt
/// inside the timed call), timing it as this workload's set-up, and
/// digests it.
pub fn timed_schedule(ops: u64, seed: u64) -> (f64, u64) {
    let t0 = Instant::now();
    let schedule = spec(ops).schedule(seed);
    let setup_s = t0.elapsed().as_secs_f64();
    (setup_s, schedule_digest(&schedule))
}

pub fn replay(arch: Arch, ops: u64, seed: u64, telemetry_tick_ns: u64) -> Replay {
    let cfg = SimConfig::paper_defaults().with_telemetry_tick(telemetry_tick_ns);
    let t0 = Instant::now();
    let out = run_open_loop_sharded(
        arch,
        &cfg,
        model(),
        &spec(ops),
        seed,
        &map(),
        ParMode::Single,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let mut r = out.result;
    Replay {
        wall_s,
        vt: Virtual {
            submitted: r.submitted,
            completed: r.completed,
            events: out.events,
            ops_per_s: r.achieved_throughput(),
            read_p50_ns: r.read_lat.p50(),
            read_p99_ns: r.read_lat.p99(),
            write_p50_ns: r.write_lat.p50(),
            write_p99_ns: r.write_lat.p99(),
        },
    }
}

struct CountingSink(u64);

impl TraceSink for CountingSink {
    fn record(&mut self, _rec: &TraceRecord) {
        self.0 += 1;
    }
}

/// Wall seconds of a replay with a tracer attached whose sink only
/// counts, and the number of records it saw.
pub fn traced_replay_wall_s(arch: Arch, ops: u64, seed: u64) -> (f64, u64) {
    let cfg = SimConfig::paper_defaults().with_telemetry_tick(0);
    let sink = obs::shared(CountingSink(0));
    let sinks_for = |_group: u32| -> Vec<SharedSink> { vec![sink.clone()] };
    let t0 = Instant::now();
    let out = run_open_loop_sharded_traced(
        arch,
        &cfg,
        model(),
        &spec(ops),
        seed,
        &map(),
        ParMode::Single,
        Some(&sinks_for),
    );
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(out.result.completed, out.result.submitted);
    let records = sink.lock().expect("sink lock").0;
    (wall_s, records)
}
