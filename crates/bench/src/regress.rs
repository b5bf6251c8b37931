//! The regression-tracking sweep behind the `minos-bench` binary.
//!
//! One sweep runs the persistency-model × architecture matrix on two
//! runtimes — the discrete-event simulators (`minos-net`, Table III
//! latency model) and the single-threaded loopback clusters
//! (`minos-core::loopback`, deterministic sequence clock) — and records
//! one [`BenchPoint`] per cell: throughput, p50/p95/p99/p999 per op
//! kind, resource-gauge high-water marks, and the Fig. 4 critical-path
//! category totals. Points serialize to `BENCH_results.json` (written
//! by [`render_json`], read back by [`parse_results`]); [`compare`]
//! diffs two files and flags every cell whose throughput dropped or
//! whose latency percentiles rose beyond a threshold.
//!
//! Both runtimes are deterministic under the shared [`crate::SEED`], so
//! a freshly rerun sweep compares clean against a just-written baseline
//! — which is exactly the `ci.sh --bench` gate.

use crate::SEED;
use minos_core::loopback::{BCluster, OCluster};
use minos_core::obs::json::quoted;
use minos_core::obs::{
    analyze, shared, Category, GaugeKind, HistogramSet, Json, MetricsSink, RingRecorder,
};
use minos_net::{
    run_observed, run_observed_sharded, run_open_loop_sharded, run_rolling_restart, run_slo_curve,
    run_with_clients, Arch, ParMode,
};
use minos_types::{DdpModel, Key, NodeId, PersistencyModel, ScopeId, ShardMap, SimConfig, Value};
use minos_workload::openloop::{OpenLoopSpec, Scenario};
use minos_workload::WorkloadSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema version stamped into `BENCH_results.json`. Version 2 added the
/// sharding dimension: `shards`/`nodes` fields per point and a
/// `<shards>x<nodes>` suffix in every cell id. Version 3 added the
/// open-loop dimension (`scenario` and `offered_load` fields; closed-loop
/// cells carry `"closed"` / `0`) and normalized loopback throughput to
/// ops/s (1 sequence tick = 1 ns) — loopback cells were previously
/// reported in ops *per tick*, ~9 orders of magnitude off the DES cells.
pub const SCHEMA_VERSION: u64 = 3;

/// Latency percentiles for one op kind, in the runtime's time unit
/// (nanoseconds on the DES runtime, sequence ticks on loopback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiles {
    /// Samples recorded.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// One sweep cell: a (runtime, architecture, model) triple and
/// everything the regression gate tracks about it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Stable identifier, `<runtime>/<arch>/<model>/<shards>x<nodes>`
    /// (e.g. `des/b/Synch/1x5`, `des/b/Synch/16x64`).
    pub id: String,
    /// `des` or `loopback`.
    pub runtime: String,
    /// Architecture slug (`b`, `b+batch`, `b+bcast`, `o`, `o+all`, …).
    pub arch: String,
    /// Persistency-model label (`Synch`, `Strict`, `REnf`, `Event`, `Scope`).
    pub model: String,
    /// Key-space shards the cell ran with (1 = fully replicated).
    pub shards: u32,
    /// Cluster size the cell ran at.
    pub nodes: u32,
    /// Workload scenario: an open-loop [`Scenario::label`] (`ycsb-a`…)
    /// or `"closed"` for the closed-loop matrix cells.
    pub scenario: String,
    /// Offered load of an open-loop cell (ops/s); 0 for closed-loop
    /// cells, where the drive adapts to the system.
    pub offered_load: f64,
    /// Completed operations per second (DES) or per sequence tick
    /// (loopback). Deterministic for a fixed seed on both runtimes.
    pub throughput: f64,
    /// Operations completed.
    pub ops: u64,
    /// Per-op-kind latency percentiles, keyed by [`minos_core::obs::OpKind::label`].
    pub latency: BTreeMap<String, Quantiles>,
    /// Resource-gauge high-water summaries, keyed by
    /// [`GaugeKind::label`] (levels: max across nodes; counters: total).
    pub gauges: BTreeMap<String, u64>,
    /// Fig. 4 critical-path totals keyed by [`Category::label`], summed
    /// over every op the trace replay reconstructed.
    pub critical_path: BTreeMap<String, u64>,
}

/// A parsed `BENCH_results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResults {
    /// Schema version of the file.
    pub version: u64,
    /// Whether the sweep ran in `--quick` mode.
    pub quick: bool,
    /// The sweep cells.
    pub points: Vec<BenchPoint>,
}

/// Architecture slug used in point ids and reports.
#[must_use]
pub fn arch_slug(arch: Arch) -> &'static str {
    match (arch.offload, arch.batching, arch.broadcast) {
        (false, false, false) => "b",
        (false, true, false) => "b+batch",
        (false, false, true) => "b+bcast",
        (false, true, true) => "b+batch+bcast",
        (true, false, false) => "o",
        (true, true, false) => "o+batch",
        (true, false, true) => "o+bcast",
        (true, true, true) => "o+all",
    }
}

fn quantiles_of(h: &minos_core::obs::LatencyHistogram) -> Quantiles {
    Quantiles {
        count: h.count(),
        p50: h.p50().unwrap_or(0),
        p95: h.p95().unwrap_or(0),
        p99: h.p99().unwrap_or(0),
        p999: h.p999().unwrap_or(0),
    }
}

fn latency_map(hists: &HistogramSet) -> BTreeMap<String, Quantiles> {
    let mut out = BTreeMap::new();
    for (_, op, h) in hists.iter() {
        if h.count() > 0 {
            out.insert(op.label().to_string(), quantiles_of(h));
        }
    }
    out
}

fn gauge_map(gauges: &minos_core::obs::GaugeSet) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for kind in GaugeKind::ALL {
        if let Some(hw) = gauges.high_water(kind) {
            out.insert(kind.label().to_string(), hw);
        }
    }
    out
}

fn critical_path_map(breakdown: [u64; 4]) -> BTreeMap<String, u64> {
    Category::ALL
        .iter()
        .map(|c| (c.label().to_string(), breakdown[c.index()]))
        .collect()
}

/// The DES architecture points a sweep covers.
#[must_use]
pub fn des_arches(quick: bool) -> Vec<Arch> {
    if quick {
        vec![Arch::baseline(), Arch::minos_o()]
    } else {
        vec![
            Arch::baseline(),
            Arch::baseline().with_batching(),
            Arch::baseline().with_broadcast(),
            Arch::offload(),
            Arch::minos_o(),
        ]
    }
}

/// The DES workload a sweep cell runs.
#[must_use]
pub fn sweep_spec(quick: bool) -> WorkloadSpec {
    let (records, reqs) = if quick { (500, 200) } else { (2_000, 800) };
    WorkloadSpec::ycsb_default()
        .with_records(records)
        .with_requests_per_node(reqs)
}

/// Runs the DES half of the sweep: every model × [`des_arches`] point
/// through [`minos_net::run_observed`] with the full observability
/// stack attached.
#[must_use]
pub fn sweep_des(quick: bool) -> Vec<BenchPoint> {
    let cfg = SimConfig::paper_defaults();
    let spec = sweep_spec(quick);
    let mut points = Vec::new();
    for arch in des_arches(quick) {
        for p in PersistencyModel::ALL {
            let model = DdpModel::lin(p);
            let run = run_observed(arch, &cfg, model, &spec, SEED, 4, 1 << 20);
            points.push(BenchPoint {
                id: format!("des/{}/{}/1x{}", arch_slug(arch), p.label(), cfg.nodes),
                runtime: "des".into(),
                arch: arch_slug(arch).into(),
                model: p.label().into(),
                shards: 1,
                nodes: cfg.nodes as u32,
                scenario: "closed".into(),
                offered_load: 0.0,
                throughput: run.result.total_throughput(),
                ops: run.result.writes + run.result.reads,
                latency: latency_map(&run.hists),
                gauges: gauge_map(&run.gauges),
                critical_path: critical_path_map(run.breakdown),
            });
        }
    }
    points
}

/// The Fig. 10-style scale-out cells: 64 simulated nodes at 4 replicas
/// per shard, fully replicated routing (1 shard) vs 16 disjoint shard
/// groups. Aggregate throughput must scale with the group count — the
/// `ci.sh --bench` gate tracks both cells like any other.
#[must_use]
pub fn scaling_shards() -> [u32; 2] {
    [1, 16]
}

/// Cluster size of the scale-out cells.
pub const SCALING_NODES: usize = 64;

/// Replicas per shard in the scale-out cells.
pub const SCALING_REPLICAS: u16 = 4;

/// The (smaller) workload each scale-out cell runs: the matrix spec at
/// 64 nodes would dominate the sweep's wall clock.
#[must_use]
pub fn scaling_spec(quick: bool) -> WorkloadSpec {
    let (records, reqs) = if quick { (512, 40) } else { (2_048, 120) };
    WorkloadSpec::ycsb_default()
        .with_records(records)
        .with_requests_per_node(reqs)
}

/// Runs the multi-group scale-out half of the sweep on the DES runtime.
#[must_use]
pub fn sweep_scaling(quick: bool) -> Vec<BenchPoint> {
    let mut cfg = SimConfig::paper_defaults();
    cfg.nodes = SCALING_NODES;
    let spec = scaling_spec(quick);
    let models = if quick {
        vec![PersistencyModel::Synchronous]
    } else {
        vec![PersistencyModel::Synchronous, PersistencyModel::Eventual]
    };
    let mut points = Vec::new();
    for &shards in &scaling_shards() {
        let map = ShardMap::uniform(shards, SCALING_NODES, SCALING_REPLICAS);
        for &p in &models {
            let run = run_observed_sharded(
                Arch::baseline(),
                &cfg,
                DdpModel::lin(p),
                &spec,
                SEED,
                4,
                1 << 20,
                &map,
            );
            points.push(BenchPoint {
                id: format!("des/b/{}/{shards}x{SCALING_NODES}", p.label()),
                runtime: "des".into(),
                arch: "b".into(),
                model: p.label().into(),
                shards,
                nodes: SCALING_NODES as u32,
                scenario: "closed".into(),
                offered_load: 0.0,
                throughput: run.result.total_throughput(),
                ops: run.result.writes + run.result.reads,
                latency: latency_map(&run.hists),
                gauges: gauge_map(&run.gauges),
                critical_path: critical_path_map(run.breakdown),
            });
        }
    }
    points
}

/// Open-loop load of the availability cell: one write per node every
/// `period_ns`, for this many periods.
#[must_use]
pub fn availability_writes(quick: bool) -> u64 {
    if quick {
        150
    } else {
        400
    }
}

/// The rolling-restart availability cell: every node of the paper
/// 5-node MINOS-B machine crashes and rejoins once, staggered across
/// the run, while an open-loop write stream keeps arriving. Ops
/// addressed to a down node are lost, so the cell's `throughput`
/// column carries the *availability fraction* (completed / submitted)
/// — the `ci.sh --bench` gate thereby flags any change that widens the
/// catch-up window or drops extra ops during a restart. The
/// `dip_ppm` / `final_epoch` gauges record the per-window throughput
/// dip and the epoch count (1 + 2·nodes when every restart completes).
#[must_use]
pub fn sweep_availability(quick: bool) -> Vec<BenchPoint> {
    let cfg = SimConfig::paper_defaults();
    let run = run_rolling_restart(
        &cfg,
        DdpModel::lin(PersistencyModel::Synchronous),
        availability_writes(quick),
        20_000,  // period: one write per node per 20 µs
        200_000, // 200 µs outage per node
        64,      // key-space
        500_000, // 0.5 ms throughput windows
    );
    let mut gauges = BTreeMap::new();
    gauges.insert("submitted".into(), run.submitted);
    gauges.insert("completed".into(), run.completed);
    gauges.insert("lost".into(), run.submitted - run.completed);
    gauges.insert("final_epoch".into(), run.final_epoch);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    gauges.insert("dip_ppm".into(), (run.dip_ratio() * 1e6) as u64);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let mean = run.write_mean_ns.round() as u64;
    let mut latency = BTreeMap::new();
    latency.insert(
        "write".into(),
        Quantiles {
            count: run.completed,
            p50: mean,
            p95: mean,
            p99: mean,
            p999: mean,
        },
    );
    vec![BenchPoint {
        id: format!("des/b/Synch/restart-1x{}", cfg.nodes),
        runtime: "des".into(),
        arch: "b".into(),
        model: "Synch".into(),
        shards: 1,
        nodes: cfg.nodes as u32,
        scenario: "closed".into(),
        offered_load: 0.0,
        throughput: run.availability(),
        ops: run.completed,
        latency,
        gauges,
        critical_path: BTreeMap::new(),
    }]
}

/// Ops driven through each loopback cell.
fn loopback_ops(quick: bool) -> u64 {
    if quick {
        240
    } else {
        900
    }
}

/// Runs the loopback half of the sweep: the B and O engine stacks under
/// the deterministic sequence clock (latency unit = protocol dispatch
/// ticks), 5 models each, with a fixed write/read/persist-scope mix.
#[must_use]
pub fn sweep_loopback(quick: bool) -> Vec<BenchPoint> {
    let mut points = Vec::new();
    for p in PersistencyModel::ALL {
        points.push(loopback_point(p, false, quick));
        points.push(loopback_point(p, true, quick));
    }
    points
}

fn loopback_point(p: PersistencyModel, offload: bool, quick: bool) -> BenchPoint {
    let nodes = 3usize;
    let keys = 64u64;
    let ops = loopback_ops(quick);
    let model = DdpModel::lin(p);
    let (msink, hists) = MetricsSink::new(p);
    let ring = shared(RingRecorder::new(1 << 18));
    let sinks: Vec<minos_core::obs::SharedSink> = vec![shared(msink), ring.clone()];

    // The op mix: three writes then a read, round-robin over nodes and
    // keys; Scope runs tag writes and flush each scope every 40 ops.
    enum DriveOp {
        Write(NodeId, Key, Option<ScopeId>),
        Read(NodeId, Key),
        Persist(NodeId, ScopeId),
    }
    let mut plan: Vec<DriveOp> = Vec::new();
    for i in 0..ops {
        let node = NodeId((i % nodes as u64) as u16);
        let key = Key(i % keys);
        if i % 4 == 3 {
            plan.push(DriveOp::Read(node, key));
        } else {
            let scope = (p == PersistencyModel::Scope).then_some(ScopeId((i % 4) as u32));
            plan.push(DriveOp::Write(node, key, scope));
        }
        if p == PersistencyModel::Scope && i % 40 == 39 {
            plan.push(DriveOp::Persist(node, ScopeId(((i / 40) % 4) as u32)));
        }
    }
    let payload = || Value::from(vec![0xA5u8; 32]);

    let (completions, gauges) = if offload {
        let mut cl = OCluster::new(nodes, model);
        cl.attach_tracer(sinks);
        for op in &plan {
            match *op {
                DriveOp::Write(n, k, s) => {
                    cl.submit_write(n, k, payload(), s);
                }
                DriveOp::Read(n, k) => {
                    cl.submit_read(n, k);
                }
                DriveOp::Persist(n, s) => {
                    cl.submit_persist_scope(n, s);
                }
            }
        }
        cl.run();
        (cl.completions().len() as u64, cl.gauges().clone())
    } else {
        let mut cl = BCluster::new(nodes, model);
        cl.attach_tracer(sinks);
        for op in &plan {
            match *op {
                DriveOp::Write(n, k, s) => {
                    cl.submit_write(n, k, payload(), s);
                }
                DriveOp::Read(n, k) => {
                    cl.submit_read(n, k);
                }
                DriveOp::Persist(n, s) => {
                    cl.submit_persist_scope(n, s);
                }
            }
        }
        cl.run();
        // Eventual/Scope persists complete in the background; release
        // them so persist gauge/trace state settles before snapshotting.
        while cl.release_persists() > 0 {
            cl.run();
        }
        (cl.completions().len() as u64, cl.gauges().clone())
    };

    let records = ring.lock().expect("ring poisoned").to_vec();
    let last_tick = records.last().map_or(0, |r| r.at_ns);
    let ops_traced = analyze(&records);
    let breakdown = Category::totals(ops_traced.iter().flat_map(|o| &o.segments));
    let hists = hists.lock().expect("hists poisoned").clone();
    BenchPoint {
        id: format!(
            "loopback/{}/{}/1x{nodes}",
            if offload { "o" } else { "b" },
            p.label()
        ),
        runtime: "loopback".into(),
        arch: if offload { "o" } else { "b" }.into(),
        model: p.label().into(),
        shards: 1,
        nodes: nodes as u32,
        scenario: "closed".into(),
        offered_load: 0.0,
        // Normalized to ops/s with 1 sequence tick = 1 ns, so loopback
        // cells sit on the same scale as the DES cells (schema v3; they
        // were previously reported in ops per tick, ~0.06).
        throughput: if last_tick == 0 {
            0.0
        } else {
            completions as f64 * 1e9 / last_tick as f64
        },
        ops: completions,
        latency: latency_map(&hists),
        gauges: gauge_map(&gauges),
        critical_path: critical_path_map(breakdown),
    }
}

/// Offered loads of the open-loop SLO curve, in ops/s: five points
/// bracketing MINOS-B's ~1.1 M ops/s capacity on the paper config, so
/// the B curve bends (the p99 knee) inside the sweep while MINOS-O
/// (~5× the capacity) stays flat.
pub const SLO_LOADS: [f64; 5] = [250_000.0, 500_000.0, 1_000_000.0, 2_000_000.0, 4_000_000.0];

/// The open-loop spec each SLO-curve cell replays (YCSB-A: the 50 %
/// read-modify-write mix, zipfian keys — the mix that actually loads
/// the write path).
#[must_use]
pub fn openloop_spec(quick: bool) -> OpenLoopSpec {
    let ops = if quick { 2_000 } else { 6_000 };
    OpenLoopSpec::new(Scenario::YcsbA, SLO_LOADS[0])
        .with_records(2_000)
        .with_sessions(400)
        .with_total_ops(ops)
}

/// Latency quantiles of an open-loop run, keyed by op kind — the
/// `latency` map of the `des/...@load` and `simspeed/*` cells.
#[must_use]
pub fn openloop_latency_map(r: &minos_net::OpenLoopResult) -> BTreeMap<String, Quantiles> {
    let mut out = BTreeMap::new();
    for (label, stats) in [
        ("op", &r.lat),
        ("write", &r.write_lat),
        ("read", &r.read_lat),
    ] {
        let mut stats = stats.clone();
        if stats.count() > 0 {
            out.insert(
                label.to_string(),
                Quantiles {
                    count: stats.count() as u64,
                    p50: stats.quantile(0.5),
                    p95: stats.quantile(0.95),
                    p99: stats.quantile(0.99),
                    p999: stats.quantile(0.999),
                },
            );
        }
    }
    out
}

/// Runs the open-loop latency-vs-offered-load curves: B and O each
/// replay the same Poisson YCSB-A schedule at every [`SLO_LOADS`]
/// point. Cell ids carry the scenario and the load
/// (`des/b/Synch/ycsb-a@1000000/1x5`), so the regression gate tracks
/// the whole curve point-by-point — including the p99 knee.
#[must_use]
pub fn sweep_openloop(quick: bool) -> Vec<BenchPoint> {
    let cfg = SimConfig::paper_defaults();
    let model = DdpModel::lin(PersistencyModel::Synchronous);
    let spec = openloop_spec(quick);
    let mut points = Vec::new();
    for arch in [Arch::baseline(), Arch::minos_o()] {
        let curve = run_slo_curve(arch, &cfg, model, &spec, SEED, &SLO_LOADS);
        for r in &curve {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let load = r.offered_load as u64;
            points.push(BenchPoint {
                id: format!(
                    "des/{}/Synch/{}@{load}/1x{}",
                    arch_slug(arch),
                    r.scenario.label(),
                    cfg.nodes
                ),
                runtime: "des".into(),
                arch: arch_slug(arch).into(),
                model: "Synch".into(),
                shards: 1,
                nodes: cfg.nodes as u32,
                scenario: r.scenario.label().into(),
                offered_load: r.offered_load,
                throughput: r.achieved_throughput(),
                ops: r.completed,
                latency: openloop_latency_map(r),
                gauges: BTreeMap::new(),
                critical_path: BTreeMap::new(),
            });
        }
    }
    points
}

/// Cluster shape of the `simspeed/*` cells: nodes, disjoint shard
/// groups, replicas per group, and the open-loop spec the cells replay.
#[must_use]
pub fn simspeed_shape(quick: bool) -> (usize, u32, u16, OpenLoopSpec) {
    let (nodes, groups, ops) = if quick {
        (16, 2, 8_000)
    } else {
        (64, 8, 30_000)
    };
    let replicas = (nodes as u32 / groups) as u16;
    let spec = OpenLoopSpec::new(Scenario::YcsbA, 250_000.0)
        .with_records(10_000)
        .with_sessions(1_000)
        .with_total_ops(ops);
    (nodes, groups, replicas, spec)
}

/// The simulator-speed cells: each DES kernel (MINOS-B and MINOS-O)
/// replays the same sharded open-loop schedule in [`ParMode::Sequential`]
/// and [`ParMode::Parallel`], one cell per (kernel, mode).
///
/// The *deterministic* metrics — virtual-time throughput, completed
/// ops, latency quantiles — are what `--compare` gates, and they must be
/// identical between the two modes (see [`par_equivalence_gate`]).
/// Wall-clock figures (`wall_ms`, `events_per_sec`, `ops_per_sec_wall`)
/// are machine-dependent, so they ride in `gauges`, which the compare
/// gate ignores; `events` (DES events processed) is deterministic and
/// rides there too as the events/sec denominator.
#[must_use]
pub fn sweep_simspeed(quick: bool) -> Vec<BenchPoint> {
    let (nodes, groups, replicas, spec) = simspeed_shape(quick);
    let mut cfg = SimConfig::paper_defaults();
    cfg.nodes = nodes;
    let map = ShardMap::uniform(groups, nodes, replicas);
    let model = DdpModel::lin(PersistencyModel::Synchronous);
    let mut points = Vec::new();
    for arch in [Arch::baseline(), Arch::minos_o()] {
        for (mode, mode_slug) in [(ParMode::Sequential, "seq"), (ParMode::Parallel, "par")] {
            let t0 = std::time::Instant::now();
            let run = run_open_loop_sharded(arch, &cfg, model, &spec, SEED, &map, mode);
            let wall = t0.elapsed();
            let mut gauges = BTreeMap::new();
            gauges.insert("events".into(), run.events);
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                gauges.insert("wall_ms".into(), wall.as_millis() as u64);
                let secs = wall.as_secs_f64().max(1e-9);
                gauges.insert("events_per_sec".into(), (run.events as f64 / secs) as u64);
                gauges.insert(
                    "ops_per_sec_wall".into(),
                    (run.result.completed as f64 / secs) as u64,
                );
            }
            points.push(BenchPoint {
                id: format!("simspeed/{}/{mode_slug}/{groups}x{nodes}", arch_slug(arch)),
                runtime: "des".into(),
                arch: arch_slug(arch).into(),
                model: "Synch".into(),
                shards: groups,
                nodes: nodes as u32,
                scenario: spec.scenario.label().into(),
                offered_load: spec.offered_load,
                throughput: run.result.achieved_throughput(),
                ops: run.result.completed,
                latency: openloop_latency_map(&run.result),
                gauges,
                critical_path: BTreeMap::new(),
            });
        }
    }
    points
}

/// The parallel-vs-sequential equivalence gate: for each DES kernel,
/// the [`ParMode::Parallel`] replay must produce *identical*
/// deterministic results to [`ParMode::Sequential`] — same completed
/// ops, same DES event count, same virtual-time throughput bits, same
/// latency quantiles. Returns every divergence found (empty = pass).
#[must_use]
pub fn par_equivalence_gate(quick: bool) -> Vec<String> {
    let points = sweep_simspeed(quick);
    let mut errors = Vec::new();
    for arch in [Arch::baseline(), Arch::minos_o()].map(arch_slug) {
        let find = |mode: &str| {
            points
                .iter()
                .find(|p| p.id.starts_with(&format!("simspeed/{arch}/{mode}/")))
                .unwrap_or_else(|| panic!("simspeed cell missing for {arch}/{mode}"))
        };
        let (seq, par) = (find("seq"), find("par"));
        if seq.ops != par.ops {
            errors.push(format!("{arch}: ops {} != {}", seq.ops, par.ops));
        }
        if seq.throughput.to_bits() != par.throughput.to_bits() {
            errors.push(format!(
                "{arch}: throughput {} != {}",
                seq.throughput, par.throughput
            ));
        }
        if seq.latency != par.latency {
            errors.push(format!("{arch}: latency quantiles diverge"));
        }
        if seq.gauges.get("events") != par.gauges.get("events") {
            errors.push(format!(
                "{arch}: events {:?} != {:?}",
                seq.gauges.get("events"),
                par.gauges.get("events")
            ));
        }
    }
    errors
}

/// The tracing-overhead pair: one quick-sized DES point run completely
/// untraced (no tracer installed on any dispatcher — the zero-cost
/// path) and the same point with the full ctx-stamping observability
/// stack attached. DES throughput is *virtual-time* ops/s: the tracer
/// adds no virtual time, so the two cells must agree exactly, and any
/// divergence means ctx propagation perturbed the protocol schedule
/// itself. `ci.sh --bench` tracks both cells like any other; the
/// `tracing_overhead_within_bound` test pins the pair within 5%.
#[must_use]
pub fn sweep_tracing(quick: bool) -> Vec<BenchPoint> {
    let cfg = SimConfig::paper_defaults();
    let spec = sweep_spec(quick);
    let arch = Arch::baseline();
    let model = DdpModel::lin(PersistencyModel::Synchronous);

    let plain = run_with_clients(arch, &cfg, model, &spec, SEED, 4);
    let traced = run_observed(arch, &cfg, model, &spec, SEED, 4, 1 << 20);

    let base = |variant: &str, throughput: f64, ops: u64| BenchPoint {
        id: format!("trace/{variant}/Synch/1x{}", cfg.nodes),
        runtime: "des".into(),
        arch: arch_slug(arch).into(),
        model: "Synch".into(),
        shards: 1,
        nodes: cfg.nodes as u32,
        scenario: "closed".into(),
        offered_load: 0.0,
        throughput,
        ops,
        latency: BTreeMap::new(),
        gauges: BTreeMap::new(),
        critical_path: BTreeMap::new(),
    };
    let off = base("off", plain.total_throughput(), plain.writes + plain.reads);
    let mut on = base(
        "on",
        traced.result.total_throughput(),
        traced.result.writes + traced.result.reads,
    );
    on.latency = latency_map(&traced.hists);
    on.gauges = gauge_map(&traced.gauges);
    on.critical_path = critical_path_map(traced.breakdown);
    vec![off, on]
}

/// Runs the whole sweep: DES matrix, loopback matrix, the 64-node
/// multi-group scale-out cells, the rolling-restart availability cell,
/// the open-loop SLO curves, then the tracing-overhead pair.
#[must_use]
pub fn run_sweep(quick: bool) -> Vec<BenchPoint> {
    let mut points = sweep_des(quick);
    points.extend(sweep_loopback(quick));
    points.extend(sweep_scaling(quick));
    points.extend(sweep_availability(quick));
    points.extend(sweep_openloop(quick));
    points.extend(sweep_tracing(quick));
    points.extend(sweep_simspeed(quick));
    points
}

// ---------------------------------------------------------------------
// BENCH_results.json
// ---------------------------------------------------------------------

fn write_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{v}", quoted(k));
    }
    out.push('}');
}

/// Serializes `points` into the `BENCH_results.json` text.
#[must_use]
pub fn render_json(points: &[BenchPoint], quick: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"version\": {SCHEMA_VERSION},\n  \"suite\": \"minos-bench\",\n  \"quick\": {quick},\n  \"points\": ["
    );
    for (i, pt) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\":{},\"runtime\":{},\"arch\":{},\"model\":{},\"shards\":{},\"nodes\":{},\"scenario\":{},\"offered_load\":{},\"throughput\":{},\"ops\":{},\"latency\":",
            quoted(&pt.id),
            quoted(&pt.runtime),
            quoted(&pt.arch),
            quoted(&pt.model),
            pt.shards,
            pt.nodes,
            quoted(&pt.scenario),
            pt.offered_load,
            pt.throughput,
            pt.ops,
        );
        out.push('{');
        for (j, (op, q)) in pt.latency.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{}}}",
                quoted(op),
                q.count,
                q.p50,
                q.p95,
                q.p99,
                q.p999
            );
        }
        out.push_str("},\"gauges\":");
        write_u64_map(&mut out, &pt.gauges);
        out.push_str(",\"critical_path_ns\":");
        write_u64_map(&mut out, &pt.critical_path);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn u64_map_of(v: &Json, what: &str) -> Result<BTreeMap<String, u64>, String> {
    let obj = v
        .as_obj()
        .ok_or_else(|| format!("{what} is not an object"))?;
    let mut out = BTreeMap::new();
    for (k, val) in obj {
        out.insert(
            k.clone(),
            val.as_u64()
                .ok_or_else(|| format!("{what}.{k} is not a u64"))?,
        );
    }
    Ok(out)
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key}"))
}

/// Parses a `BENCH_results.json` produced by [`render_json`].
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn parse_results(src: &str) -> Result<BenchResults, String> {
    let root = Json::parse(src).map_err(|e| e.to_string())?;
    let version = field(&root, "version")?
        .as_u64()
        .ok_or("version is not a u64")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported BENCH_results.json version {version} (expected {SCHEMA_VERSION})"
        ));
    }
    let quick = matches!(root.get("quick"), Some(Json::Bool(true)));
    let mut points = Vec::new();
    for (i, pt) in field(&root, "points")?
        .as_arr()
        .ok_or("points is not an array")?
        .iter()
        .enumerate()
    {
        let ctx = |e: String| format!("points[{i}]: {e}");
        let str_field = |key: &str| -> Result<String, String> {
            field(pt, key)
                .map_err(ctx)?
                .as_str()
                .map(ToString::to_string)
                .ok_or_else(|| ctx(format!("{key} is not a string")))
        };
        let mut latency = BTreeMap::new();
        for (op, q) in field(pt, "latency")
            .map_err(ctx)?
            .as_obj()
            .ok_or_else(|| ctx("latency is not an object".into()))?
        {
            let qn = |key: &str| -> Result<u64, String> {
                field(q, key)
                    .map_err(ctx)?
                    .as_u64()
                    .ok_or_else(|| ctx(format!("latency.{op}.{key} is not a u64")))
            };
            latency.insert(
                op.clone(),
                Quantiles {
                    count: qn("count")?,
                    p50: qn("p50")?,
                    p95: qn("p95")?,
                    p99: qn("p99")?,
                    p999: qn("p999")?,
                },
            );
        }
        let num_field = |key: &str| -> Result<u32, String> {
            let v = field(pt, key)
                .map_err(ctx)?
                .as_u64()
                .ok_or_else(|| ctx(format!("{key} is not a u64")))?;
            u32::try_from(v).map_err(|_| ctx(format!("{key} out of range")))
        };
        points.push(BenchPoint {
            id: str_field("id")?,
            runtime: str_field("runtime")?,
            arch: str_field("arch")?,
            model: str_field("model")?,
            shards: num_field("shards")?,
            nodes: num_field("nodes")?,
            scenario: str_field("scenario")?,
            offered_load: field(pt, "offered_load")
                .map_err(ctx)?
                .as_f64()
                .ok_or_else(|| ctx("offered_load is not a number".into()))?,
            throughput: field(pt, "throughput")
                .map_err(ctx)?
                .as_f64()
                .ok_or_else(|| ctx("throughput is not a number".into()))?,
            ops: field(pt, "ops")
                .map_err(ctx)?
                .as_u64()
                .ok_or_else(|| ctx("ops is not a u64".into()))?,
            latency,
            gauges: u64_map_of(field(pt, "gauges").map_err(ctx)?, "gauges").map_err(ctx)?,
            critical_path: u64_map_of(
                field(pt, "critical_path_ns").map_err(ctx)?,
                "critical_path_ns",
            )
            .map_err(ctx)?,
        });
    }
    Ok(BenchResults {
        version,
        quick,
        points,
    })
}

// ---------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------

/// Parses a regression threshold: `5%` or `0.05` both mean five percent.
///
/// # Errors
///
/// Rejects non-numeric, negative, and NaN thresholds.
pub fn parse_threshold(s: &str) -> Result<f64, String> {
    let (num, pct) = match s.strip_suffix('%') {
        Some(rest) => (rest, true),
        None => (s, false),
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad threshold {s:?} (want e.g. \"5%\" or \"0.05\")"))?;
    let v = if pct { v / 100.0 } else { v };
    if !v.is_finite() || v < 0.0 {
        return Err(format!("threshold {s:?} out of range"));
    }
    Ok(v)
}

/// One regression found by [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The sweep cell.
    pub id: String,
    /// The metric that moved (`throughput`, `write.p95`, …).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
}

impl Regression {
    /// Relative change (positive = worse).
    #[must_use]
    pub fn delta(&self) -> f64 {
        if self.baseline == 0.0 {
            return 0.0;
        }
        if self.metric == "throughput" {
            (self.baseline - self.current) / self.baseline
        } else {
            (self.current - self.baseline) / self.baseline
        }
    }
}

/// The outcome of diffing a sweep against a baseline file.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Cells compared (present in both files).
    pub compared: usize,
    /// Baseline cells absent from the current sweep (each one fails the
    /// gate — a silently dropped point is a regression too).
    pub missing: Vec<String>,
    /// Metrics beyond the threshold, worst first.
    pub regressions: Vec<Regression>,
}

impl CompareReport {
    /// Whether the gate passes.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Diffs `current` against `baseline` at `threshold` (relative, e.g.
/// 0.05): a cell regresses when throughput drops below
/// `baseline × (1 − threshold)` or a p50/p95/p99 latency rises above
/// `baseline × (1 + threshold)`. p999 is recorded in the file but not
/// gated (too tail-noisy on the wall-clock runtimes); new cells in
/// `current` are ignored, vanished cells fail.
#[must_use]
pub fn compare(baseline: &[BenchPoint], current: &[BenchPoint], threshold: f64) -> CompareReport {
    let mut report = CompareReport::default();
    for base in baseline {
        let Some(cur) = current.iter().find(|p| p.id == base.id) else {
            report.missing.push(base.id.clone());
            continue;
        };
        report.compared += 1;
        if cur.throughput < base.throughput * (1.0 - threshold) {
            report.regressions.push(Regression {
                id: base.id.clone(),
                metric: "throughput".into(),
                baseline: base.throughput,
                current: cur.throughput,
            });
        }
        for (op, bq) in &base.latency {
            let Some(cq) = cur.latency.get(op) else {
                report.missing.push(format!("{}:{op}", base.id));
                continue;
            };
            for (name, b, c) in [
                ("p50", bq.p50, cq.p50),
                ("p95", bq.p95, cq.p95),
                ("p99", bq.p99, cq.p99),
            ] {
                if (c as f64) > (b as f64) * (1.0 + threshold) {
                    report.regressions.push(Regression {
                        id: base.id.clone(),
                        metric: format!("{op}.{name}"),
                        baseline: b as f64,
                        current: c as f64,
                    });
                }
            }
        }
    }
    report.regressions.sort_by(|a, b| {
        b.delta()
            .partial_cmp(&a.delta())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracing acceptance bound: a fully traced DES run may cost at
    /// most 5% throughput against the untraced run — and on virtual
    /// time it should cost exactly nothing.
    #[test]
    fn tracing_overhead_within_bound() {
        let cells = sweep_tracing(true);
        assert_eq!(cells.len(), 2);
        let off = cells.iter().find(|c| c.id.contains("/off/")).unwrap();
        let on = cells.iter().find(|c| c.id.contains("/on/")).unwrap();
        assert!(off.throughput > 0.0);
        assert!(
            on.throughput >= off.throughput * 0.95,
            "tracing costs more than 5%: traced {} vs untraced {}",
            on.throughput,
            off.throughput
        );
        // Same seed, same virtual schedule: identical op counts.
        assert_eq!(on.ops, off.ops);
    }

    fn point(id: &str, thr: f64, p95: u64) -> BenchPoint {
        let mut latency = BTreeMap::new();
        latency.insert(
            "write".to_string(),
            Quantiles {
                count: 10,
                p50: p95 / 2,
                p95,
                p99: p95 * 2,
                p999: p95 * 3,
            },
        );
        let mut gauges = BTreeMap::new();
        gauges.insert("pcie_bytes".to_string(), 4096);
        BenchPoint {
            id: id.into(),
            runtime: "des".into(),
            arch: "b".into(),
            model: "Synch".into(),
            shards: 1,
            nodes: 5,
            scenario: "closed".into(),
            offered_load: 0.0,
            throughput: thr,
            ops: 100,
            latency,
            gauges,
            critical_path: Category::ALL
                .iter()
                .map(|c| (c.label().to_string(), 1000))
                .collect(),
        }
    }

    #[test]
    fn json_round_trips() {
        let mut scaled = point("des/b/Synch/16x64", 4321.0, 120);
        scaled.shards = 16;
        scaled.nodes = 64;
        let mut open = point("des/b/Synch/ycsb-a@500000/1x5", 499_876.5, 2_100);
        open.scenario = "ycsb-a".into();
        open.offered_load = 500_000.0;
        let pts = vec![
            point("des/b/Synch/1x5", 1234.5, 800),
            point("des/o/Event/1x5", 99.25, 30),
            scaled,
            open,
        ];
        let text = render_json(&pts, true);
        let parsed = parse_results(&text).expect("parse back");
        assert_eq!(parsed.version, SCHEMA_VERSION);
        assert!(parsed.quick);
        assert_eq!(parsed.points, pts);
    }

    /// The committed baseline reads back into points that render to the
    /// same bytes: the reader loses nothing, and no integer in it is
    /// rounded through an `f64`.
    #[test]
    fn committed_baseline_round_trips() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let text = std::fs::read_to_string(path).expect("read BENCH_baseline.json");
        let parsed = parse_results(&text).expect("parse BENCH_baseline.json");
        assert_eq!(render_json(&parsed.points, parsed.quick), text);
    }

    /// The open-loop acceptance gate: the B curve's p99 must bend
    /// sharply upward past capacity (the saturation knee), while O —
    /// with ~5× the capacity — stays well below B's saturated tail at
    /// the same top load.
    #[test]
    fn openloop_curve_shows_saturation_knee() {
        let pts = sweep_openloop(true);
        assert_eq!(pts.len(), 2 * SLO_LOADS.len());
        let p99 = |arch: &str, load: f64| {
            pts.iter()
                .find(|p| p.arch == arch && p.offered_load == load)
                .and_then(|p| p.latency.get("op"))
                .map(|q| q.p99)
                .expect("curve cell missing")
        };
        let b_low = p99("b", SLO_LOADS[0]);
        let b_high = p99("b", SLO_LOADS[SLO_LOADS.len() - 1]);
        let o_high = p99("o+all", SLO_LOADS[SLO_LOADS.len() - 1]);
        assert!(
            b_high > 3 * b_low,
            "B curve never bent: p99 {b_low} → {b_high}"
        );
        assert!(
            o_high < b_high / 2,
            "O should stay under B's knee: {o_high} vs {b_high}"
        );
        // Past the knee, B's achieved throughput falls behind the offer.
        let b_top = pts
            .iter()
            .find(|p| p.arch == "b" && p.offered_load == SLO_LOADS[SLO_LOADS.len() - 1])
            .unwrap();
        assert!(b_top.throughput < b_top.offered_load * 0.95);
    }

    /// Loopback cells now report ops/s (1 tick = 1 ns) — the same scale
    /// as the DES cells, not the old per-tick fractions (~0.06).
    #[test]
    fn loopback_throughput_is_in_ops_per_sec() {
        let pt = loopback_point(PersistencyModel::Synchronous, false, true);
        assert!(
            pt.throughput > 1e3,
            "loopback throughput {} looks like the old per-tick unit",
            pt.throughput
        );
    }

    /// The scale-out acceptance gate: at equal replica count, 16 shard
    /// groups over 64 simulated nodes must deliver at least 4× the
    /// aggregate throughput of the single fully routed group.
    #[test]
    fn sharded_scaleout_reaches_4x() {
        let pts = sweep_scaling(true);
        let thr = |shards: u32| {
            pts.iter()
                .find(|p| p.shards == shards && p.model == "Synch")
                .map(|p| p.throughput)
                .expect("scaling cell missing")
        };
        let (one, sixteen) = (thr(1), thr(16));
        assert!(
            sixteen >= 4.0 * one,
            "16x64 throughput {sixteen:.0} < 4x the 1x64 cell's {one:.0}"
        );
    }

    #[test]
    fn identical_results_compare_clean() {
        let pts = vec![point("des/b/Synch", 1000.0, 500)];
        let report = compare(&pts, &pts, 0.05);
        assert!(report.passed());
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn throughput_drop_beyond_threshold_fails() {
        let base = vec![point("des/b/Synch", 1000.0, 500)];
        let cur = vec![point("des/b/Synch", 900.0, 500)];
        let report = compare(&base, &cur, 0.05);
        assert!(!report.passed());
        assert_eq!(report.regressions[0].metric, "throughput");
        // …while a drop inside the threshold passes.
        let cur = vec![point("des/b/Synch", 960.0, 500)];
        assert!(compare(&base, &cur, 0.05).passed());
    }

    #[test]
    fn latency_rise_beyond_threshold_fails() {
        let base = vec![point("des/b/Synch", 1000.0, 500)];
        let cur = vec![point("des/b/Synch", 1000.0, 600)];
        let report = compare(&base, &cur, 0.05);
        assert!(report.regressions.iter().any(|r| r.metric == "write.p95"));
    }

    #[test]
    fn vanished_point_fails_the_gate() {
        let base = vec![point("des/b/Synch", 1000.0, 500)];
        let report = compare(&base, &[], 0.05);
        assert!(!report.passed());
        assert_eq!(report.missing, vec!["des/b/Synch".to_string()]);
    }

    #[test]
    fn threshold_parses_percent_and_fraction() {
        assert!((parse_threshold("5%").unwrap() - 0.05).abs() < 1e-12);
        assert!((parse_threshold("0.05").unwrap() - 0.05).abs() < 1e-12);
        assert!((parse_threshold("12.5%").unwrap() - 0.125).abs() < 1e-12);
        assert!(parse_threshold("lots").is_err());
        assert!(parse_threshold("-1%").is_err());
    }

    #[test]
    fn arch_slugs_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for a in Arch::ablation_points() {
            assert!(seen.insert(arch_slug(a)));
        }
    }
}
