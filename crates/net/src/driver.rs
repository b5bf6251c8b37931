//! Workload drivers: the closed-loop driver submits YCSB-style or
//! DeathStar operations against a simulated cluster and collects the
//! latency and throughput numbers behind the paper's figures; the
//! open-loop driver ([`run_open_loop`] / [`run_slo_curve`]) replays a
//! Poisson arrival schedule at a fixed offered load so saturation shows
//! up as queueing delay (the latency-vs-offered-load knee) instead of
//! reduced drive.

use crate::arch::Arch;
use crate::sim::{BSim, CostModel, Sim};
use minos_core::obs::{
    analyze, Category, GaugeSet, HistogramSet, MetricsSink, RingRecorder, SharedSink,
};
use minos_core::runtime::{Baseline, Offload};
use minos_core::ReqId;
use minos_sim::{LatencyStats, Time};
use minos_types::{DdpModel, Key, NodeId, PersistencyModel, ScopeId, ShardMap, SimConfig, Value};
use minos_workload::deathstar::{login_batch, App};
use minos_workload::openloop::{OpenLoopSpec, Scenario, SessionOp};
use minos_workload::{Op, RequestStream, WorkloadSpec};
use std::collections::HashMap;

/// What kind of request completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompletionKind {
    /// A client write.
    Write,
    /// A client read.
    Read,
    /// A `[PERSIST]sc`.
    PersistScope,
    /// A multi-key write batch (barrier parent over per-key children;
    /// sharded runs only).
    MultiWrite,
}

/// One completed request, as reported by a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionRec {
    /// Request id.
    pub req: ReqId,
    /// Node that served the request.
    pub node: NodeId,
    /// Completion time.
    pub at: Time,
    /// Request kind.
    pub kind: CompletionKind,
    /// Key operated on (`None` for `[PERSIST]sc`).
    pub key: Option<Key>,
    /// Version written or observed (`Ts::zero()` for `[PERSIST]sc`).
    pub ts: minos_types::Ts,
    /// Whether a write was cut short as obsolete.
    pub obsolete: bool,
    /// Communication time of the write transaction (Figure 4 breakdown;
    /// recorded by [`BSim`] only).
    pub comm_ns: Option<Time>,
}

/// Aggregated results of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Architecture simulated.
    pub arch: Arch,
    /// DDP model simulated.
    pub model: DdpModel,
    /// Write latencies (ns).
    pub write_lat: LatencyStats,
    /// Read latencies (ns).
    pub read_lat: LatencyStats,
    /// Per-write communication time (ns; MINOS-B runs only).
    pub write_comm: LatencyStats,
    /// `[PERSIST]sc` latencies (ns; Scope runs only).
    pub persist_lat: LatencyStats,
    /// Time of the last completion.
    pub makespan: Time,
    /// Writes completed.
    pub writes: u64,
    /// Reads completed.
    pub reads: u64,
}

impl RunResult {
    /// Completed writes per second.
    #[must_use]
    pub fn write_throughput(&self) -> f64 {
        ops_per_sec(self.writes, self.makespan)
    }

    /// Completed reads per second.
    #[must_use]
    pub fn read_throughput(&self) -> f64 {
        ops_per_sec(self.reads, self.makespan)
    }

    /// All completed operations per second.
    #[must_use]
    pub fn total_throughput(&self) -> f64 {
        ops_per_sec(self.writes + self.reads, self.makespan)
    }

    /// Mean computation time per write = mean latency − mean
    /// communication time (Figure 4's decomposition).
    #[must_use]
    pub fn write_comp_mean(&self) -> f64 {
        (self.write_lat.mean() - self.write_comm.mean()).max(0.0)
    }
}

fn ops_per_sec(ops: u64, makespan: Time) -> f64 {
    if makespan == 0 {
        return 0.0;
    }
    ops as f64 * 1e9 / makespan as f64
}

/// Builds the simulation of `arch`, sharded over `placement` when given.
fn build<P: CostModel>(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    placement: Option<&ShardMap>,
) -> Sim<P> {
    match placement {
        Some(map) => Sim::with_placement(cfg.clone(), arch, model, map.clone()),
        None => Sim::new(cfg.clone(), arch, model),
    }
}

/// Writes issued per scope before a `[PERSIST]sc` under `<Lin, Scope>`.
const SCOPE_BATCH: u32 = 16;

struct Client {
    node: NodeId,
    stream: RequestStream,
    remaining: u64,
    /// Scope bookkeeping (Scope model only).
    scope_writes: u32,
    scope_seq: u32,
    id: u32,
    waiting_persist: bool,
}

impl Client {
    fn current_scope(&self) -> ScopeId {
        ScopeId(self.id * 100_000 + self.scope_seq)
    }
}

struct Pending {
    client: usize,
    start: Time,
}

/// Runs the YCSB-style workload `spec` on architecture `arch` under
/// `model`, with one closed-loop client per host core per node (the
/// paper's "5 cores busy per node").
///
/// `spec.requests_per_node` is split across the node's clients; the
/// simulation runs until every client exhausts its budget.
#[must_use]
pub fn run(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &WorkloadSpec,
    seed: u64,
) -> RunResult {
    run_with_clients(arch, cfg, model, spec, seed, cfg.host_cores)
}

/// [`run`] with an explicit number of closed-loop clients per node.
/// Use 1 for latency-focused, contention-free measurements.
#[must_use]
pub fn run_with_clients(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &WorkloadSpec,
    seed: u64,
    clients_per_node: usize,
) -> RunResult {
    if arch.offload {
        let mut sim = build::<Offload>(arch, cfg, model, None);
        run_on(&mut sim, arch, cfg, model, spec, seed, clients_per_node)
    } else {
        let mut sim = build::<Baseline>(arch, cfg, model, None);
        run_on(&mut sim, arch, cfg, model, spec, seed, clients_per_node)
    }
}

/// MINOS-B with the RDLock-snatching optimization of §III-A disabled —
/// the design-choice ablation (DESIGN.md): a younger write can no longer
/// displace an older one's read lock, so its completion may be delayed
/// behind the older write's.
#[must_use]
pub fn run_b_snatch_ablation(
    cfg: &SimConfig,
    model: DdpModel,
    spec: &WorkloadSpec,
    seed: u64,
    snatch: bool,
) -> RunResult {
    let mut sim = BSim::new(cfg.clone(), Arch::baseline(), model);
    if !snatch {
        sim.disable_snatching();
    }
    run_on(
        &mut sim,
        Arch::baseline(),
        cfg,
        model,
        spec,
        seed,
        cfg.host_cores,
    )
}

/// One simulated run with the full second-generation observability stack
/// attached: latency histograms, resource gauges, and the Fig-4
/// critical-path category totals — what the `minos-bench` regression
/// harness records per sweep point.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The classic throughput/latency aggregates.
    pub result: RunResult,
    /// Per model × op latency histograms (p50/p95/p99/p999 source).
    pub hists: HistogramSet,
    /// Resource telemetry sampled during the run.
    pub gauges: GaugeSet,
    /// Total nanoseconds per Fig-4 critical-path category, summed over
    /// every analyzed coordinator-side op
    /// (index = [`Category::index`]).
    pub breakdown: [u64; 4],
    /// Ops the critical-path replay reconstructed (0 when the trace
    /// ring overflowed badly).
    pub analyzed_ops: u64,
}

/// [`run_with_clients`] with tracing attached: returns the run result
/// plus histograms, gauge telemetry, and critical-path totals.
///
/// `trace_capacity` bounds the in-memory trace ring (records beyond it
/// drop oldest-first, shrinking `analyzed_ops`).
#[must_use]
pub fn run_observed(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &WorkloadSpec,
    seed: u64,
    clients_per_node: usize,
    trace_capacity: usize,
) -> ObservedRun {
    run_observed_with_placement(
        arch,
        cfg,
        model,
        spec,
        seed,
        clients_per_node,
        trace_capacity,
        None,
    )
}

/// [`run_observed`] on a sharded cluster: one simulation hosts every
/// shard group of `map` (which must span `cfg.nodes` nodes), clients
/// submit at their own node, and the routing layer forwards each op to
/// its key's replica group, charging the cross-shard hop both ways.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn run_observed_sharded(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &WorkloadSpec,
    seed: u64,
    clients_per_node: usize,
    trace_capacity: usize,
    map: &ShardMap,
) -> ObservedRun {
    run_observed_with_placement(
        arch,
        cfg,
        model,
        spec,
        seed,
        clients_per_node,
        trace_capacity,
        Some(map),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_observed_with_placement(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &WorkloadSpec,
    seed: u64,
    clients_per_node: usize,
    trace_capacity: usize,
    placement: Option<&ShardMap>,
) -> ObservedRun {
    let (n, cap) = (clients_per_node, trace_capacity);
    if arch.offload {
        observed_on::<Offload>(arch, cfg, model, spec, seed, n, cap, placement)
    } else {
        observed_on::<Baseline>(arch, cfg, model, spec, seed, n, cap, placement)
    }
}

#[allow(clippy::too_many_arguments)]
fn observed_on<P: CostModel>(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &WorkloadSpec,
    seed: u64,
    clients_per_node: usize,
    trace_capacity: usize,
    placement: Option<&ShardMap>,
) -> ObservedRun {
    use std::sync::{Arc, Mutex};

    let mut sim = build::<P>(arch, cfg, model, placement);
    let (msink, hists) = MetricsSink::new(model.persistency);
    let ring = Arc::new(Mutex::new(RingRecorder::new(trace_capacity.max(1))));
    let ring_sink: SharedSink = ring.clone();
    sim.attach_tracer(vec![Arc::new(Mutex::new(msink)), ring_sink]);

    let result = run_on(&mut sim, arch, cfg, model, spec, seed, clients_per_node);

    let records = ring.lock().expect("ring poisoned").to_vec();
    let ops = analyze(&records);
    let mut breakdown = [0u64; 4];
    for op in &ops {
        for (i, v) in op.breakdown().iter().enumerate() {
            breakdown[i] += v;
        }
    }
    debug_assert_eq!(Category::ALL.len(), breakdown.len());
    let hists = hists.lock().expect("hists poisoned").clone();
    ObservedRun {
        result,
        hists,
        gauges: sim.gauges().clone(),
        breakdown,
        analyzed_ops: ops.len() as u64,
    }
}

fn run_on<P: CostModel>(
    sim: &mut Sim<P>,
    arch_label: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &WorkloadSpec,
    seed: u64,
    clients_per_node: usize,
) -> RunResult {
    let scoped = model.persistency == PersistencyModel::Scope;
    let per_client = (spec.requests_per_node / clients_per_node as u64).max(1);

    let mut clients: Vec<Client> = Vec::new();
    for node in 0..cfg.nodes {
        for c in 0..clients_per_node {
            let id = (node * clients_per_node + c) as u32;
            clients.push(Client {
                node: NodeId(node as u16),
                stream: spec.stream(seed ^ (u64::from(id) << 32) ^ u64::from(id)),
                remaining: per_client,
                scope_writes: 0,
                scope_seq: 0,
                id,
                waiting_persist: false,
            });
        }
    }

    let mut pending: HashMap<ReqId, Pending> = HashMap::new();
    let mut result = RunResult {
        arch: arch_label,
        model,
        write_lat: LatencyStats::new(),
        read_lat: LatencyStats::new(),
        write_comm: LatencyStats::new(),
        persist_lat: LatencyStats::new(),
        makespan: 0,
        writes: 0,
        reads: 0,
    };

    // Prime one operation per client.
    for i in 0..clients.len() {
        submit_next(sim, &mut clients, i, 0, scoped, &mut pending);
    }

    while sim.step() {
        for rec in sim.drain_completions() {
            let Some(p) = pending.remove(&rec.req) else {
                continue;
            };
            let lat = rec.at.saturating_sub(p.start);
            result.makespan = result.makespan.max(rec.at);
            match rec.kind {
                CompletionKind::Write => {
                    result.writes += 1;
                    result.write_lat.record(lat);
                    if let Some(comm) = rec.comm_ns {
                        result.write_comm.record(comm);
                    }
                }
                CompletionKind::Read => {
                    result.reads += 1;
                    result.read_lat.record(lat);
                }
                CompletionKind::PersistScope => {
                    result.persist_lat.record(lat);
                    clients[p.client].waiting_persist = false;
                }
                // The closed-loop driver never issues batches itself, but
                // a barrier parent surfacing here still counts as one
                // completed write operation.
                CompletionKind::MultiWrite => {
                    result.writes += 1;
                    result.write_lat.record(lat);
                }
            }
            submit_next(sim, &mut clients, p.client, rec.at, scoped, &mut pending);
        }
    }

    result
}

/// Submits the client's next operation (or its pending `[PERSIST]sc`).
fn submit_next<P: CostModel>(
    sim: &mut Sim<P>,
    clients: &mut [Client],
    idx: usize,
    at: Time,
    scoped: bool,
    pending: &mut HashMap<ReqId, Pending>,
) {
    let cl = &mut clients[idx];
    if cl.waiting_persist {
        return;
    }

    // Scope model: flush the scope every SCOPE_BATCH writes and at the end
    // of the client's run.
    if scoped && (cl.scope_writes >= SCOPE_BATCH || (cl.remaining == 0 && cl.scope_writes > 0)) {
        let sc = cl.current_scope();
        cl.scope_writes = 0;
        cl.scope_seq += 1;
        cl.waiting_persist = true;
        let req = sim.submit_persist_scope(at, cl.node, sc);
        pending.insert(
            req,
            Pending {
                client: idx,
                start: at,
            },
        );
        return;
    }

    if cl.remaining == 0 {
        return;
    }
    cl.remaining -= 1;

    let op = cl.stream.next_op();
    let req = match op {
        Op::Write { key, value } => {
            let scope = scoped.then(|| {
                cl.scope_writes += 1;
                cl.current_scope()
            });
            sim.submit_write(at, cl.node, key, value, scope)
        }
        Op::Read { key } => sim.submit_read(at, cl.node, key),
    };
    pending.insert(
        req,
        Pending {
            client: idx,
            start: at,
        },
    );
}

/// End-to-end results of the DeathStar experiment (Figure 11).
#[derive(Debug, Clone)]
pub struct DeathstarResult {
    /// Architecture simulated.
    pub arch: Arch,
    /// DDP model simulated.
    pub model: DdpModel,
    /// Application.
    pub app: App,
    /// End-to-end latency of each `Login` invocation (ns).
    pub login_lat: LatencyStats,
}

/// Runs `logins` DeathStar `Login` invocations per chain, with one chain
/// per host core per node (the service is under load, as in §VIII-C),
/// on a cluster with a datacenter RTT (paper: 16 nodes, 500 µs).
///
/// Each KV operation of the function pays the client→service round trip
/// (`cfg.datacenter_rtt_ns`) on top of its protocol latency: the
/// microservice call chain crosses the datacenter between operations.
#[must_use]
pub fn run_deathstar(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    app: App,
    logins_per_node: usize,
) -> DeathstarResult {
    if arch.offload {
        deathstar_on::<Offload>(arch, cfg, model, app, logins_per_node)
    } else {
        deathstar_on::<Baseline>(arch, cfg, model, app, logins_per_node)
    }
}

fn deathstar_on<P: CostModel>(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    app: App,
    logins_per_node: usize,
) -> DeathstarResult {
    // The per-op client hop is charged explicitly below; replication
    // messages inside a write use the plain link latencies.
    let op_rtt = cfg.datacenter_rtt_ns;
    let mut cfg = cfg.clone();
    cfg.datacenter_rtt_ns = 0;
    let cfg = &cfg;
    let mut sim = build::<P>(arch, cfg, model, None);
    let scoped = model.persistency == PersistencyModel::Scope;

    // Per-node login chains: each node executes its logins sequentially,
    // each login's ops in program order.
    struct Chain {
        node: NodeId,
        ops: std::vec::IntoIter<Op>,
        login_start: Time,
        logins_left: usize,
        traces: std::vec::IntoIter<Vec<Op>>,
        scope_seq: u32,
        wrote_in_scope: bool,
        flushing: bool,
    }

    // Several login chains per node: the paper's service runs under
    // load, which is where the offload's latency advantage shows (each
    // chain spends most of its time in the client→service RTT, so it
    // takes multiples of the core count to load the node).
    let chains_per_node = cfg.host_cores * 8;
    let mut chains: Vec<Chain> = (0..cfg.nodes * chains_per_node)
        .map(|i| {
            let n = i / chains_per_node;
            let batch = login_batch(app, logins_per_node, 10_000 + i as u64);
            let traces: Vec<Vec<Op>> = batch.into_iter().map(|t| t.ops).collect();
            let mut it = traces.into_iter();
            let first = it.next().unwrap_or_default();
            Chain {
                node: NodeId(n as u16),
                ops: first.into_iter(),
                login_start: 0,
                logins_left: logins_per_node.saturating_sub(1),
                traces: it,
                scope_seq: 0,
                wrote_in_scope: false,
                flushing: false,
            }
        })
        .collect();

    let mut pending: HashMap<ReqId, usize> = HashMap::new();
    let mut login_lat = LatencyStats::new();

    #[allow(clippy::too_many_arguments)]
    fn submit_chain_op<P: CostModel>(
        sim: &mut Sim<P>,
        chains: &mut [Chain],
        ci: usize,
        done_at: Time,
        op_rtt: Time,
        scoped: bool,
        pending: &mut HashMap<ReqId, usize>,
        login_lat: &mut LatencyStats,
    ) {
        // Every KV operation of the function pays the client→service
        // round trip before its protocol work starts.
        let at = done_at + op_rtt;
        loop {
            let ch = &mut chains[ci];
            if let Some(op) = ch.ops.next() {
                let req = match op {
                    Op::Write { key, value } => {
                        let scope = scoped.then(|| {
                            ch.wrote_in_scope = true;
                            ScopeId(ci as u32 * 100_000 + ch.scope_seq)
                        });
                        sim.submit_write(at, ch.node, key, value, scope)
                    }
                    Op::Read { key } => sim.submit_read(at, ch.node, key),
                };
                pending.insert(req, ci);
                return;
            }
            // Login finished: under Scope, flush it before it counts.
            if scoped && ch.wrote_in_scope && !ch.flushing {
                ch.flushing = true;
                let sc = ScopeId(ci as u32 * 100_000 + ch.scope_seq);
                let req = sim.submit_persist_scope(at, ch.node, sc);
                pending.insert(req, ci);
                return;
            }
            login_lat.record(done_at.saturating_sub(ch.login_start));
            ch.wrote_in_scope = false;
            ch.flushing = false;
            ch.scope_seq += 1;
            if ch.logins_left == 0 {
                return;
            }
            ch.logins_left -= 1;
            ch.login_start = done_at;
            ch.ops = ch.traces.next().unwrap_or_default().into_iter();
        }
    }

    for ci in 0..chains.len() {
        submit_chain_op(
            &mut sim,
            &mut chains,
            ci,
            0,
            op_rtt,
            scoped,
            &mut pending,
            &mut login_lat,
        );
    }

    while sim.step() {
        for rec in sim.drain_completions() {
            if let Some(ci) = pending.remove(&rec.req) {
                submit_chain_op(
                    &mut sim,
                    &mut chains,
                    ci,
                    rec.at,
                    op_rtt,
                    scoped,
                    &mut pending,
                    &mut login_lat,
                );
            }
        }
    }

    DeathstarResult {
        arch,
        model,
        app,
        login_lat,
    }
}

/// Results of a rolling-restart availability run (MINOS-B under open
/// load while every node in turn crashes and rejoins).
#[derive(Debug, Clone)]
pub struct AvailabilityRun {
    /// DDP model simulated.
    pub model: DdpModel,
    /// Writes submitted over the run.
    pub submitted: u64,
    /// Writes that completed (the rest were lost to a crash — in flight
    /// at the dead coordinator, or addressed to it while down).
    pub completed: u64,
    /// Completed writes per `window_ns` bucket of simulated time, from
    /// t = 0 to the last completion.
    pub windows: Vec<u64>,
    /// The view epoch after the full rolling restart
    /// (1 + 2 view changes per node: each crash and each rejoin).
    pub final_epoch: u64,
    /// Mean write latency over the completions (ns).
    pub write_mean_ns: f64,
}

impl AvailabilityRun {
    /// Fraction of submitted writes that completed.
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.submitted == 0 {
            return 1.0;
        }
        self.completed as f64 / self.submitted as f64
    }

    /// Depth of the worst throughput dip: min window / max window over
    /// the interior windows (first and last are partial). 1.0 = flat.
    #[must_use]
    pub fn dip_ratio(&self) -> f64 {
        let interior = if self.windows.len() > 2 {
            &self.windows[1..self.windows.len() - 1]
        } else {
            &self.windows[..]
        };
        let max = interior.iter().copied().max().unwrap_or(0);
        let min = interior.iter().copied().min().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        min as f64 / max as f64
    }
}

/// Runs an open-loop write workload against a MINOS-B simulation while
/// every node in turn crashes and rejoins (a rolling restart): node `k`
/// goes down at `(k+1) · span/(n+1)` and begins its rejoin `outage_ns`
/// later, where `span` is the submission horizon. Clients keep
/// submitting at their own node throughout — operations addressed to a
/// down node are lost, which is exactly the availability dip this
/// measures. Writes spread over `keys` keys round-robin.
#[must_use]
pub fn run_rolling_restart(
    cfg: &SimConfig,
    model: DdpModel,
    writes_per_node: u64,
    period_ns: Time,
    outage_ns: Time,
    keys: u64,
    window_ns: Time,
) -> AvailabilityRun {
    assert!(window_ns > 0 && period_ns > 0 && keys > 0);
    let n = cfg.nodes;
    let mut sim = BSim::new(cfg.clone(), Arch::baseline(), model);

    // Open-loop submission plan: every node issues one write per period.
    let mut submitted = 0u64;
    let mut starts: HashMap<ReqId, Time> = HashMap::new();
    for i in 0..writes_per_node {
        let at = i * period_ns;
        for node in 0..n {
            let key = Key((submitted) % keys);
            let req = sim.submit_write(
                at,
                NodeId(node as u16),
                key,
                format!("w{submitted}").into(),
                None,
            );
            starts.insert(req, at);
            submitted += 1;
        }
    }

    // The rolling restart: one node at a time, evenly spread over the
    // submission horizon.
    let span = writes_per_node * period_ns;
    let slot = span / (n as u64 + 1);
    for k in 0..n {
        let down_at = (k as u64 + 1) * slot;
        let node = NodeId(k as u16);
        let donor = NodeId(((k + 1) % n) as u16);
        sim.schedule_crash(down_at, node);
        sim.schedule_rejoin(down_at + outage_ns, node, donor);
    }

    sim.run_to_idle();

    let mut windows: Vec<u64> = Vec::new();
    let mut completed = 0u64;
    let mut lat_sum = 0u64;
    for rec in sim.drain_completions() {
        if rec.kind != CompletionKind::Write {
            continue;
        }
        completed += 1;
        if let Some(start) = starts.remove(&rec.req) {
            lat_sum += rec.at.saturating_sub(start);
        }
        let w = (rec.at / window_ns) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, 0);
        }
        windows[w] += 1;
    }

    AvailabilityRun {
        model,
        submitted,
        completed,
        windows,
        final_epoch: sim.view_epoch(),
        write_mean_ns: if completed == 0 {
            0.0
        } else {
            lat_sum as f64 / completed as f64
        },
    }
}

/// Aggregated results of one open-loop run at a fixed offered load.
///
/// All latencies use *late-arrival accounting*: measured from the
/// operation's scheduled Poisson arrival, not from when the system got
/// around to serving it — so past saturation, queueing delay piles into
/// the percentiles instead of silently throttling the drive.
#[derive(Debug, Clone)]
pub struct OpenLoopResult {
    /// Architecture simulated.
    pub arch: Arch,
    /// DDP model simulated.
    pub model: DdpModel,
    /// The scenario replayed.
    pub scenario: Scenario,
    /// Offered load the arrival schedule was generated at (ops/s).
    pub offered_load: f64,
    /// Session operations in the schedule.
    pub submitted: u64,
    /// Session operations that fully completed (every scan leg, the
    /// dependent RMW write, the multi-key barrier).
    pub completed: u64,
    /// End-to-end latency of every completed session op (ns, from
    /// scheduled arrival).
    pub lat: LatencyStats,
    /// Latencies of the writing ops (write / rmw / multi-write).
    pub write_lat: LatencyStats,
    /// Latencies of the read-only ops (read / scan).
    pub read_lat: LatencyStats,
    /// Time of the last completion.
    pub makespan: Time,
    /// Time of the last scheduled arrival.
    pub horizon: Time,
}

impl OpenLoopResult {
    /// Completed session operations per second of simulated time.
    #[must_use]
    pub fn achieved_throughput(&self) -> f64 {
        ops_per_sec(self.completed, self.makespan)
    }

    /// `achieved / offered` — 1.0 below saturation, < 1.0 once the
    /// makespan stretches past the arrival horizon.
    #[must_use]
    pub fn drive_ratio(&self) -> f64 {
        if self.offered_load == 0.0 {
            return 1.0;
        }
        self.achieved_throughput() / self.offered_load
    }
}

/// Per-arrival bookkeeping for the open-loop driver.
struct ArrState {
    at: Time,
    /// Outstanding legs (scan fan-out; 1 for everything else).
    legs: u32,
    /// `Some(payload)` while an RMW's read leg is outstanding; taken
    /// when the dependent write is submitted.
    rmw_value: Option<Value>,
    key: Key,
    node: NodeId,
    session: u32,
    writes: bool,
}

/// Replays the open-loop schedule of `spec` (seeded with `seed`)
/// against a simulated cluster: every arrival is submitted at its
/// scheduled nanosecond regardless of how far behind the system is.
///
/// * RMW arrivals submit their read at the arrival and chain the
///   dependent write when it completes; the op finishes at the write.
/// * Scans fan out all legs at the arrival and finish at the last leg.
/// * Multi-key writes use the barrier parent ([`CompletionKind::MultiWrite`]).
/// * [`Scenario::Geo`] raises the datacenter RTT to
///   [`Scenario::wan_rtt_ns`] and splits the cluster into two "regions"
///   (a 2-group [`ShardMap`]), so cross-region ops pay the WAN hop both
///   ways via `timing::route_hop_ns`.
/// * Under `<Lin, Scope>` each session writes into its own scope; the
///   curve measures write visibility, not flush cost (no `[PERSIST]sc`
///   is issued — flush-inclusive numbers come from the closed-loop
///   driver).
///
/// Virtual sessions map to coordinator nodes round-robin
/// (`session % nodes`).
#[must_use]
pub fn run_open_loop(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &OpenLoopSpec,
    seed: u64,
) -> OpenLoopResult {
    let mut cfg = cfg.clone();
    let placement = spec.scenario.wan_rtt_ns().map(|rtt| {
        cfg.datacenter_rtt_ns = cfg.datacenter_rtt_ns.max(rtt);
        let replicas = u16::try_from((cfg.nodes / 2).max(1)).expect("node count fits u16");
        ShardMap::uniform(2, cfg.nodes, replicas)
    });
    let schedule = spec.schedule(seed);
    if arch.offload {
        let mut sim = build::<Offload>(arch, &cfg, model, placement.as_ref());
        open_loop_replay(&mut sim, arch, model, spec, schedule, cfg.nodes)
    } else {
        let mut sim = build::<Baseline>(arch, &cfg, model, placement.as_ref());
        open_loop_replay(&mut sim, arch, model, spec, schedule, cfg.nodes)
    }
}

/// The open-loop replay core: submits `schedule` against a prepared
/// simulation and runs it dry. Shared by [`run_open_loop`] and the
/// [`ParMode::Single`] arm of [`run_open_loop_sharded`].
fn open_loop_replay<P: CostModel>(
    sim: &mut Sim<P>,
    arch: Arch,
    model: DdpModel,
    spec: &OpenLoopSpec,
    schedule: Vec<minos_workload::openloop::Arrival>,
    nodes: usize,
) -> OpenLoopResult {
    let scoped = model.persistency == PersistencyModel::Scope;

    let mut result = OpenLoopResult {
        arch,
        model,
        scenario: spec.scenario,
        offered_load: spec.offered_load,
        submitted: schedule.len() as u64,
        completed: 0,
        lat: LatencyStats::new(),
        write_lat: LatencyStats::new(),
        read_lat: LatencyStats::new(),
        makespan: 0,
        horizon: schedule.last().map_or(0, |a| a.at_ns),
    };

    // Submit the entire schedule upfront: the DES admits each op at its
    // scheduled time, so a backlogged coordinator queues arrivals
    // instead of deferring them.
    let mut arrs: Vec<ArrState> = Vec::with_capacity(schedule.len());
    let mut pending: HashMap<ReqId, usize> = HashMap::new();
    for arrival in schedule {
        let node = NodeId((arrival.session as usize % nodes) as u16);
        let scope = scoped.then_some(ScopeId(arrival.session));
        let at = arrival.at_ns;
        let idx = arrs.len();
        let (state, reqs) = match arrival.op {
            SessionOp::Write { key, value } => {
                let req = sim.submit_write(at, node, key, value, scope);
                (
                    arr_state(at, 1, None, key, node, arrival.session, true),
                    vec![req],
                )
            }
            SessionOp::Read { key } => {
                let req = sim.submit_read(at, node, key);
                (
                    arr_state(at, 1, None, key, node, arrival.session, false),
                    vec![req],
                )
            }
            SessionOp::Rmw { key, value } => {
                let req = sim.submit_read(at, node, key);
                (
                    arr_state(at, 1, Some(value), key, node, arrival.session, true),
                    vec![req],
                )
            }
            SessionOp::Scan { start, len } => {
                let reqs: Vec<ReqId> = (0..u64::from(len))
                    .map(|i| sim.submit_read(at, node, Key(start.0 + i)))
                    .collect();
                (
                    arr_state(at, len, None, start, node, arrival.session, false),
                    reqs,
                )
            }
            SessionOp::MultiWrite { keys, value } => {
                let first = keys[0];
                let writes: Vec<(Key, Value)> =
                    keys.into_iter().map(|k| (k, value.clone())).collect();
                let req = sim.submit_write_multi(at, node, writes, scope);
                (
                    arr_state(at, 1, None, first, node, arrival.session, true),
                    vec![req],
                )
            }
        };
        arrs.push(state);
        for req in reqs {
            pending.insert(req, idx);
        }
    }

    while sim.step() {
        for rec in sim.drain_completions() {
            let Some(&idx) = pending.get(&rec.req) else {
                continue; // barrier children and other internal reqs
            };
            pending.remove(&rec.req);
            let st = &mut arrs[idx];
            if let Some(value) = st.rmw_value.take() {
                // The RMW's read came back: chain the dependent write.
                let scope = scoped.then_some(ScopeId(st.session));
                let req = sim.submit_write(rec.at, st.node, st.key, value, scope);
                pending.insert(req, idx);
                continue;
            }
            st.legs -= 1;
            if st.legs > 0 {
                continue;
            }
            let lat = rec.at.saturating_sub(st.at);
            result.completed += 1;
            result.makespan = result.makespan.max(rec.at);
            result.lat.record(lat);
            if st.writes {
                result.write_lat.record(lat);
            } else {
                result.read_lat.record(lat);
            }
        }
    }

    result
}

#[allow(clippy::fn_params_excessive_bools)]
fn arr_state(
    at: Time,
    legs: u32,
    rmw_value: Option<Value>,
    key: Key,
    node: NodeId,
    session: u32,
    writes: bool,
) -> ArrState {
    ArrState {
        at,
        legs,
        rmw_value,
        key,
        node,
        session,
        writes,
    }
}

/// How [`run_open_loop_sharded`] executes a sharded open-loop replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParMode {
    /// One full-cluster simulation hosts every shard group — the
    /// reference execution (the shape of [`run_open_loop`], with the
    /// caller's placement map).
    Single,
    /// One full-cluster simulation **per shard group**, replayed one
    /// group at a time, each fed only the arrival legs its group
    /// serves. Disjoint groups interact solely through client routing
    /// hops (`timing::route_hop_ns`), which are pure time offsets on
    /// otherwise-untouched origin nodes, so this produces the same
    /// per-arrival completion times as [`ParMode::Single`].
    Sequential,
    /// [`ParMode::Sequential`]'s per-group simulations on one thread
    /// per group. Byte-identical output to `Sequential` by
    /// construction: the same per-group code path runs on every group
    /// and results merge in (group, arrival) order either way.
    Parallel,
}

/// Result of a sharded open-loop replay, plus the number of DES events
/// it took — the denominator of the `simspeed/*` bench cells.
#[derive(Debug, Clone)]
pub struct ShardedOpenLoop {
    /// The open-loop aggregates.
    pub result: OpenLoopResult,
    /// Events processed, summed over every simulation instance. The
    /// same arrival schedule costs the same event count in every
    /// [`ParMode`]: each scheduled event runs in exactly one instance.
    pub events: u64,
}

/// One primitive per-group leg of a decomposed open-loop arrival.
enum SubOp {
    Write {
        key: Key,
        value: Value,
    },
    Read {
        key: Key,
    },
    /// A read that chains a dependent write of `value` at its
    /// completion (both on `key`, hence both inside one group).
    Rmw {
        key: Key,
        value: Value,
    },
}

/// A leg routed to one shard group, tagged with its arrival index.
struct SubArrival {
    idx: u32,
    at: Time,
    node: NodeId,
    session: u32,
    sub: SubOp,
}

/// Decomposes the schedule into per-group leg lists (index = shard
/// group), preserving arrival order within each group; also returns how
/// many distinct groups each arrival touches (its merge fan-in).
///
/// The decomposition mirrors what the in-sim [`ShardRouter`] barrier
/// machinery does on a single instance: scans split into one read per
/// key, multi-key writes into one plain child write per key (the
/// barrier parent completes at the latest child, i.e. the max over leg
/// completion times — exactly what the merge computes), and RMWs chain
/// inside their key's group.
fn partition_schedule(
    schedule: Vec<minos_workload::openloop::Arrival>,
    map: &ShardMap,
    nodes: usize,
) -> (Vec<Vec<SubArrival>>, Vec<u32>) {
    let groups = map.n_shards() as usize;
    let mut subs: Vec<Vec<SubArrival>> = Vec::new();
    subs.resize_with(groups, Vec::new);
    let mut involved: Vec<u32> = Vec::with_capacity(schedule.len());
    let mut touched: Vec<u32> = Vec::new();
    for (i, arrival) in schedule.into_iter().enumerate() {
        let idx = i as u32;
        let at = arrival.at_ns;
        let session = arrival.session;
        let node = NodeId((session as usize % nodes) as u16);
        touched.clear();
        {
            let mut leg = |key: Key, sub: SubOp| {
                let g = map.shard_of(key).0;
                if !touched.contains(&g) {
                    touched.push(g);
                }
                subs[g as usize].push(SubArrival {
                    idx,
                    at,
                    node,
                    session,
                    sub,
                });
            };
            match arrival.op {
                SessionOp::Write { key, value } => leg(key, SubOp::Write { key, value }),
                SessionOp::Read { key } => leg(key, SubOp::Read { key }),
                SessionOp::Rmw { key, value } => leg(key, SubOp::Rmw { key, value }),
                SessionOp::Scan { start, len } => {
                    for j in 0..u64::from(len) {
                        let key = Key(start.0 + j);
                        leg(key, SubOp::Read { key });
                    }
                }
                SessionOp::MultiWrite { keys, value } => {
                    for key in keys {
                        let value = value.clone();
                        leg(key, SubOp::Write { key, value });
                    }
                }
            }
        }
        involved.push(touched.len() as u32);
    }
    (subs, involved)
}

/// What one per-group replay reports back for the merge.
struct GroupOut {
    /// `(arrival idx, completion time)` — emitted once every leg of
    /// that arrival *inside this group* completed, at the latest leg.
    done: Vec<(u32, Time)>,
    /// Events this instance processed.
    events: u64,
}

/// Replays one group's legs on its own full-cluster simulation.
fn run_group<P: CostModel>(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    map: &ShardMap,
    subs: Vec<SubArrival>,
    sinks: Option<Vec<SharedSink>>,
) -> GroupOut {
    let mut sim = build::<P>(arch, cfg, model, Some(map));
    if let Some(sinks) = sinks {
        sim.attach_tracer(sinks);
    }
    let scoped = model.persistency == PersistencyModel::Scope;
    // Arrival idx → (legs outstanding here, latest leg completion).
    let mut arrs: HashMap<u32, (u32, Time)> = HashMap::new();
    let mut pending: HashMap<ReqId, u32> = HashMap::new();
    // Read req → the dependent RMW write to chain at its completion.
    let mut rmw: HashMap<ReqId, (Key, Value, NodeId, u32)> = HashMap::new();
    for s in subs {
        let scope = scoped.then_some(ScopeId(s.session));
        let req = match s.sub {
            SubOp::Write { key, value } => sim.submit_write(s.at, s.node, key, value, scope),
            SubOp::Read { key } => sim.submit_read(s.at, s.node, key),
            SubOp::Rmw { key, value } => {
                let req = sim.submit_read(s.at, s.node, key);
                rmw.insert(req, (key, value, s.node, s.session));
                req
            }
        };
        arrs.entry(s.idx).or_insert((0, 0)).0 += 1;
        pending.insert(req, s.idx);
    }

    let mut done: Vec<(u32, Time)> = Vec::new();
    while sim.step() {
        for rec in sim.drain_completions() {
            let Some(idx) = pending.remove(&rec.req) else {
                continue;
            };
            if let Some((key, value, node, session)) = rmw.remove(&rec.req) {
                let scope = scoped.then_some(ScopeId(session));
                let req = sim.submit_write(rec.at, node, key, value, scope);
                pending.insert(req, idx);
                continue;
            }
            let e = arrs.get_mut(&idx).expect("leg registered at submit");
            e.0 -= 1;
            e.1 = e.1.max(rec.at);
            if e.0 == 0 {
                done.push((idx, e.1));
            }
        }
    }
    GroupOut {
        done,
        events: sim.events_processed(),
    }
}

/// Replays the open-loop schedule of `spec` on the sharded cluster
/// placed by `map`, in the given [`ParMode`].
///
/// [`ParMode::Single`] runs everything on one simulation (the reference
/// physics). The partitioned modes run one full-cluster simulation per
/// shard group — sound because a disjoint `map` makes groups share no
/// nodes, and a routed client op only touches its origin as a pure
/// `route_hop_ns` time offset — and merge per-arrival completion times
/// deterministically (fan-out ops complete at their latest leg, exactly
/// the in-sim barrier rule). [`Scenario::Geo`] raises the datacenter
/// RTT like [`run_open_loop`], but keeps the caller's map.
///
/// # Panics
///
/// Panics when `map` does not span `cfg.nodes`, or a partitioned mode
/// is asked for a non-disjoint map.
#[must_use]
pub fn run_open_loop_sharded(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &OpenLoopSpec,
    seed: u64,
    map: &ShardMap,
    mode: ParMode,
) -> ShardedOpenLoop {
    run_open_loop_sharded_traced(arch, cfg, model, spec, seed, map, mode, None)
}

/// [`run_open_loop_sharded`] with observability attached: `sinks_for`
/// is called once per simulation instance (the shard-group id in
/// partitioned modes, 0 in [`ParMode::Single`]) and its sinks attach to
/// that instance's tracer — per-group histories for the conformance
/// oracles.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn run_open_loop_sharded_traced(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &OpenLoopSpec,
    seed: u64,
    map: &ShardMap,
    mode: ParMode,
    sinks_for: Option<&(dyn Fn(u32) -> Vec<SharedSink> + Sync)>,
) -> ShardedOpenLoop {
    if arch.offload {
        open_loop_sharded_on::<Offload>(arch, cfg, model, spec, seed, map, mode, sinks_for)
    } else {
        open_loop_sharded_on::<Baseline>(arch, cfg, model, spec, seed, map, mode, sinks_for)
    }
}

#[allow(clippy::too_many_arguments)]
fn open_loop_sharded_on<P: CostModel>(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &OpenLoopSpec,
    seed: u64,
    map: &ShardMap,
    mode: ParMode,
    sinks_for: Option<&(dyn Fn(u32) -> Vec<SharedSink> + Sync)>,
) -> ShardedOpenLoop {
    assert_eq!(map.n_nodes(), cfg.nodes, "placement/config node mismatch");
    let mut cfg = cfg.clone();
    if let Some(rtt) = spec.scenario.wan_rtt_ns() {
        cfg.datacenter_rtt_ns = cfg.datacenter_rtt_ns.max(rtt);
    }
    let schedule = spec.schedule(seed);

    if mode == ParMode::Single {
        let mut sim = build::<P>(arch, &cfg, model, Some(map));
        if let Some(f) = sinks_for {
            sim.attach_tracer(f(0));
        }
        let result = open_loop_replay(&mut sim, arch, model, spec, schedule, cfg.nodes);
        return ShardedOpenLoop {
            result,
            events: sim.events_processed(),
        };
    }

    assert!(
        map.is_disjoint(),
        "per-shard-group replay needs disjoint replica groups"
    );
    let submitted = schedule.len() as u64;
    let horizon = schedule.last().map_or(0, |a| a.at_ns);
    // Per-arrival metadata, kept before the schedule is consumed.
    let meta: Vec<(Time, bool)> = schedule.iter().map(|a| (a.at_ns, a.op.writes())).collect();
    let (subs, involved) = partition_schedule(schedule, map, cfg.nodes);

    let group_outs: Vec<GroupOut> = match mode {
        ParMode::Single => unreachable!("handled above"),
        ParMode::Sequential => subs
            .into_iter()
            .enumerate()
            .map(|(g, s)| run_group::<P>(arch, &cfg, model, map, s, sinks_for.map(|f| f(g as u32))))
            .collect(),
        ParMode::Parallel => {
            let cfg = &cfg;
            std::thread::scope(|scope| {
                let handles: Vec<_> = subs
                    .into_iter()
                    .enumerate()
                    .map(|(g, s)| {
                        scope.spawn(move || {
                            run_group::<P>(arch, cfg, model, map, s, sinks_for.map(|f| f(g as u32)))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("group replay thread"))
                    .collect()
            })
        }
    };

    // Deterministic merge: group order, then arrival order.
    let mut remaining = involved;
    let mut done_at: Vec<Time> = vec![0; remaining.len()];
    let mut events = 0u64;
    for out in group_outs {
        events += out.events;
        for (idx, at) in out.done {
            let i = idx as usize;
            remaining[i] -= 1;
            done_at[i] = done_at[i].max(at);
        }
    }

    let mut result = OpenLoopResult {
        arch,
        model,
        scenario: spec.scenario,
        offered_load: spec.offered_load,
        submitted,
        completed: 0,
        lat: LatencyStats::new(),
        write_lat: LatencyStats::new(),
        read_lat: LatencyStats::new(),
        makespan: 0,
        horizon,
    };
    for (i, &(at, writes)) in meta.iter().enumerate() {
        if remaining[i] != 0 {
            continue; // a leg was lost (possible only under view changes)
        }
        let lat = done_at[i].saturating_sub(at);
        result.completed += 1;
        result.makespan = result.makespan.max(done_at[i]);
        result.lat.record(lat);
        if writes {
            result.write_lat.record(lat);
        } else {
            result.read_lat.record(lat);
        }
    }
    ShardedOpenLoop { result, events }
}

/// Sweeps [`run_open_loop`] over `loads` (ops/s, ascending by
/// convention) with the same scenario, seed, and op budget — one
/// latency-vs-offered-load curve. The p99 of the returned points bends
/// sharply upward past the architecture's capacity: the saturation knee.
#[must_use]
pub fn run_slo_curve(
    arch: Arch,
    cfg: &SimConfig,
    model: DdpModel,
    spec: &OpenLoopSpec,
    seed: u64,
    loads: &[f64],
) -> Vec<OpenLoopResult> {
    loads
        .iter()
        .map(|&load| {
            let spec = spec.clone().with_offered_load(load);
            run_open_loop(arch, cfg, model, &spec, seed)
        })
        .collect()
}
