//! The discrete-event simulation frame, written once for both protocols:
//! event queue, client routing and barriers, completions, telemetry
//! pacing and scheduled membership changes. What a protocol adds — its
//! hardware resources and the handler that charges Table III costs to
//! them — is its [`CostModel`].

use crate::arch::Arch;
use crate::driver::{CompletionKind, CompletionRec};
use crate::timing;
use minos_core::obs::{GaugeKind, GaugeSet, SharedSink, TraceClock, Tracer, GAUGE_NODE_ALL};
use minos_core::runtime::{Baseline, Engine, Interpreter, Offload, Protocol, ShardRouter};
use minos_core::ReqId;
use minos_sim::{EventQueue, Time};
use minos_types::wire::TraceCtx;
use minos_types::{DdpModel, Key, MembershipView, NodeId, ScopeId, ShardMap, SimConfig, Ts, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`Protocol`] with a machine model: the per-node hardware resources
/// it occupies and the dispatch handler that charges the paper's
/// Table III latencies to them. [`Baseline`] runs every protocol step on
/// host cores behind a plain NIC; [`Offload`] splits the work across
/// host and SmartNIC with vFIFO/dFIFO queues and PCIe descriptors.
pub trait CostModel: Protocol {
    /// The [`Arch::offload`] half of the Figure 12 ablation this model
    /// covers.
    const OFFLOAD: bool;

    /// The simulated machine's hardware resources.
    type Machine: fmt::Debug;

    /// Idle resources for `cfg.nodes` nodes.
    #[doc(hidden)]
    fn machine(cfg: &SimConfig) -> Self::Machine;

    /// Samples the per-node queue-depth gauges at virtual time `t`.
    #[doc(hidden)]
    fn sample_queues(machine: &mut Self::Machine, gauges: &mut GaugeSet, t: Time);

    /// Dispatches `event` at `node` at time `t` through the cost-model
    /// handler.
    #[doc(hidden)]
    fn dispatch(
        sim: &mut Sim<Self>,
        t: Time,
        node: NodeId,
        event: Self::Event,
        ctx: Option<TraceCtx>,
    );

    /// Re-evaluates every serving engine's wait conditions at `t`: a
    /// view change may have made a quorum satisfiable. MINOS-O view
    /// changes are quiesced, so there is nothing to re-evaluate.
    #[doc(hidden)]
    fn poke(_sim: &mut Sim<Self>, _t: Time) {}
}

/// A scheduled membership action, applied when simulated time reaches
/// it (before any protocol event at a later instant).
#[derive(Debug, Clone, Copy)]
enum ViewChange {
    /// Kill the node: volatile loss, survivors shrink their quorums.
    Crash(NodeId),
    /// Start the node's rejoin: donor copy now, re-admittance after the
    /// catch-up transfer time.
    BeginRejoin {
        /// Rejoining node.
        node: NodeId,
        /// Serving peer that streams the catch-up delta.
        donor: NodeId,
    },
    /// Catch-up done: the node re-enters every quorum and the epoch
    /// advances (scheduled internally by `BeginRejoin`).
    Readmit(NodeId),
}

/// Lease duration granted by the simulated views. Generous — the DES
/// failure detector is the scheduled [`ViewChange`] list, not lease
/// expiry; leases document liveness, they don't drive it here.
const SIM_LEASE_NS: Time = 1 << 40;

/// The discrete-event simulation of one protocol on its machine model.
///
/// [`BSim`]: every protocol step runs on host cores; every message pays
/// PCIe both ways plus the NIC send cost and the network link, and the
/// [`Arch`] flags graft batching/broadcast NIC capabilities onto the
/// baseline for the Figure 12 ablation.
///
/// [`OSim`]: follower processing and the Coordinator's
/// fan-out/collection run on SmartNIC cores; only batched descriptors
/// cross PCIe; local-writes go through the bounded vFIFO/dFIFO; metadata
/// accesses that migrate the coherent line between host and SNIC pay
/// the snoop latency. With `Arch { batching: false, .. }` or
/// `broadcast: false` this also models the intermediate Figure 12 points
/// (Combined, Combined+batch, Combined+bcast).
#[derive(Debug)]
pub struct Sim<P: CostModel> {
    pub(crate) cfg: SimConfig,
    pub(crate) arch: Arch,
    pub(crate) engines: Vec<P::Engine>,
    pub(crate) dispatchers: Vec<Interpreter<P>>,
    /// Scheduled deliveries: destination, event, and the trace context
    /// of the dispatch that caused the event (`None` for client
    /// submissions — admission mints the trace).
    pub(crate) queue: EventQueue<(NodeId, P::Event, Option<TraceCtx>)>,
    pub(crate) machine: P::Machine,
    pub(crate) completions: Vec<CompletionRec>,
    next_req: u64,
    /// Virtual-clock source shared with attached tracers: holds the
    /// simulated time of the event being dispatched.
    vclock: Option<Arc<AtomicU64>>,
    /// Resource telemetry, sampled every `cfg.telemetry_tick_ns` of
    /// virtual time (PCIe bytes and batch fill accumulate event-driven).
    pub(crate) gauges: GaugeSet,
    /// Next virtual-time telemetry sample point.
    next_sample: Time,
    /// Completions already handed out through `drain_completions` (for
    /// the in-flight gauge).
    drained: u64,
    /// Events processed by [`Sim::step`] so far (view changes, dropped
    /// frames to dead nodes, and dispatched protocol events alike) —
    /// the denominator of the simulator's events/sec speed cells.
    events: u64,
    /// Key → shard-group routing and multi-op barriers; identity when the
    /// simulation is unsharded. MINOS-O engines have no redirect path, so
    /// on a sharded simulation this facade routing is what keeps every
    /// submit on a replica.
    pub(crate) router: ShardRouter,
    /// Requests routed off their origin node: req → origin. Their
    /// completions pay the return routing hop at drain time.
    routed: HashMap<ReqId, NodeId>,
    /// Barrier parents: parent req → (origin, completion kind).
    parents: HashMap<ReqId, (NodeId, CompletionKind)>,
    /// Latest child completion seen per parent (the barrier release time).
    parent_hwm: HashMap<ReqId, Time>,
    /// Scheduled membership actions, fired in time order interleaved
    /// with the protocol event queue. On [`OSim`] they must be
    /// *quiesced*: the offloaded engine has no failure detector, so the
    /// harness panics if an operation is in flight when one fires.
    ctrl: Vec<(Time, ViewChange)>,
    /// Epoch/lease membership view; simulated time feeds the lease
    /// clock. Crashed and catching-up nodes are out of the serving set:
    /// events addressed to them are dropped (frames to a dead node are
    /// lost) and survivors exclude them from acknowledgment quorums.
    pub(crate) view: MembershipView,
}

/// The MINOS-B discrete-event simulation.
pub type BSim = Sim<Baseline>;

/// The MINOS-O discrete-event simulation.
pub type OSim = Sim<Offload>;

impl<P: CostModel> Sim<P> {
    /// Builds the simulation for `cfg.nodes` nodes running `model`.
    ///
    /// # Panics
    ///
    /// Panics if `arch.offload` does not match the protocol.
    #[must_use]
    pub fn new(cfg: SimConfig, arch: Arch, model: DdpModel) -> Self {
        assert_eq!(
            arch.offload,
            P::OFFLOAD,
            "architecture {} does not run this protocol",
            arch.label()
        );
        let n = cfg.nodes;
        Sim {
            engines: (0..n)
                .map(|i| P::engine(NodeId(i as u16), n, model))
                .collect(),
            dispatchers: vec![Interpreter::new(); n],
            machine: P::machine(&cfg),
            queue: EventQueue::new(),
            completions: Vec::new(),
            next_req: 1,
            vclock: None,
            gauges: GaugeSet::new(),
            next_sample: 0,
            drained: 0,
            events: 0,
            router: ShardRouter::new(None),
            routed: HashMap::new(),
            parents: HashMap::new(),
            parent_hwm: HashMap::new(),
            ctrl: Vec::new(),
            view: MembershipView::new(n, SIM_LEASE_NS, 0),
            cfg,
            arch,
        }
    }

    /// Builds a sharded simulation over `map`'s nodes: one simulation
    /// hosts every shard group, each engine holds only its shards' keys,
    /// and client ops submitted outside their key's replica group pay a
    /// routing hop (`timing::route_hop_ns`) each way.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not span exactly `cfg.nodes` nodes.
    #[must_use]
    pub fn with_placement(cfg: SimConfig, arch: Arch, model: DdpModel, map: ShardMap) -> Self {
        assert_eq!(map.n_nodes(), cfg.nodes, "placement/config node mismatch");
        let mut sim = Self::new(cfg, arch, model);
        for e in &mut sim.engines {
            e.set_placement(Some(map.clone()));
        }
        sim.router = ShardRouter::new(Some(map));
        sim
    }

    /// The placement map, if this simulation is sharded.
    #[must_use]
    pub fn placement(&self) -> Option<&ShardMap> {
        self.router.map()
    }

    /// Attaches observability sinks to every node's dispatcher. Records
    /// are stamped with simulated time (a virtual clock that tracks the
    /// event queue), so traces replay on the same axis as the DES.
    pub fn attach_tracer(&mut self, sinks: Vec<SharedSink>) {
        let source = Arc::new(AtomicU64::new(0));
        for (i, d) in self.dispatchers.iter_mut().enumerate() {
            d.set_tracer(Some(Tracer::new(
                NodeId(i as u16),
                TraceClock::virtual_time(Arc::clone(&source)),
                sinks.clone(),
            )));
        }
        self.vclock = Some(source);
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Pre-loads a record on every node that replicates it.
    pub fn load_all(&mut self, key: Key, value: Value) {
        for e in &mut self.engines {
            if e.is_replica(key) {
                e.load_record(key, value.clone());
            }
        }
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    /// Schedules `ev` at `coord`, charging the one-way routing hop when
    /// the op was submitted at a different node; remembers the origin so
    /// the completion pays the return hop.
    fn route_schedule(
        &mut self,
        at: Time,
        origin: NodeId,
        coord: NodeId,
        req: ReqId,
        ev: P::Event,
    ) {
        let at = if coord == origin {
            at
        } else {
            self.routed.insert(req, origin);
            at + timing::route_hop_ns(&self.cfg)
        };
        self.queue.schedule(at, (coord, ev, None));
    }

    /// [`Sim::route_schedule`] for a keyed op, counted in its shard's
    /// in-flight gauge.
    fn route_keyed(
        &mut self,
        at: Time,
        origin: NodeId,
        coord: NodeId,
        key: Key,
        req: ReqId,
        ev: P::Event,
    ) {
        self.router.note_submitted(key);
        self.route_schedule(at, origin, coord, req, ev);
    }

    /// Submits a client write at `node`, `at` the given time. On a
    /// sharded simulation the write is routed to a replica of its key's
    /// shard, paying the routing hop each way when `node` is not one.
    pub fn submit_write(
        &mut self,
        at: Time,
        node: NodeId,
        key: Key,
        value: Value,
        scope: Option<ScopeId>,
    ) -> ReqId {
        let req = self.fresh_req();
        let coord = self.router.route_write(node, key, scope);
        let ev = P::client_write(key, value, scope, req);
        self.route_keyed(at, node, coord, key, req, ev);
        req
    }

    /// Submits a client read, routed to a serving replica.
    pub fn submit_read(&mut self, at: Time, node: NodeId, key: Key) -> ReqId {
        let req = self.fresh_req();
        let serving = self.router.serving(node, key);
        self.route_keyed(at, node, serving, key, req, P::client_read(key, req));
        req
    }

    /// Submits a multi-key write batch: one routed child write per key,
    /// barrier-joined into the returned parent request, which completes
    /// (kind [`CompletionKind::MultiWrite`], at the latest child's
    /// completion) only once every child has.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is empty.
    pub fn submit_write_multi(
        &mut self,
        at: Time,
        node: NodeId,
        writes: Vec<(Key, Value)>,
        scope: Option<ScopeId>,
    ) -> ReqId {
        assert!(!writes.is_empty(), "empty multi-key write batch");
        let req = self.fresh_req();
        let children: Vec<ReqId> = writes.iter().map(|_| self.fresh_req()).collect();
        self.router.begin_barrier(req, &children);
        self.parents.insert(req, (node, CompletionKind::MultiWrite));
        for ((key, value), child) in writes.into_iter().zip(children) {
            let coord = self.router.route_write(node, key, scope);
            let ev = P::client_write(key, value, scope, child);
            self.route_keyed(at, node, coord, key, child, ev);
        }
        req
    }

    /// Submits a `[PERSIST]sc`. On a sharded simulation the flush fans
    /// out to every coordinator that scoped writes from `node` were
    /// routed to, barrier-joined into the returned parent request.
    pub fn submit_persist_scope(&mut self, at: Time, node: NodeId, scope: ScopeId) -> ReqId {
        let req = self.fresh_req();
        if self.router.map().is_some() {
            let coords = self.router.scope_coordinators(node, scope);
            let children: Vec<ReqId> = coords.iter().map(|_| self.fresh_req()).collect();
            self.router.begin_barrier(req, &children);
            self.parents
                .insert(req, (node, CompletionKind::PersistScope));
            for (coord, child) in coords.into_iter().zip(children) {
                let ev = P::client_persist_scope(scope, child);
                self.route_schedule(at, node, coord, child, ev);
            }
        } else {
            self.queue
                .schedule(at, (node, P::client_persist_scope(scope, req), None));
        }
        req
    }

    /// Drains the completions recorded since the last call. Routed
    /// requests pay the return hop here; barrier children are folded
    /// into their parent, which surfaces at the latest child completion.
    pub fn drain_completions(&mut self) -> Vec<CompletionRec> {
        let raw = std::mem::take(&mut self.completions);
        let mut out = Vec::with_capacity(raw.len());
        for mut rec in raw {
            if self.routed.remove(&rec.req).is_some() {
                rec.at += timing::route_hop_ns(&self.cfg);
            }
            if let Some(key) = rec.key {
                self.router.note_completed(key);
            }
            match self.router.parent_of(rec.req) {
                None => out.push(rec),
                Some(parent) => {
                    let hwm = self.parent_hwm.entry(parent).or_insert(0);
                    *hwm = (*hwm).max(rec.at);
                    if self.router.complete_child(rec.req).is_some() {
                        let (origin, kind) = self.parents.remove(&parent).expect("parent recorded");
                        let at = self.parent_hwm.remove(&parent).unwrap_or(rec.at);
                        out.push(CompletionRec {
                            req: parent,
                            node: origin,
                            at,
                            kind,
                            key: None,
                            ts: Ts::zero(),
                            obsolete: false,
                            comm_ns: None,
                        });
                    }
                }
            }
        }
        self.drained += out.len() as u64;
        out
    }

    /// The resource-telemetry gauges accumulated so far.
    #[must_use]
    pub fn gauges(&self) -> &GaugeSet {
        &self.gauges
    }

    /// Advances the tracers' virtual clock to `t` and samples the level
    /// gauges when a telemetry tick boundary has been crossed (one
    /// sample per crossing).
    fn tick(&mut self, t: Time) {
        if let Some(v) = &self.vclock {
            v.store(t, Ordering::Relaxed);
        }
        let tick = self.cfg.telemetry_tick_ns;
        if tick == 0 || t < self.next_sample {
            return;
        }
        self.next_sample = (t / tick + 1) * tick;
        self.gauges.observe(
            GaugeKind::EventQueueDepth,
            GAUGE_NODE_ALL,
            self.queue.len() as u64,
        );
        P::sample_queues(&mut self.machine, &mut self.gauges, t);
        let done = self.drained + self.completions.len() as u64;
        let inflight = (self.next_req - 1).saturating_sub(done);
        self.router
            .observe_load(&mut self.gauges, &self.engines, inflight);
    }

    /// Access to a node's engine (assertions, state dumps).
    #[must_use]
    pub fn engine(&self, node: NodeId) -> &P::Engine {
        &self.engines[node.0 as usize]
    }

    /// Per-node dispatch statistics (protocol actions interpreted for
    /// `node` so far).
    #[must_use]
    pub fn dispatch_stats(&self, node: NodeId) -> &P::Stats {
        self.dispatchers[node.0 as usize].stats()
    }

    /// Schedules a crash of `node` at simulated time `at`: its volatile
    /// state is lost (an attached tracer stays), events addressed to it
    /// from then on are dropped, survivors shrink their acknowledgment
    /// quorums, a catch-up it was in the middle of is abandoned, and the
    /// view epoch advances. On [`OSim`] every engine must be idle when
    /// the action fires: the offloaded protocol has no failure handling,
    /// so a mid-flight crash would stall the full-group quorum forever.
    pub fn schedule_crash(&mut self, at: Time, node: NodeId) {
        self.ctrl.push((at, ViewChange::Crash(node)));
    }

    /// Schedules the rejoin of a crashed `node` at `at`, with `donor` as
    /// the catch-up source. The donor copy is installed at `at`; the
    /// node re-enters the serving set (and the epoch advances) only
    /// after the catch-up transfer time [`timing::catchup_ns`] — the
    /// availability dip a rolling restart pays per node. The attempt is
    /// dropped if `node` is not down or `donor` is not serving when the
    /// action fires. Quiesced on [`OSim`], like
    /// [`Sim::schedule_crash`].
    pub fn schedule_rejoin(&mut self, at: Time, node: NodeId, donor: NodeId) {
        self.ctrl
            .push((at, ViewChange::BeginRejoin { node, donor }));
    }

    /// The epoch/lease membership view in force.
    #[must_use]
    pub fn membership(&self) -> &MembershipView {
        &self.view
    }

    /// The current view epoch.
    #[must_use]
    pub fn view_epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// Pops the earliest scheduled view change if it is due before (or
    /// at) the next protocol event.
    fn pop_ctrl_due(&mut self) -> Option<(Time, ViewChange)> {
        let idx = self
            .ctrl
            .iter()
            .enumerate()
            .min_by_key(|(_, (t, _))| *t)
            .map(|(i, _)| i)?;
        let t = self.ctrl[idx].0;
        if self.queue.peek_time().is_none_or(|evt| t <= evt) {
            Some(self.ctrl.remove(idx))
        } else {
            None
        }
    }

    /// Applies one due view change at simulated time `t`.
    fn apply_view_change(&mut self, t: Time, vc: ViewChange) {
        P::before_view_change(&self.engines);
        self.tick(t);
        match vc {
            ViewChange::Crash(node) => {
                let ni = node.0 as usize;
                let n = self.engines.len();
                let model = self.engines[ni].model();
                self.engines[ni] = P::engine(node, n, model);
                self.engines[ni].set_placement(self.router.map().cloned());
                self.dispatchers[ni].reset_stats();
                // A crash inside the catch-up window abandons the rejoin:
                // its pending re-admittance must not fire for this (or a
                // later) attempt.
                self.ctrl
                    .retain(|(_, vc)| !matches!(vc, ViewChange::Readmit(n) if *n == node));
                self.view.mark_down(node).expect("crash a known node");
                for (i, e) in self.engines.iter_mut().enumerate() {
                    if i != ni {
                        e.mark_failed(node);
                    }
                }
                P::poke(self, t);
            }
            ViewChange::BeginRejoin { node, donor } => {
                if !self.view.is_serving(donor) || self.view.begin_rejoin(node).is_err() {
                    return;
                }
                let ni = node.0 as usize;
                let records = self.engines[donor.0 as usize].catch_up_set(&self.engines[ni]);
                let bytes: u64 = records.iter().map(|(_, _, v)| v.len() as u64).sum();
                let cost = timing::catchup_ns(&self.cfg, records.len() as u64, bytes);
                for (k, ts, v) in records {
                    self.engines[ni].install_recovered(k, ts, v);
                }
                self.ctrl.push((t + cost, ViewChange::Readmit(node)));
            }
            ViewChange::Readmit(node) => {
                let ni = node.0 as usize;
                for i in 0..self.engines.len() {
                    let other = NodeId(i as u16);
                    if other == node {
                        continue;
                    }
                    self.engines[i].mark_recovered(node);
                    // The rebuilt engine starts with everyone alive;
                    // teach it about peers still out of the set.
                    if !self.view.is_serving(other) {
                        self.engines[ni].mark_failed(other);
                    }
                }
                self.view
                    .complete_rejoin(node, t)
                    .expect("a crash cancels the readmit it would invalidate");
                P::poke(self, t);
            }
        }
    }

    /// Events processed by [`Sim::step`] so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Processes one simulated event. Returns false when idle.
    pub fn step(&mut self) -> bool {
        if let Some((t, vc)) = self.pop_ctrl_due() {
            self.events += 1;
            self.apply_view_change(t, vc);
            return true;
        }
        let Some((t, (node, ev, ctx))) = self.queue.pop() else {
            return false;
        };
        self.events += 1;
        // A node outside the serving set neither receives nor computes:
        // frames addressed to it are lost on the wire.
        if !self.view.is_serving(node) {
            return true;
        }
        self.tick(t);
        P::dispatch(self, t, node, ev, ctx);
        true
    }

    /// Runs until the event queue is empty.
    pub fn run_to_idle(&mut self) {
        while self.step() {}
    }
}
