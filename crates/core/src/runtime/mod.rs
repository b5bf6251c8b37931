//! The shared action-dispatch runtime.
//!
//! Every MINOS harness — the in-process loopback cluster, the threaded
//! crossbeam cluster, the TCP cluster, the discrete-event simulator and
//! the model checker — used to carry its own `match act { ... }` loop
//! interpreting [`Action`]s/[`OAction`]s, and then its own copy of every
//! layer per protocol. This module owns the single canonical
//! interpretation, written once over a [`Protocol`]:
//!
//! * [`Protocol`] names what really differs between MINOS-B
//!   ([`Baseline`]) and MINOS-O ([`Offload`]): engine, event, action and
//!   counter types, the client-event constructors, the trace
//!   classification and the view-change rule. [`Interpret`] is its
//!   action→handler half.
//! * [`Interpreter`] ([`Dispatcher`] for MINOS-B, [`ODispatcher`] for
//!   MINOS-O) feeds an event to an engine and walks the resulting
//!   actions exactly once, translating each into a call on a
//!   harness-provided handler and keeping protocol counters
//!   ([`DispatchStats`]/[`ODispatchStats`]) as it goes. Fan-out
//!   destination computation — replicas of a key for MINOS-B, all peer
//!   SmartNICs for MINOS-O — lives here, not in the harnesses.
//! * [`Transport`] is the messaging half of a handler: `send` one protocol
//!   message, `broadcast` one message to a destination set, and `flush`
//!   at the end of a dispatch (the batch boundary).
//! * [`ActionSink`]/[`OSink`] are the local half: persists, deferred
//!   events, client completions, redirects and timing hints.
//! * [`Batched`] is transport middleware implementing the paper's Fig. 12
//!   *batching* and *broadcast* NIC capabilities for the live runtimes:
//!   it coalesces the messages of one dispatch into per-destination
//!   frames and fans a follower broadcast out of a single enqueue,
//!   delegating framed delivery to a [`FrameTransport`].
//!
//! Actions are streamed to the handler **in emission order**; handlers
//! that gate sends on earlier actions of the same dispatch (the MINOS-O
//! simulator gates ACKs on its FIFO enqueues) can rely on that.
//!
//! Being the single choke point also makes the interpreter the single
//! *instrumentation* point: a [`crate::obs::Tracer`] installed
//! via [`Interpreter::set_tracer`] emits a structured
//! [`crate::obs::TraceEvent`] at every protocol-event boundary, in every
//! harness, from one piece of code. Without a tracer (the default) the
//! only cost is an `Option` discriminant check.
//!
//! Time still does not exist here: the interpreter is as deterministic as
//! the engines, and the simulator implements [`Transport`] over its
//! virtual-time event queue.

mod batch;
mod chaos;
mod router;

pub use batch::{BatchPolicy, Batched, FrameTransport, TransportCounters};
pub use chaos::{ChaosNet, ChaosState};
pub use router::ShardRouter;

use crate::baseline::NodeEngine;
use crate::event::{Action, DelayClass, Event, MetaOp, ReqId};
use crate::obs::{self, TraceEvent, TraceMeta, Tracer};
use crate::offload::{OAction, OEvent, ONodeEngine, PcieMsg, Side};
use crate::CoordTxView;
use minos_types::wire::TraceCtx;
use minos_types::{DdpModel, Key, Message, NodeId, RecordMeta, ScopeId, ShardMap, Ts, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;

/// The messaging half of a dispatch handler: how protocol messages leave
/// the node.
pub trait Transport {
    /// Delivers `msg` to peer `to`.
    fn send(&mut self, to: NodeId, msg: Message);

    /// Delivers `msg` to every node in `dests` (a follower fan-out).
    ///
    /// The default expands to one [`Transport::send`] per destination;
    /// transports with native fan-out (the [`Batched`] middleware, the
    /// simulators' NIC models) override it.
    fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
        for &d in dests {
            self.send(d, msg.clone());
        }
    }

    /// Marks the end of one dispatch — the batch boundary. Buffering
    /// transports emit their coalesced frames here.
    fn flush(&mut self) {}

    /// Installs the trace context every message of the current dispatch
    /// travels under (the dispatcher calls this once per dispatch,
    /// before any send). Transports that put traffic on a wire attach it
    /// to their frames; the default ignores it.
    fn set_ctx(&mut self, _ctx: Option<TraceCtx>) {}
}

/// The local half of a MINOS-B dispatch handler: everything an engine
/// asks of its node other than messaging.
pub trait ActionSink {
    /// Called once per dispatch with the full action batch, before any
    /// per-action call. Harnesses that charge a handler cost up front
    /// (the simulator's core acquisition) hook this; most ignore it.
    fn begin(&mut self, _actions: &[Action]) {}

    /// Persist `key = value` at `ts` to the durable medium; the harness
    /// must eventually feed [`Event::PersistDone`] back to the engine.
    fn persist(&mut self, key: Key, ts: Ts, value: Value, background: bool);

    /// Hand `event` to node `to` (a mis-routed client request).
    fn redirect(&mut self, to: NodeId, event: Event);

    /// Re-inject `event` into this node after the class's dispatch delay.
    fn defer(&mut self, event: Event, class: DelayClass);

    /// A client write completed.
    fn write_done(&mut self, req: ReqId, key: Key, ts: Ts, obsolete: bool);

    /// A client read completed.
    fn read_done(&mut self, req: ReqId, key: Key, value: Value, ts: Ts);

    /// A client `[PERSIST]sc` completed.
    fn persist_scope_done(&mut self, req: ReqId, scope: ScopeId);

    /// A timing hint. The dispatcher already counts these in
    /// [`DispatchStats::meta`]; only harnesses that *charge* for them
    /// (the simulator) need to hook this.
    fn meta(&mut self, _op: &MetaOp) {}
}

/// Counters over [`MetaOp`] timing hints, kept per node by the
/// dispatchers so every harness reports the same protocol-step counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaStats {
    /// Obsoleteness checks performed.
    pub obsolete_checks: u64,
    /// RDLock snatches (§III-A optimization).
    pub snatch_rd_locks: u64,
    /// RDLock releases.
    pub rd_unlocks: u64,
    /// WRLock acquisitions.
    pub wr_lock_acquires: u64,
    /// WRLock releases.
    pub wr_lock_releases: u64,
    /// LLC update operations.
    pub llc_updates: u64,
    /// Total bytes written through LLC updates.
    pub llc_bytes: u64,
    /// Timestamp-counter updates.
    pub ts_updates: u64,
}

impl MetaStats {
    /// Counts one hint.
    pub fn record(&mut self, op: &MetaOp) {
        match op {
            MetaOp::ObsoleteCheck => self.obsolete_checks += 1,
            MetaOp::SnatchRdLock => self.snatch_rd_locks += 1,
            MetaOp::RdUnlock => self.rd_unlocks += 1,
            MetaOp::WrLockAcquire => self.wr_lock_acquires += 1,
            MetaOp::WrLockRelease => self.wr_lock_releases += 1,
            MetaOp::LlcUpdate { bytes } => {
                self.llc_updates += 1;
                self.llc_bytes += bytes;
            }
            MetaOp::TsUpdate => self.ts_updates += 1,
        }
    }

    /// Total hint count (LLC bytes excluded).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.obsolete_checks
            + self.snatch_rd_locks
            + self.rd_unlocks
            + self.wr_lock_acquires
            + self.wr_lock_releases
            + self.llc_updates
            + self.ts_updates
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &MetaStats) {
        self.obsolete_checks += other.obsolete_checks;
        self.snatch_rd_locks += other.snatch_rd_locks;
        self.rd_unlocks += other.rd_unlocks;
        self.wr_lock_acquires += other.wr_lock_acquires;
        self.wr_lock_releases += other.wr_lock_releases;
        self.llc_updates += other.llc_updates;
        self.llc_bytes += other.llc_bytes;
        self.ts_updates += other.ts_updates;
    }
}

/// Per-node protocol counters kept by [`Dispatcher`] (MINOS-B). Identical workloads
/// must produce identical stats in every harness — the cross-harness
/// parity tests assert exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Unicast protocol messages emitted.
    pub sends: u64,
    /// Follower fan-outs emitted ([`Action::SendToFollowers`]).
    pub fanouts: u64,
    /// Total destinations across all fan-outs.
    pub fanout_dests: u64,
    /// Persist requests issued to the durable medium.
    pub persists: u64,
    /// Client requests redirected to another node.
    pub redirects: u64,
    /// Events re-injected after a dispatch delay.
    pub defers: u64,
    /// Client writes completed.
    pub writes_done: u64,
    /// Client reads completed.
    pub reads_done: u64,
    /// Client `[PERSIST]sc` transactions completed.
    pub persist_scopes_done: u64,
    /// Timing-hint counts.
    pub meta: MetaStats,
}

impl DispatchStats {
    /// Adds `other` into `self` (cluster-wide aggregation).
    pub fn merge(&mut self, other: &DispatchStats) {
        self.sends += other.sends;
        self.fanouts += other.fanouts;
        self.fanout_dests += other.fanout_dests;
        self.persists += other.persists;
        self.redirects += other.redirects;
        self.defers += other.defers;
        self.writes_done += other.writes_done;
        self.reads_done += other.reads_done;
        self.persist_scopes_done += other.persist_scopes_done;
        self.meta.merge(&other.meta);
    }
}
/// The local half of a MINOS-O dispatch handler.
pub trait OSink {
    /// Called once per dispatch with the full action batch (see
    /// [`ActionSink::begin`]).
    fn begin(&mut self, _actions: &[OAction]) {}

    /// Deliver a PCIe descriptor from `from` to the node's other side
    /// after the PCIe delay.
    fn pcie(&mut self, from: Side, msg: PcieMsg);

    /// Enqueue `(key, ts)` into the volatile FIFO; the harness feeds back
    /// [`OEvent::VfifoDrained`].
    fn vfifo_enqueue(&mut self, key: Key, ts: Ts, bytes: u64);

    /// Enqueue `(key, ts)` into the durable FIFO; the harness feeds back
    /// [`OEvent::DfifoDrained`].
    fn dfifo_enqueue(&mut self, key: Key, ts: Ts, bytes: u64);

    /// Re-inject `event` after a local dispatch delay.
    fn defer(&mut self, event: OEvent);

    /// A client write completed.
    fn write_done(&mut self, req: ReqId, key: Key, ts: Ts, obsolete: bool);

    /// A client read completed.
    fn read_done(&mut self, req: ReqId, key: Key, value: Value, ts: Ts);

    /// A client `[PERSIST]sc` completed.
    fn persist_scope_done(&mut self, req: ReqId, scope: ScopeId);

    /// A side-tagged timing hint (already counted by the dispatcher).
    fn meta(&mut self, _side: Side, _op: &MetaOp) {}

    /// A coherent metadata line migrated between host and SmartNIC
    /// (already counted by the dispatcher).
    fn coherence_transfer(&mut self, _key: Key) {}
}

/// Per-node protocol counters kept by [`ODispatcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ODispatchStats {
    /// Unicast NIC-to-NIC messages emitted.
    pub sends: u64,
    /// Broadcast-module fan-outs emitted.
    pub fanouts: u64,
    /// Total destinations across all fan-outs.
    pub fanout_dests: u64,
    /// PCIe descriptors crossing between host and SmartNIC.
    pub pcie_msgs: u64,
    /// vFIFO enqueues.
    pub vfifo_enqueues: u64,
    /// dFIFO enqueues.
    pub dfifo_enqueues: u64,
    /// Events re-injected after a dispatch delay.
    pub defers: u64,
    /// Client writes completed.
    pub writes_done: u64,
    /// Client reads completed.
    pub reads_done: u64,
    /// Client `[PERSIST]sc` transactions completed.
    pub persist_scopes_done: u64,
    /// Coherence-line transfers between host and SmartNIC.
    pub coherence_transfers: u64,
    /// Timing hints performed by the host CPU.
    pub host_meta: MetaStats,
    /// Timing hints performed by the SmartNIC.
    pub snic_meta: MetaStats,
}

impl ODispatchStats {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &ODispatchStats) {
        self.sends += other.sends;
        self.fanouts += other.fanouts;
        self.fanout_dests += other.fanout_dests;
        self.pcie_msgs += other.pcie_msgs;
        self.vfifo_enqueues += other.vfifo_enqueues;
        self.dfifo_enqueues += other.dfifo_enqueues;
        self.defers += other.defers;
        self.writes_done += other.writes_done;
        self.reads_done += other.reads_done;
        self.persist_scopes_done += other.persist_scopes_done;
        self.coherence_transfers += other.coherence_transfers;
        self.host_meta.merge(&other.host_meta);
        self.snic_meta.merge(&other.snic_meta);
    }
}
/// The engine state a shared harness frame reads, seeds and rebuilds —
/// what [`NodeEngine`] and [`ONodeEngine`] already expose under the same
/// names, so the loopback cluster, the DES and the model checker can be
/// written once over [`Protocol::Engine`].
pub trait Engine: Clone + fmt::Debug + Hash {
    /// This node's id.
    fn node(&self) -> NodeId;
    /// The DDP model in force.
    fn model(&self) -> DdpModel;
    /// Installs the placement map (`None` = full replication).
    fn set_placement(&mut self, map: Option<ShardMap>);
    /// Whether this node holds a replica of `key`.
    fn is_replica(&self, key: Key) -> bool;
    /// Pre-populates a record.
    fn load_record(&mut self, key: Key, value: Value);
    /// Installs a record recovered from a rejoin donor.
    fn install_recovered(&mut self, key: Key, ts: Ts, value: Value);
    /// Record metadata.
    fn record_meta(&self, key: Key) -> RecordMeta;
    /// Current volatile value.
    fn record_value(&self, key: Key) -> Option<Value>;
    /// All keys materialized at this node.
    fn keys(&self) -> Vec<Key>;
    /// Records currently holding a lock (the lock-table gauge).
    fn locked_records(&self) -> usize;
    /// [`Engine::locked_records`] per shard of `map`.
    fn locked_records_by_shard(&self, map: &ShardMap) -> BTreeMap<u32, usize>;
    /// True when nothing is in flight.
    fn is_quiescent(&self) -> bool;
    /// Views of every in-flight coordinator transaction.
    fn coord_tx_views(&self) -> Vec<CoordTxView>;
    /// Excludes a failed `peer` from acknowledgment quorums. The
    /// offloaded engine has no failure detector — its quorums always
    /// span the full replica group — so the default does nothing.
    fn mark_failed(&mut self, _peer: NodeId) {}
    /// Re-admits a recovered `peer` (see [`Engine::mark_failed`]).
    fn mark_recovered(&mut self, _peer: NodeId) {}
    /// The rejoin catch-up set: every record this (donor) engine holds
    /// that `joiner` replicates, at its volatile version.
    fn catch_up_set(&self, joiner: &Self) -> Vec<(Key, Ts, Value)> {
        self.keys()
            .into_iter()
            .filter(|&k| joiner.is_replica(k))
            .map(|k| {
                let ts = self.record_meta(k).volatile_ts;
                (k, ts, self.record_value(k).unwrap_or_default())
            })
            .collect()
    }
}

impl Engine for NodeEngine {
    fn node(&self) -> NodeId {
        NodeEngine::node(self)
    }
    fn model(&self) -> DdpModel {
        NodeEngine::model(self)
    }
    fn set_placement(&mut self, map: Option<ShardMap>) {
        NodeEngine::set_placement(self, map);
    }
    fn is_replica(&self, key: Key) -> bool {
        NodeEngine::is_replica(self, key)
    }
    fn load_record(&mut self, key: Key, value: Value) {
        NodeEngine::load_record(self, key, value);
    }
    fn install_recovered(&mut self, key: Key, ts: Ts, value: Value) {
        NodeEngine::install_recovered(self, key, ts, value);
    }
    fn record_meta(&self, key: Key) -> RecordMeta {
        NodeEngine::record_meta(self, key)
    }
    fn record_value(&self, key: Key) -> Option<Value> {
        NodeEngine::record_value(self, key)
    }
    fn keys(&self) -> Vec<Key> {
        NodeEngine::keys(self)
    }
    fn locked_records(&self) -> usize {
        NodeEngine::locked_records(self)
    }
    fn locked_records_by_shard(&self, map: &ShardMap) -> BTreeMap<u32, usize> {
        NodeEngine::locked_records_by_shard(self, map)
    }
    fn is_quiescent(&self) -> bool {
        NodeEngine::is_quiescent(self)
    }
    fn coord_tx_views(&self) -> Vec<CoordTxView> {
        NodeEngine::coord_tx_views(self)
    }
    fn mark_failed(&mut self, peer: NodeId) {
        NodeEngine::mark_failed(self, peer);
    }
    fn mark_recovered(&mut self, peer: NodeId) {
        NodeEngine::mark_recovered(self, peer);
    }
}

impl Engine for ONodeEngine {
    fn node(&self) -> NodeId {
        ONodeEngine::node(self)
    }
    fn model(&self) -> DdpModel {
        ONodeEngine::model(self)
    }
    fn set_placement(&mut self, map: Option<ShardMap>) {
        ONodeEngine::set_placement(self, map);
    }
    fn is_replica(&self, key: Key) -> bool {
        ONodeEngine::is_replica(self, key)
    }
    fn load_record(&mut self, key: Key, value: Value) {
        ONodeEngine::load_record(self, key, value);
    }
    fn install_recovered(&mut self, key: Key, ts: Ts, value: Value) {
        ONodeEngine::install_recovered(self, key, ts, value);
    }
    fn record_meta(&self, key: Key) -> RecordMeta {
        ONodeEngine::record_meta(self, key)
    }
    fn record_value(&self, key: Key) -> Option<Value> {
        ONodeEngine::record_value(self, key)
    }
    fn keys(&self) -> Vec<Key> {
        ONodeEngine::keys(self)
    }
    fn locked_records(&self) -> usize {
        ONodeEngine::locked_records(self)
    }
    fn locked_records_by_shard(&self, map: &ShardMap) -> BTreeMap<u32, usize> {
        ONodeEngine::locked_records_by_shard(self, map)
    }
    fn is_quiescent(&self) -> bool {
        ONodeEngine::is_quiescent(self)
    }
    fn coord_tx_views(&self) -> Vec<CoordTxView> {
        ONodeEngine::coord_tx_views(self)
    }
}

/// One MINOS protocol variant — the paper's MINOS-B or its §V
/// re-partitioning across host and SmartNIC, MINOS-O. The trait names
/// the types that really differ (engine, events, actions, counters) and
/// the few rules a harness frame cannot write without knowing which
/// protocol it drives; [`Interpreter`], [`crate::loopback::Loopback`],
/// the DES and the model checker are each written once over it.
///
/// A harness author implements [`Transport`] plus the protocol's own
/// sink ([`ActionSink`] or [`OSink`]) and never this trait: it has
/// exactly two implementors, [`Baseline`] and [`Offload`].
pub trait Protocol: Copy + fmt::Debug + 'static {
    /// The per-node protocol state machine.
    type Engine: Engine;
    /// What the engine consumes.
    type Event: Clone + fmt::Debug;
    /// What the engine emits.
    type Action: Clone + fmt::Debug;
    /// Per-node protocol counters kept by [`Interpreter`].
    type Stats: Copy + fmt::Debug + Default + PartialEq + Eq;

    /// A fresh engine for `node` in a cluster of `n_nodes`.
    fn engine(node: NodeId, n_nodes: usize, model: DdpModel) -> Self::Engine;

    /// Feeds `event` to `engine`, appending the resulting actions.
    fn on_event(engine: &mut Self::Engine, event: Self::Event, out: &mut Vec<Self::Action>);

    /// The client-write admission event.
    fn client_write(key: Key, value: Value, scope: Option<ScopeId>, req: ReqId) -> Self::Event;

    /// The client-read admission event.
    fn client_read(key: Key, req: ReqId) -> Self::Event;

    /// The client `[PERSIST]sc` admission event.
    fn client_persist_scope(scope: ScopeId, req: ReqId) -> Self::Event;

    /// Wraps a protocol message arriving from peer `from`.
    fn net_message(from: NodeId, msg: Message) -> Self::Event;

    /// The trace boundary an input event crosses, if any. Client
    /// admissions are exactly the [`TraceEvent::OpAdmitted`] inputs.
    fn trace_of_event(event: &Self::Event) -> Option<TraceEvent>;

    /// The trace boundary an output action crosses, if any (`engine`
    /// sizes fan-outs).
    fn trace_of_action(action: &Self::Action, engine: &Self::Engine) -> Option<TraceEvent>;

    /// Messages and fan-outs put on the wire so far.
    fn wire_sends(stats: &Self::Stats) -> u64;

    /// Adds `other` into `into` (cluster-wide aggregation).
    fn merge_stats(into: &mut Self::Stats, other: &Self::Stats);

    /// Called by a harness frame before it applies a membership change.
    /// MINOS-B handles failures mid-flight (survivors shrink their
    /// quorums via [`Engine::mark_failed`]); MINOS-O cannot, and panics
    /// here unless every engine is idle.
    fn before_view_change(_engines: &[Self::Engine]) {}
}

/// The action→handler half of a [`Protocol`]: how one emitted action
/// becomes calls on a handler `H`. Implemented for every
/// `H: Transport + ActionSink` by [`Baseline`] and every
/// `H: Transport + OSink` by [`Offload`]; harnesses get it for free.
pub trait Interpret<H>: Protocol {
    /// Hands the handler the full action batch before any per-action
    /// call (the sink's `begin` hook).
    fn begin(handler: &mut H, actions: &[Self::Action]);

    /// Counts `action` in `stats` and performs it on `handler`.
    fn apply(stats: &mut Self::Stats, engine: &Self::Engine, action: Self::Action, handler: &mut H);
}

/// MINOS-B: the protocol runs on host CPUs ([`NodeEngine`]).
#[derive(Debug, Clone, Copy)]
pub struct Baseline;

/// MINOS-O: the protocol split across host and SmartNIC
/// ([`ONodeEngine`]).
#[derive(Debug, Clone, Copy)]
pub struct Offload;

impl Protocol for Baseline {
    type Engine = NodeEngine;
    type Event = Event;
    type Action = Action;
    type Stats = DispatchStats;

    fn engine(node: NodeId, n_nodes: usize, model: DdpModel) -> NodeEngine {
        NodeEngine::new(node, n_nodes, model)
    }
    fn on_event(engine: &mut NodeEngine, event: Event, out: &mut Vec<Action>) {
        engine.on_event(event, out);
    }
    fn client_write(key: Key, value: Value, scope: Option<ScopeId>, req: ReqId) -> Event {
        Event::ClientWrite {
            key,
            value,
            scope,
            req,
        }
    }
    fn client_read(key: Key, req: ReqId) -> Event {
        Event::ClientRead { key, req }
    }
    fn client_persist_scope(scope: ScopeId, req: ReqId) -> Event {
        Event::ClientPersistScope { scope, req }
    }
    fn net_message(from: NodeId, msg: Message) -> Event {
        Event::Message { from, msg }
    }
    fn trace_of_event(event: &Event) -> Option<TraceEvent> {
        obs::trace_of_event(event)
    }
    fn trace_of_action(action: &Action, engine: &NodeEngine) -> Option<TraceEvent> {
        obs::trace_of_action(action, |key| engine.fanout_targets(key).len())
    }
    fn wire_sends(stats: &DispatchStats) -> u64 {
        stats.sends + stats.fanouts
    }
    fn merge_stats(into: &mut DispatchStats, other: &DispatchStats) {
        into.merge(other);
    }
}

impl<H: Transport + ActionSink> Interpret<H> for Baseline {
    fn begin(handler: &mut H, actions: &[Action]) {
        handler.begin(actions);
    }

    fn apply(stats: &mut DispatchStats, engine: &NodeEngine, action: Action, h: &mut H) {
        match action {
            Action::Send { to, msg } => {
                stats.sends += 1;
                h.send(to, msg);
            }
            Action::SendToFollowers { msg } => {
                let dests = engine.fanout_targets(msg.key());
                stats.fanouts += 1;
                stats.fanout_dests += dests.len() as u64;
                h.broadcast(&dests, msg);
            }
            Action::Persist {
                key,
                ts,
                value,
                background,
            } => {
                stats.persists += 1;
                h.persist(key, ts, value, background);
            }
            Action::Redirect { to, event } => {
                stats.redirects += 1;
                h.redirect(to, event);
            }
            Action::Defer { event, class } => {
                stats.defers += 1;
                h.defer(event, class);
            }
            Action::WriteDone {
                req,
                key,
                ts,
                obsolete,
            } => {
                stats.writes_done += 1;
                h.write_done(req, key, ts, obsolete);
            }
            Action::ReadDone {
                req,
                key,
                value,
                ts,
            } => {
                stats.reads_done += 1;
                h.read_done(req, key, value, ts);
            }
            Action::PersistScopeDone { req, scope } => {
                stats.persist_scopes_done += 1;
                h.persist_scope_done(req, scope);
            }
            Action::Meta(op) => {
                stats.meta.record(&op);
                h.meta(&op);
            }
        }
    }
}

impl Protocol for Offload {
    type Engine = ONodeEngine;
    type Event = OEvent;
    type Action = OAction;
    type Stats = ODispatchStats;

    fn engine(node: NodeId, n_nodes: usize, model: DdpModel) -> ONodeEngine {
        ONodeEngine::new(node, n_nodes, model)
    }
    fn on_event(engine: &mut ONodeEngine, event: OEvent, out: &mut Vec<OAction>) {
        engine.on_event(event, out);
    }
    fn client_write(key: Key, value: Value, scope: Option<ScopeId>, req: ReqId) -> OEvent {
        OEvent::ClientWrite {
            key,
            value,
            scope,
            req,
        }
    }
    fn client_read(key: Key, req: ReqId) -> OEvent {
        OEvent::ClientRead { key, req }
    }
    fn client_persist_scope(scope: ScopeId, req: ReqId) -> OEvent {
        OEvent::ClientPersistScope { scope, req }
    }
    fn net_message(from: NodeId, msg: Message) -> OEvent {
        OEvent::NetMessage { from, msg }
    }
    fn trace_of_event(event: &OEvent) -> Option<TraceEvent> {
        obs::trace_of_oevent(event)
    }
    fn trace_of_action(action: &OAction, engine: &ONodeEngine) -> Option<TraceEvent> {
        obs::trace_of_oaction(action, |key| engine.fanout_targets(key).len())
    }
    fn wire_sends(stats: &ODispatchStats) -> u64 {
        stats.sends + stats.fanouts
    }
    fn merge_stats(into: &mut ODispatchStats, other: &ODispatchStats) {
        into.merge(other);
    }
    fn before_view_change(engines: &[ONodeEngine]) {
        assert!(
            engines.iter().all(ONodeEngine::is_quiescent),
            "MINOS-O view changes must be quiesced"
        );
    }
}

impl<H: Transport + OSink> Interpret<H> for Offload {
    fn begin(handler: &mut H, actions: &[OAction]) {
        handler.begin(actions);
    }

    fn apply(stats: &mut ODispatchStats, engine: &ONodeEngine, action: OAction, h: &mut H) {
        match action {
            OAction::Send { to, msg } => {
                stats.sends += 1;
                h.send(to, msg);
            }
            OAction::SendToFollowers { msg } => {
                // The SNIC broadcast module fans out to the key's replica
                // group — every peer when the store is fully replicated
                // (the paper's MINOS-O shape), the shard's peers under a
                // placement map.
                let dests = engine.fanout_targets(msg.key());
                stats.fanouts += 1;
                stats.fanout_dests += dests.len() as u64;
                h.broadcast(&dests, msg);
            }
            OAction::Pcie { from, msg } => {
                stats.pcie_msgs += 1;
                h.pcie(from, msg);
            }
            OAction::VfifoEnqueue { key, ts, bytes } => {
                stats.vfifo_enqueues += 1;
                h.vfifo_enqueue(key, ts, bytes);
            }
            OAction::DfifoEnqueue { key, ts, bytes } => {
                stats.dfifo_enqueues += 1;
                h.dfifo_enqueue(key, ts, bytes);
            }
            OAction::Defer { event } => {
                stats.defers += 1;
                h.defer(event);
            }
            OAction::WriteDone {
                req,
                key,
                ts,
                obsolete,
            } => {
                stats.writes_done += 1;
                h.write_done(req, key, ts, obsolete);
            }
            OAction::ReadDone {
                req,
                key,
                value,
                ts,
            } => {
                stats.reads_done += 1;
                h.read_done(req, key, value, ts);
            }
            OAction::PersistScopeDone { req, scope } => {
                stats.persist_scopes_done += 1;
                h.persist_scope_done(req, scope);
            }
            OAction::Meta { side, op } => {
                match side {
                    Side::Host => stats.host_meta.record(&op),
                    Side::Snic => stats.snic_meta.record(&op),
                }
                h.meta(side, &op);
            }
            OAction::CoherenceTransfer { key } => {
                stats.coherence_transfers += 1;
                h.coherence_transfer(key);
            }
        }
    }
}

/// The canonical action interpreter, written once for both protocols.
///
/// One interpreter serves one engine (it keeps that node's
/// [`Protocol::Stats`]); harnesses that re-create handlers per step keep
/// the interpreter across steps so counters accumulate.
#[derive(Debug, Clone)]
pub struct Interpreter<P: Protocol> {
    stats: P::Stats,
    scratch: Vec<P::Action>,
    tracer: Option<Tracer>,
}

/// The MINOS-B action interpreter.
pub type Dispatcher = Interpreter<Baseline>;

/// The MINOS-O action interpreter.
pub type ODispatcher = Interpreter<Offload>;

impl<P: Protocol> Default for Interpreter<P> {
    fn default() -> Self {
        Interpreter {
            stats: P::Stats::default(),
            scratch: Vec::new(),
            tracer: None,
        }
    }
}

impl<P: Protocol> Interpreter<P> {
    /// A fresh interpreter with zeroed stats and no tracer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// This node's accumulated protocol counters.
    #[must_use]
    pub fn stats(&self) -> &P::Stats {
        &self.stats
    }

    /// Zeroes the counters and keeps the tracer: what a harness does to
    /// a crashed node, whose observers must outlive its volatile state.
    pub fn reset_stats(&mut self) {
        self.stats = P::Stats::default();
    }

    /// Installs (or, with `None`, removes) the observability tracer.
    /// Every subsequent dispatch emits [`TraceEvent`]s through it.
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    /// The installed tracer (harnesses flush its sinks at shutdown).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut()
    }

    /// Feeds `event` to `engine` and interprets every resulting action
    /// through `handler`, in emission order, ending with a
    /// [`Transport::flush`]. Equivalent to [`Interpreter::dispatch_ctx`]
    /// with no inbound trace context.
    pub fn dispatch<H: Transport>(
        &mut self,
        engine: &mut P::Engine,
        event: P::Event,
        handler: &mut H,
    ) where
        P: Interpret<H>,
    {
        self.dispatch_ctx(engine, event, None, handler);
    }

    /// [`Interpreter::dispatch`] with the distributed-tracing context
    /// the event arrived under (`None` for untraced or locally
    /// originated events).
    ///
    /// With a tracer installed, the dispatch joins the inbound trace (or
    /// mints a fresh trace id at a client-op admission), mints its own
    /// span, stamps every emitted [`TraceEvent`] with the resulting
    /// [`TraceMeta`], and hands the handler an *outgoing*
    /// [`TraceCtx`] — `(trace_id, this span, local clock)` — via
    /// [`Transport::set_ctx`] so wire transports can attach it to this
    /// dispatch's frames. Without a tracer the inbound context is
    /// forwarded unchanged, so untraced relay nodes do not sever a trace.
    pub fn dispatch_ctx<H: Transport>(
        &mut self,
        engine: &mut P::Engine,
        event: P::Event,
        ctx: Option<TraceCtx>,
        handler: &mut H,
    ) where
        P: Interpret<H>,
    {
        let mut out_ctx = ctx.filter(|c| !c.is_empty());
        if let Some(tr) = self.tracer.as_mut() {
            let inbound = out_ctx.unwrap_or_default();
            let input = P::trace_of_event(&event);
            let trace_id = if inbound.trace_id != 0 {
                inbound.trace_id
            } else if matches!(input, Some(TraceEvent::OpAdmitted { .. })) {
                tr.mint_id()
            } else {
                0
            };
            let span = tr.mint_id();
            tr.set_meta(TraceMeta {
                trace_id,
                span,
                parent: inbound.span,
                remote_ns: inbound.origin_ns,
            });
            if let Some(ev) = input {
                tr.emit(ev);
            }
            // The remote clock belongs to the input boundary only; action
            // records carry just the dispatch identity.
            let meta = tr.meta();
            tr.set_meta(TraceMeta {
                remote_ns: 0,
                ..meta
            });
            out_ctx = Some(TraceCtx {
                trace_id,
                span,
                origin_ns: tr.origin_ns(),
            });
        }
        handler.set_ctx(out_ctx);
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        P::on_event(engine, event, &mut out);
        self.run(engine, &mut out, handler);
        if let Some(tr) = self.tracer.as_mut() {
            tr.set_meta(TraceMeta::default());
        }
        self.scratch = out;
    }

    /// Interprets an already-collected action batch — for harness paths
    /// that drive the engine outside `on_event` (failure-handling polls).
    pub fn run_actions<H: Transport>(
        &mut self,
        engine: &P::Engine,
        mut actions: Vec<P::Action>,
        handler: &mut H,
    ) where
        P: Interpret<H>,
    {
        self.run(engine, &mut actions, handler);
    }

    /// Drains `actions` through `handler` in emission order, tracing
    /// each boundary, and ends with the flush (and its trace record if
    /// the batch put traffic on the wire).
    fn run<H: Transport>(&mut self, engine: &P::Engine, actions: &mut Vec<P::Action>, h: &mut H)
    where
        P: Interpret<H>,
    {
        P::begin(h, actions);
        let wire0 = P::wire_sends(&self.stats);
        for act in actions.drain(..) {
            if let Some(tr) = self.tracer.as_mut() {
                if let Some(ev) = P::trace_of_action(&act, engine) {
                    tr.emit(ev);
                }
            }
            P::apply(&mut self.stats, engine, act, h);
        }
        h.flush();
        if let Some(tr) = self.tracer.as_mut() {
            let sent = P::wire_sends(&self.stats) - wire0;
            if sent > 0 {
                tr.emit(TraceEvent::BatchFlushed {
                    sends: u32::try_from(sent).unwrap_or(u32::MAX),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Batch digests for `begin` hooks.
//
// Cost-modelling handlers (the discrete-event simulators) charge compute
// for a whole dispatch up front, before the per-action calls stream in.
// These digests give `begin` implementations the aggregate facts they
// need without re-interpreting `Action`/`OAction` variants — keeping the
// match over action shapes confined to this module.

/// The [`MetaOp`] timing hints in a MINOS-B action batch, in order.
pub fn meta_ops(actions: &[Action]) -> impl Iterator<Item = &MetaOp> {
    actions.iter().filter_map(|a| match a {
        Action::Meta(op) => Some(op),
        _ => None,
    })
}

/// Payload sizes of the critical-path (foreground) persists in a
/// MINOS-B action batch, in bytes.
pub fn foreground_persist_bytes(actions: &[Action]) -> impl Iterator<Item = u64> + '_ {
    actions.iter().filter_map(|a| match a {
        Action::Persist {
            value,
            background: false,
            ..
        } => Some(value.len() as u64),
        _ => None,
    })
}

/// The `(side, op)` timing hints in a MINOS-O action batch, in order.
pub fn o_meta_ops(actions: &[OAction]) -> impl Iterator<Item = (Side, &MetaOp)> {
    actions.iter().filter_map(|a| match a {
        OAction::Meta { side, op } => Some((*side, op)),
        _ => None,
    })
}

/// Number of host/SNIC coherence snoops in a MINOS-O action batch.
#[must_use]
pub fn coherence_transfer_count(actions: &[OAction]) -> usize {
    actions
        .iter()
        .filter(|a| matches!(a, OAction::CoherenceTransfer { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_types::{DdpModel, PersistencyModel};

    /// A handler that records everything it is asked to do.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<(NodeId, Message)>,
        broadcasts: Vec<(Vec<NodeId>, Message)>,
        persists: Vec<(Key, Ts)>,
        deferred: Vec<Event>,
        completions: Vec<ReqId>,
        flushes: usize,
        begun: usize,
    }

    impl Transport for Recorder {
        fn send(&mut self, to: NodeId, msg: Message) {
            self.sent.push((to, msg));
        }
        fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
            self.broadcasts.push((dests.to_vec(), msg));
        }
        fn flush(&mut self) {
            self.flushes += 1;
        }
    }

    impl ActionSink for Recorder {
        fn begin(&mut self, _actions: &[Action]) {
            self.begun += 1;
        }
        fn persist(&mut self, key: Key, ts: Ts, _value: Value, _background: bool) {
            self.persists.push((key, ts));
        }
        fn redirect(&mut self, _to: NodeId, _event: Event) {}
        fn defer(&mut self, event: Event, _class: DelayClass) {
            self.deferred.push(event);
        }
        fn write_done(&mut self, req: ReqId, _key: Key, _ts: Ts, _obsolete: bool) {
            self.completions.push(req);
        }
        fn read_done(&mut self, req: ReqId, _key: Key, _value: Value, _ts: Ts) {
            self.completions.push(req);
        }
        fn persist_scope_done(&mut self, req: ReqId, _scope: ScopeId) {
            self.completions.push(req);
        }
    }

    #[test]
    fn write_fanout_goes_through_broadcast() {
        let model = DdpModel::lin(PersistencyModel::Eventual);
        let mut engine = NodeEngine::new(NodeId(0), 3, model);
        let mut disp = Dispatcher::new();
        let mut h = Recorder::default();

        disp.dispatch(
            &mut engine,
            Event::ClientWrite {
                key: Key(1),
                value: "v".into(),
                scope: None,
                req: ReqId(1),
            },
            &mut h,
        );
        // The write body is deferred; deliver it to trigger the fan-out.
        let start = h.deferred.pop().expect("deferred StartWrite");
        disp.dispatch(&mut engine, start, &mut h);

        let (dests, msg) = h.broadcasts.pop().expect("INV fan-out");
        assert!(matches!(msg, Message::Inv { .. }));
        assert!(!dests.contains(&NodeId(0)), "no self-fanout");
        assert!(!dests.is_empty());
        assert_eq!(disp.stats().fanouts, 1);
        assert_eq!(disp.stats().fanout_dests, dests.len() as u64);
        assert_eq!(h.flushes, 2, "one flush per dispatch");
        assert_eq!(h.begun, 2, "one begin per dispatch");
        assert!(disp.stats().defers >= 1);
    }

    #[test]
    fn read_completes_locally_and_counts() {
        let model = DdpModel::lin(PersistencyModel::Synchronous);
        let mut engine = NodeEngine::new(NodeId(0), 1, model);
        let mut disp = Dispatcher::new();
        let mut h = Recorder::default();
        disp.dispatch(
            &mut engine,
            Event::ClientRead {
                key: Key(5),
                req: ReqId(7),
            },
            &mut h,
        );
        assert_eq!(h.completions, vec![ReqId(7)]);
        assert_eq!(disp.stats().reads_done, 1);
    }

    #[derive(Default)]
    struct ORecorder {
        broadcasts: Vec<(Vec<NodeId>, Message)>,
        pcie: Vec<(Side, PcieMsg)>,
        deferred: Vec<OEvent>,
    }

    impl Transport for ORecorder {
        fn send(&mut self, _to: NodeId, _msg: Message) {}
        fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
            self.broadcasts.push((dests.to_vec(), msg));
        }
    }

    impl OSink for ORecorder {
        fn pcie(&mut self, from: Side, msg: PcieMsg) {
            self.pcie.push((from, msg));
        }
        fn vfifo_enqueue(&mut self, _key: Key, _ts: Ts, _bytes: u64) {}
        fn dfifo_enqueue(&mut self, _key: Key, _ts: Ts, _bytes: u64) {}
        fn defer(&mut self, event: OEvent) {
            self.deferred.push(event);
        }
        fn write_done(&mut self, _req: ReqId, _key: Key, _ts: Ts, _obsolete: bool) {}
        fn read_done(&mut self, _req: ReqId, _key: Key, _value: Value, _ts: Ts) {}
        fn persist_scope_done(&mut self, _req: ReqId, _scope: ScopeId) {}
    }

    #[test]
    fn offload_fanout_targets_all_peers() {
        let model = DdpModel::lin(PersistencyModel::Eventual);
        let mut engine = ONodeEngine::new(NodeId(1), 4, model);
        let mut disp = ODispatcher::new();
        let mut h = ORecorder::default();

        disp.dispatch(
            &mut engine,
            OEvent::ClientWrite {
                key: Key(1),
                value: "v".into(),
                scope: None,
                req: ReqId(1),
            },
            &mut h,
        );
        // Drive deferred host work and the PCIe descriptor until the SNIC
        // broadcasts the INV.
        for _ in 0..8 {
            if let Some(ev) = h.deferred.pop() {
                disp.dispatch(&mut engine, ev, &mut h);
            }
            if let Some((from, msg)) = h.pcie.pop() {
                let ev = match from {
                    Side::Host => OEvent::PcieFromHost(msg),
                    Side::Snic => OEvent::PcieFromSnic(msg),
                };
                disp.dispatch(&mut engine, ev, &mut h);
            }
            if !h.broadcasts.is_empty() {
                break;
            }
        }
        let (dests, msg) = h.broadcasts.pop().expect("SNIC INV fan-out");
        assert!(matches!(msg, Message::Inv { .. }));
        assert_eq!(
            dests,
            vec![NodeId(0), NodeId(2), NodeId(3)],
            "all peers except self"
        );
        assert_eq!(disp.stats().fanouts, 1);
        assert_eq!(disp.stats().fanout_dests, 3);
        assert!(disp.stats().pcie_msgs >= 1);
    }

    #[test]
    fn meta_stats_count_per_kind() {
        let mut m = MetaStats::default();
        m.record(&MetaOp::ObsoleteCheck);
        m.record(&MetaOp::LlcUpdate { bytes: 128 });
        m.record(&MetaOp::LlcUpdate { bytes: 64 });
        m.record(&MetaOp::TsUpdate);
        assert_eq!(m.obsolete_checks, 1);
        assert_eq!(m.llc_updates, 2);
        assert_eq!(m.llc_bytes, 192);
        assert_eq!(m.total(), 4);

        let mut sum = MetaStats::default();
        sum.merge(&m);
        sum.merge(&m);
        assert_eq!(sum.llc_bytes, 384);
        assert_eq!(sum.total(), 8);
    }
}
