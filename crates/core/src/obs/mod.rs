//! Observability for the unified runtime: structured protocol tracing and
//! per-op latency histograms, zero-cost when disabled.
//!
//! The [`runtime`](crate::runtime) dispatchers are the single choke point
//! every harness routes protocol actions through, so they are also the
//! single instrumentation point: a [`Tracer`] installed on a
//! [`Interpreter`](crate::runtime::Interpreter) emits one [`TraceRecord`]
//! per protocol-event boundary — op admitted, coordinator send, follower
//! ACK receipt, persist start/complete, batch flush, broadcast fan-out —
//! into any number of shared [`TraceSink`]s. With no tracer installed
//! (the default) the dispatchers only pay an `Option` check per action.
//!
//! Three sinks ship in [`sinks`]:
//!
//! * [`RingRecorder`] — a bounded in-memory ring, for tests and ad-hoc
//!   inspection;
//! * [`JsonlWriter`] — one flat JSON object per record, the interchange
//!   format the `minos-trace` binary replays;
//! * [`MetricsSink`] — pairs `OpAdmitted`/`OpCompleted` records into the
//!   [`HistogramSet`] behind `--metrics-out` and the Prometheus dump.
//!
//! Timestamps come from a [`TraceClock`] chosen per harness: wall-clock
//! monotonic for the live clusters, the simulators' virtual clock, or a
//! deterministic sequence counter for the loopback harness (so event
//! *order* can be asserted exactly in tests).
//!
//! The [`replay`] module turns a recorded trace back into per-op
//! timelines whose category totals reproduce the paper's Fig. 4 latency
//! breakdown; see `DESIGN.md` §4 for the taxonomy-to-figure mapping.
//! [`perfetto`] renders the same stream as Chrome Trace Format JSON for
//! visual inspection, and [`gauge`] adds the *resource* side of the
//! story: sampled vFIFO/dFIFO occupancy, queue depths, PCIe bytes,
//! lock-table size, in-flight transactions, and batch fill, with
//! high-water marks, exported next to the histograms in the Prometheus
//! dump and summarized in `BENCH_results.json`.

pub mod assemble;
pub mod gauge;
pub mod hist;
pub mod json;
pub mod perfetto;
pub mod replay;
pub mod sinks;

pub use assemble::{
    assemble, format_assembly, format_hop_stats, Assembly, ClockFit, Hop, Timeline,
};
pub use gauge::{
    shared_gauges, Gauge, GaugeKind, GaugeSet, SharedGauges, GAUGE_NODE_ALL, GAUGE_SHARD_ALL,
};
pub use hist::{HistogramSet, LatencyHistogram, OpKind};
pub use json::Json;
pub use replay::{analyze, format_report, parse_jsonl, Category, OpTrace};
pub use sinks::{JsonlWriter, MetricsSink, RingRecorder};

use crate::event::{Action, Event, ReqId};
use crate::offload::{OAction, OEvent, Side};
use minos_types::{Key, MessageKind, NodeId, ScopeId, Ts};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One protocol-event boundary crossed by a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A client operation entered the node (it becomes the coordinator).
    OpAdmitted {
        /// Operation class.
        op: OpKind,
        /// Request correlation id.
        req: ReqId,
        /// Target record, if the op names one.
        key: Option<Key>,
        /// Scope the op belongs to (a scope-tagged write) or flushes (a
        /// `[PERSIST]sc`), under `<Lin, Scope>`.
        scope: Option<ScopeId>,
    },
    /// The deferred write body started executing (Fig. 2 line 5).
    WriteStarted {
        /// Record being written.
        key: Key,
    },
    /// A protocol message arrived from a peer (follower ACKs included).
    MsgReceived {
        /// Sending node.
        from: NodeId,
        /// Message discriminant.
        kind: MessageKind,
        /// Record the message names, if any.
        key: Option<Key>,
    },
    /// A unicast protocol message left the dispatcher.
    MsgSent {
        /// Destination node.
        to: NodeId,
        /// Message discriminant.
        kind: MessageKind,
        /// Record the message names, if any.
        key: Option<Key>,
    },
    /// A follower fan-out left the dispatcher (INV/VAL broadcast).
    FanOut {
        /// Destination count.
        dests: u32,
        /// Message discriminant.
        kind: MessageKind,
        /// Record the message names, if any.
        key: Option<Key>,
    },
    /// An NVM persist was issued to the durable medium.
    PersistStarted {
        /// Record being persisted.
        key: Key,
        /// Off the critical path (Fig. 3 background persists).
        background: bool,
    },
    /// A previously issued NVM persist completed.
    PersistCompleted {
        /// Record persisted.
        key: Key,
    },
    /// End of a dispatch that emitted wire traffic: the transport's batch
    /// boundary ([`Transport::flush`](crate::runtime::Transport::flush)).
    BatchFlushed {
        /// Send/fan-out actions the flushed dispatch emitted.
        sends: u32,
    },
    /// A client operation returned to the client.
    OpCompleted {
        /// Operation class.
        op: OpKind,
        /// Request correlation id.
        req: ReqId,
        /// Target record, if the op names one.
        key: Option<Key>,
        /// Write cut short as obsolete (§III-A).
        obsolete: bool,
        /// The op's version: a write's assigned `TS_WR`, a read's
        /// observed `volatileTS`. `None` for scope flushes. This is what
        /// turns a trace into a checkable history (`minos-check`).
        ts: Option<Ts>,
    },
    /// MINOS-O: a descriptor was enqueued onto the host↔SmartNIC PCIe bus.
    PcieCrossing {
        /// Originating side.
        from: Side,
    },
    /// MINOS-O: an entry was enqueued into the vFIFO or dFIFO.
    FifoEnqueued {
        /// True for the durable FIFO, false for the volatile one.
        durable: bool,
        /// Record enqueued.
        key: Key,
    },
    /// MINOS-O: the FIFO hardware drained an entry.
    FifoDrained {
        /// True for the durable FIFO, false for the volatile one.
        durable: bool,
        /// Record drained.
        key: Key,
    },
    /// MINOS-O: a coherent metadata line migrated between host and NIC.
    CoherenceTransfer {
        /// Record whose metadata line moved.
        key: Key,
    },
}

impl TraceEvent {
    /// Stable snake_case name of the variant (the JSONL `ev` field).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::OpAdmitted { .. } => "op_admitted",
            TraceEvent::WriteStarted { .. } => "write_started",
            TraceEvent::MsgReceived { .. } => "msg_received",
            TraceEvent::MsgSent { .. } => "msg_sent",
            TraceEvent::FanOut { .. } => "fan_out",
            TraceEvent::PersistStarted { .. } => "persist_started",
            TraceEvent::PersistCompleted { .. } => "persist_completed",
            TraceEvent::BatchFlushed { .. } => "batch_flushed",
            TraceEvent::OpCompleted { .. } => "op_completed",
            TraceEvent::PcieCrossing { .. } => "pcie_crossing",
            TraceEvent::FifoEnqueued { .. } => "fifo_enqueued",
            TraceEvent::FifoDrained { .. } => "fifo_drained",
            TraceEvent::CoherenceTransfer { .. } => "coherence_transfer",
        }
    }

    /// The record this event concerns, when it names one.
    #[must_use]
    pub fn key(&self) -> Option<Key> {
        match self {
            TraceEvent::OpAdmitted { key, .. }
            | TraceEvent::MsgReceived { key, .. }
            | TraceEvent::MsgSent { key, .. }
            | TraceEvent::FanOut { key, .. }
            | TraceEvent::OpCompleted { key, .. } => *key,
            TraceEvent::WriteStarted { key }
            | TraceEvent::PersistStarted { key, .. }
            | TraceEvent::PersistCompleted { key }
            | TraceEvent::FifoEnqueued { key, .. }
            | TraceEvent::FifoDrained { key, .. }
            | TraceEvent::CoherenceTransfer { key } => Some(*key),
            TraceEvent::BatchFlushed { .. } | TraceEvent::PcieCrossing { .. } => None,
        }
    }
}

/// Distributed-tracing identity attached to a [`TraceRecord`]. Zero
/// fields mean "absent", so a default meta is the untraced record.
///
/// `trace_id` names the end-to-end operation (minted at `OpAdmitted`,
/// carried on every wire hop via
/// [`TraceCtx`](minos_types::wire::TraceCtx)); `span` names the dispatch
/// that produced this record; `parent` is the upstream dispatch's span
/// (the sender of the message this dispatch is handling); `remote_ns`
/// is the *sender's* local clock at emission, recorded on `MsgReceived`
/// so the offline assembler can fit per-node clock offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// End-to-end operation identity (0 = untraced).
    pub trace_id: u64,
    /// Span id of the dispatch this record belongs to (0 = none).
    pub span: u64,
    /// Span id of the upstream dispatch (0 = root or unknown).
    pub parent: u64,
    /// Sender-local clock (ns) carried on the incoming message
    /// (0 = not a message receipt, or untraced sender).
    pub remote_ns: u64,
}

impl TraceMeta {
    /// True when every field is zero (an untraced record).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace_id == 0 && self.span == 0 && self.parent == 0 && self.remote_ns == 0
    }
}

/// A timestamped [`TraceEvent`] attributed to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Timestamp from the emitting tracer's [`TraceClock`], in
    /// nanoseconds (or sequence steps under [`TraceClock::sequence`]).
    pub at_ns: u64,
    /// Node that crossed the boundary.
    pub node: NodeId,
    /// What happened.
    pub event: TraceEvent,
    /// Distributed-tracing identity (all-zero when untraced).
    pub meta: TraceMeta,
}

/// A consumer of trace records. Implementations must be cheap: they run
/// inline on the dispatch path under the sink's mutex.
pub trait TraceSink {
    /// Consumes one record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flushes any buffered output (end of run, periodic dump).
    fn flush(&mut self) {}
}

/// A sink shared between the per-node tracers of one cluster.
pub type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// Wraps a sink for sharing across node tracers.
pub fn shared<S: TraceSink + Send + 'static>(sink: S) -> Arc<Mutex<S>> {
    Arc::new(Mutex::new(sink))
}

/// The time source a tracer stamps records with.
#[derive(Debug, Clone)]
pub enum TraceClock {
    /// Wall-clock nanoseconds since a shared epoch (live clusters). All
    /// tracers of one cluster must share the epoch so records compare.
    Monotonic(Instant),
    /// A shared virtual clock (the simulators' event-queue time).
    Virtual(Arc<AtomicU64>),
    /// A shared logical sequence counter: each read returns the next
    /// integer. Deterministic — the loopback harness uses it so tests can
    /// assert exact event orderings.
    Sequence(Arc<AtomicU64>),
}

impl TraceClock {
    /// A monotonic clock with its epoch at the call.
    #[must_use]
    pub fn monotonic() -> Self {
        TraceClock::Monotonic(Instant::now())
    }

    /// A virtual clock over `source` (store the simulator's current time
    /// before each dispatch).
    #[must_use]
    pub fn virtual_time(source: Arc<AtomicU64>) -> Self {
        TraceClock::Virtual(source)
    }

    /// A fresh logical sequence counter starting at 0.
    #[must_use]
    pub fn sequence() -> Self {
        TraceClock::Sequence(Arc::new(AtomicU64::new(0)))
    }

    fn now_ns(&self) -> u64 {
        match self {
            TraceClock::Monotonic(epoch) => {
                u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            TraceClock::Virtual(t) => t.load(Ordering::Relaxed),
            TraceClock::Sequence(c) => c.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Reads the clock without advancing it — a sequence clock keeps its
    /// counter, so peeking never perturbs the deterministic record
    /// numbering tests rely on. Used to stamp the `origin_ns` a dispatch
    /// puts on its outgoing wire context.
    fn peek_ns(&self) -> u64 {
        match self {
            TraceClock::Monotonic(epoch) => {
                u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            TraceClock::Virtual(t) => t.load(Ordering::Relaxed),
            TraceClock::Sequence(c) => c.load(Ordering::Relaxed),
        }
    }
}

/// A per-node trace emitter: stamps [`TraceEvent`]s with the clock and
/// fans them out to every sink. Installed on a dispatcher via
/// [`Dispatcher::set_tracer`](crate::runtime::Dispatcher::set_tracer).
#[derive(Clone)]
pub struct Tracer {
    node: NodeId,
    clock: TraceClock,
    sinks: Vec<SharedSink>,
    /// Identity stamped on every emitted record until the next
    /// [`Tracer::set_meta`] — the dispatcher sets it per dispatch.
    meta: TraceMeta,
    /// Monotone counter behind [`Tracer::mint_id`].
    next_id: u64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("node", &self.node)
            .field("clock", &self.clock)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Tracer {
    /// A tracer for `node` over `clock`, fanning out to `sinks`.
    #[must_use]
    pub fn new(node: NodeId, clock: TraceClock, sinks: Vec<SharedSink>) -> Self {
        Tracer {
            node,
            clock,
            sinks,
            meta: TraceMeta::default(),
            next_id: 0,
        }
    }

    /// The node this tracer stamps records with.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Mints a cluster-unique id (span or trace id): the node id in the
    /// top 16 bits (offset by one so node 0 still mints nonzero ids)
    /// over a per-tracer counter. Two tracers never collide; one tracer
    /// never repeats.
    pub fn mint_id(&mut self) -> u64 {
        self.next_id += 1;
        ((u64::from(self.node.0) + 1) << 48) | self.next_id
    }

    /// Sets the identity stamped on subsequently emitted records.
    pub fn set_meta(&mut self, meta: TraceMeta) {
        self.meta = meta;
    }

    /// The identity currently stamped on emitted records.
    #[must_use]
    pub fn meta(&self) -> TraceMeta {
        self.meta
    }

    /// The clock's current reading without advancing it — the
    /// `origin_ns` this node puts on outgoing wire contexts.
    #[must_use]
    pub fn origin_ns(&self) -> u64 {
        self.clock.peek_ns()
    }

    /// Stamps and emits one event to every sink.
    pub fn emit(&mut self, event: TraceEvent) {
        let rec = TraceRecord {
            at_ns: self.clock.now_ns(),
            node: self.node,
            event,
            meta: self.meta,
        };
        for sink in &self.sinks {
            if let Ok(mut s) = sink.lock() {
                s.record(&rec);
            }
        }
    }

    /// Asks every sink to flush buffered output.
    pub fn flush_sinks(&mut self) {
        for sink in &self.sinks {
            if let Ok(mut s) = sink.lock() {
                s.flush();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Classification: which engine inputs/outputs constitute trace
// boundaries. Pure and allocation-free; called by the dispatchers only
// when a tracer is installed.

/// The trace boundary a MINOS-B input event crosses, if any.
pub(crate) fn trace_of_event(ev: &Event) -> Option<TraceEvent> {
    match ev {
        Event::ClientWrite {
            key, req, scope, ..
        } => Some(TraceEvent::OpAdmitted {
            op: OpKind::Write,
            req: *req,
            key: Some(*key),
            scope: *scope,
        }),
        Event::ClientRead { key, req } => Some(TraceEvent::OpAdmitted {
            op: OpKind::Read,
            req: *req,
            key: Some(*key),
            scope: None,
        }),
        Event::ClientPersistScope { req, scope } => Some(TraceEvent::OpAdmitted {
            op: OpKind::PersistScope,
            req: *req,
            key: None,
            scope: Some(*scope),
        }),
        Event::StartWrite { key, .. } => Some(TraceEvent::WriteStarted { key: *key }),
        Event::Message { from, msg } => Some(TraceEvent::MsgReceived {
            from: *from,
            kind: msg.kind(),
            key: msg.key(),
        }),
        Event::PersistDone { key, .. } => Some(TraceEvent::PersistCompleted { key: *key }),
    }
}

/// The trace boundary a MINOS-B output action crosses, if any.
/// `fanout_dests` sizes a fan-out from its key (asked only for one).
pub(crate) fn trace_of_action(
    act: &Action,
    fanout_dests: impl FnOnce(Option<Key>) -> usize,
) -> Option<TraceEvent> {
    match act {
        Action::Send { to, msg } => Some(TraceEvent::MsgSent {
            to: *to,
            kind: msg.kind(),
            key: msg.key(),
        }),
        Action::SendToFollowers { msg } => Some(TraceEvent::FanOut {
            dests: u32::try_from(fanout_dests(msg.key())).unwrap_or(u32::MAX),
            kind: msg.kind(),
            key: msg.key(),
        }),
        Action::Persist {
            key, background, ..
        } => Some(TraceEvent::PersistStarted {
            key: *key,
            background: *background,
        }),
        Action::WriteDone {
            req,
            key,
            ts,
            obsolete,
        } => Some(TraceEvent::OpCompleted {
            op: OpKind::Write,
            req: *req,
            key: Some(*key),
            obsolete: *obsolete,
            ts: Some(*ts),
        }),
        Action::ReadDone { req, key, ts, .. } => Some(TraceEvent::OpCompleted {
            op: OpKind::Read,
            req: *req,
            key: Some(*key),
            obsolete: false,
            ts: Some(*ts),
        }),
        Action::PersistScopeDone { req, .. } => Some(TraceEvent::OpCompleted {
            op: OpKind::PersistScope,
            req: *req,
            key: None,
            obsolete: false,
            ts: None,
        }),
        Action::Defer { .. } | Action::Redirect { .. } | Action::Meta(_) => None,
    }
}

/// The trace boundary a MINOS-O input event crosses, if any.
pub(crate) fn trace_of_oevent(ev: &OEvent) -> Option<TraceEvent> {
    match ev {
        OEvent::ClientWrite {
            key, req, scope, ..
        } => Some(TraceEvent::OpAdmitted {
            op: OpKind::Write,
            req: *req,
            key: Some(*key),
            scope: *scope,
        }),
        OEvent::ClientRead { key, req } => Some(TraceEvent::OpAdmitted {
            op: OpKind::Read,
            req: *req,
            key: Some(*key),
            scope: None,
        }),
        OEvent::ClientPersistScope { req, scope } => Some(TraceEvent::OpAdmitted {
            op: OpKind::PersistScope,
            req: *req,
            key: None,
            scope: Some(*scope),
        }),
        OEvent::HostStart { key, .. } => Some(TraceEvent::WriteStarted { key: *key }),
        OEvent::NetMessage { from, msg } => Some(TraceEvent::MsgReceived {
            from: *from,
            kind: msg.kind(),
            key: msg.key(),
        }),
        OEvent::VfifoDrained { key, .. } => Some(TraceEvent::FifoDrained {
            durable: false,
            key: *key,
        }),
        OEvent::DfifoDrained { key, .. } => Some(TraceEvent::FifoDrained {
            durable: true,
            key: *key,
        }),
        // The PCIe crossing is traced once, at enqueue.
        OEvent::PcieFromHost(_) | OEvent::PcieFromSnic(_) => None,
    }
}

/// The trace boundary a MINOS-O output action crosses, if any.
pub(crate) fn trace_of_oaction(
    act: &OAction,
    fanout_dests: impl FnOnce(Option<Key>) -> usize,
) -> Option<TraceEvent> {
    match act {
        OAction::Send { to, msg } => Some(TraceEvent::MsgSent {
            to: *to,
            kind: msg.kind(),
            key: msg.key(),
        }),
        OAction::SendToFollowers { msg } => Some(TraceEvent::FanOut {
            dests: u32::try_from(fanout_dests(msg.key())).unwrap_or(u32::MAX),
            kind: msg.kind(),
            key: msg.key(),
        }),
        OAction::Pcie { from, .. } => Some(TraceEvent::PcieCrossing { from: *from }),
        OAction::VfifoEnqueue { key, .. } => Some(TraceEvent::FifoEnqueued {
            durable: false,
            key: *key,
        }),
        OAction::DfifoEnqueue { key, .. } => Some(TraceEvent::FifoEnqueued {
            durable: true,
            key: *key,
        }),
        OAction::WriteDone {
            req,
            key,
            ts,
            obsolete,
        } => Some(TraceEvent::OpCompleted {
            op: OpKind::Write,
            req: *req,
            key: Some(*key),
            obsolete: *obsolete,
            ts: Some(*ts),
        }),
        OAction::ReadDone { req, key, ts, .. } => Some(TraceEvent::OpCompleted {
            op: OpKind::Read,
            req: *req,
            key: Some(*key),
            obsolete: false,
            ts: Some(*ts),
        }),
        OAction::PersistScopeDone { req, .. } => Some(TraceEvent::OpCompleted {
            op: OpKind::PersistScope,
            req: *req,
            key: None,
            obsolete: false,
            ts: None,
        }),
        OAction::CoherenceTransfer { key } => Some(TraceEvent::CoherenceTransfer { key: *key }),
        OAction::Defer { .. } | OAction::Meta { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_clock_is_deterministic() {
        let ring = shared(RingRecorder::new(8));
        let mut tracer = Tracer::new(NodeId(0), TraceClock::sequence(), vec![ring.clone()]);
        tracer.emit(TraceEvent::BatchFlushed { sends: 1 });
        tracer.emit(TraceEvent::BatchFlushed { sends: 2 });
        let recs = ring.lock().unwrap().to_vec();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].at_ns, 0);
        assert_eq!(recs[1].at_ns, 1);
    }

    #[test]
    fn event_names_and_keys() {
        let ev = TraceEvent::PersistStarted {
            key: Key(9),
            background: true,
        };
        assert_eq!(ev.name(), "persist_started");
        assert_eq!(ev.key(), Some(Key(9)));
        assert_eq!(TraceEvent::BatchFlushed { sends: 0 }.key(), None);
    }
}
