//! The system under check: a cluster of one protocol's engines plus the
//! set of deliverable events, written once over [`Protocol`].

use crate::explore::{explore, hash_debug, McReport, System, Violation};
use crate::invariants::{
    check_acked_visibility, check_bookkeeping, check_read_visibility, check_timestamp_staging,
    check_unlocked_agreement, legal_message, NodeView,
};
use crate::workload::{McOp, Workload};
use minos_core::runtime::Transport;
use minos_core::runtime::{ActionSink, Baseline, Engine, Interpreter, OSink, Offload, Protocol};
use minos_core::{DelayClass, Event, OEvent, PcieMsg, ReqId, Side};
use minos_types::{DdpModel, Key, Message, NodeId, ScopeId, Ts, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

#[derive(Clone)]
pub(crate) struct McSystem<P: Protocol> {
    model: DdpModel,
    engines: Vec<P::Engine>,
    /// Deliverable events: every interleaving of these is explored.
    inflight: Vec<(NodeId, P::Event)>,
    /// `[PERSIST]sc` ops staged until all writes complete.
    staged: Vec<(NodeId, ScopeId, ReqId)>,
    /// Seeded writes, reads and persists.
    expected: [usize; 3],
    /// Completed writes, reads and persists.
    done: [usize; 3],
    /// Violations detected while dispatching (illegal messages).
    dispatch_violations: Vec<Violation>,
}

const WRITES: usize = 0;
const READS: usize = 1;
const PERSISTS: usize = 2;

impl<P: Protocol> McSystem<P> {
    fn new(model: DdpModel, w: &Workload) -> Self {
        let mut sys = McSystem {
            model,
            engines: (0..w.nodes)
                .map(|i| P::engine(NodeId(i as u16), w.nodes, model))
                .collect(),
            inflight: Vec::new(),
            staged: Vec::new(),
            expected: [0; 3],
            done: [0; 3],
            dispatch_violations: Vec::new(),
        };
        for (i, op) in w.ops.iter().enumerate() {
            let req = ReqId(i as u64 + 1);
            match op.clone() {
                McOp::Write {
                    node,
                    key,
                    value,
                    scope,
                } => {
                    sys.expected[WRITES] += 1;
                    sys.inflight
                        .push((node, P::client_write(key, value, scope, req)));
                }
                McOp::Read { node, key } => {
                    sys.expected[READS] += 1;
                    sys.inflight.push((node, P::client_read(key, req)));
                }
                McOp::PersistScope { node, scope } => {
                    sys.expected[PERSISTS] += 1;
                    sys.staged.push((node, scope, req));
                }
            }
        }
        sys
    }

    fn keys(&self) -> BTreeSet<Key> {
        self.engines.iter().flat_map(Engine::keys).collect()
    }

    fn views(&self) -> Vec<NodeView> {
        let keys = self.keys();
        self.engines
            .iter()
            .map(|e| NodeView {
                node: e.node(),
                // Only replicated keys: non-replicas hold no copy to
                // compare (partial-replication extension).
                metas: keys
                    .iter()
                    .filter(|&&k| e.is_replica(k))
                    .map(|&k| (k, e.record_meta(k)))
                    .collect(),
                coord_txs: e.coord_tx_views(),
                quiescent: e.is_quiescent(),
            })
            .collect()
    }
}

impl McSystem<Baseline> {
    /// MINOS-B with its two ablation knobs: RDLock snatching and the
    /// partial-replication factor. Every MINOS-B check goes through
    /// here, defaults included: the setters mark the engines dirty,
    /// which is part of the state fingerprint, so skipping them would
    /// shift the explored-state counts the verification tests pin.
    fn with_options(model: DdpModel, w: &Workload, snatch: bool, replication: Option<u16>) -> Self {
        let mut sys = Self::new(model, w);
        for e in &mut sys.engines {
            e.set_snatch_enabled(snatch);
            e.set_replication_factor(replication);
        }
        sys
    }
}

/// Dispatch handler for one model-checker transition: every effect —
/// messages, persists, PCIe descriptors, FIFO drains, deferrals —
/// becomes a deliverable in-flight event (every interleaving of which is
/// explored), and each send is audited against the Table I condition 4a
/// legal message set for the model under check.
pub(crate) struct McHandler<'a, P: Protocol> {
    model: DdpModel,
    node: NodeId,
    inflight: &'a mut Vec<(NodeId, P::Event)>,
    violations: &'a mut Vec<Violation>,
    done: &'a mut [usize; 3],
}

impl<P: Protocol> McHandler<'_, P> {
    fn audit(&mut self, msg: &Message, verb: &str) {
        if !legal_message(self.model, msg) {
            self.violations.push(Violation {
                condition: "4a legal message set".into(),
                detail: format!("{} {verb} {msg} under {}", self.node, self.model),
            });
        }
    }

    /// Makes `event` deliverable at this node.
    fn local(&mut self, event: P::Event) {
        self.inflight.push((self.node, event));
    }
}

impl<P: Protocol> Transport for McHandler<'_, P> {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.audit(&msg, "sent");
        self.inflight.push((to, P::net_message(self.node, msg)));
    }

    fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
        self.audit(&msg, "fanned out");
        for &to in dests {
            self.inflight
                .push((to, P::net_message(self.node, msg.clone())));
        }
    }
}

impl ActionSink for McHandler<'_, Baseline> {
    fn persist(&mut self, key: Key, ts: Ts, _value: Value, _background: bool) {
        self.local(Event::PersistDone { key, ts });
    }

    fn redirect(&mut self, to: NodeId, event: Event) {
        self.inflight.push((to, event));
    }

    fn defer(&mut self, event: Event, _class: DelayClass) {
        self.local(event);
    }

    fn write_done(&mut self, _req: ReqId, _key: Key, _ts: Ts, _obsolete: bool) {
        self.done[WRITES] += 1;
    }

    fn read_done(&mut self, _req: ReqId, _key: Key, _value: Value, _ts: Ts) {
        self.done[READS] += 1;
    }

    fn persist_scope_done(&mut self, _req: ReqId, _scope: ScopeId) {
        self.done[PERSISTS] += 1;
    }
}

impl OSink for McHandler<'_, Offload> {
    fn pcie(&mut self, from: Side, msg: PcieMsg) {
        self.local(match from {
            Side::Host => OEvent::PcieFromHost(msg),
            Side::Snic => OEvent::PcieFromSnic(msg),
        });
    }

    fn vfifo_enqueue(&mut self, key: Key, ts: Ts, _bytes: u64) {
        self.local(OEvent::VfifoDrained { key, ts });
    }

    fn dfifo_enqueue(&mut self, key: Key, ts: Ts, _bytes: u64) {
        self.local(OEvent::DfifoDrained { key, ts });
    }

    fn defer(&mut self, event: OEvent) {
        self.local(event);
    }

    fn write_done(&mut self, _req: ReqId, _key: Key, _ts: Ts, _obsolete: bool) {
        self.done[WRITES] += 1;
    }

    fn read_done(&mut self, _req: ReqId, _key: Key, _value: Value, _ts: Ts) {
        self.done[READS] += 1;
    }

    fn persist_scope_done(&mut self, _req: ReqId, _scope: ScopeId) {
        self.done[PERSISTS] += 1;
    }
}

/// A [`Protocol`] the checker can step: the one place where
/// [`McSystem`] must know which sink its handler implements.
pub(crate) trait McProtocol: Protocol {
    fn dispatch(engine: &mut Self::Engine, event: Self::Event, handler: &mut McHandler<'_, Self>);
}

impl McProtocol for Baseline {
    fn dispatch(engine: &mut Self::Engine, event: Event, handler: &mut McHandler<'_, Self>) {
        // A fresh interpreter per transition: the checker explores a tree
        // of cloned states, so cumulative statistics are meaningless.
        Interpreter::<Self>::new().dispatch(engine, event, handler);
    }
}

impl McProtocol for Offload {
    fn dispatch(engine: &mut Self::Engine, event: OEvent, handler: &mut McHandler<'_, Self>) {
        Interpreter::<Self>::new().dispatch(engine, event, handler);
    }
}

impl<P: McProtocol> System for McSystem<P> {
    fn deliverable(&self) -> usize {
        self.inflight.len()
    }

    fn deliver(&self, i: usize) -> Self {
        let mut next = self.clone();
        let (node, ev) = next.inflight.remove(i);
        let mut handler = McHandler {
            model: next.model,
            node,
            inflight: &mut next.inflight,
            violations: &mut next.dispatch_violations,
            done: &mut next.done,
        };
        P::dispatch(&mut next.engines[node.0 as usize], ev, &mut handler);
        // Clients issue [PERSIST]sc only after their writes returned.
        if next.done[WRITES] == next.expected[WRITES] && !next.staged.is_empty() {
            for (node, scope, req) in std::mem::take(&mut next.staged) {
                next.inflight
                    .push((node, P::client_persist_scope(scope, req)));
            }
        }
        next
    }

    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for e in &self.engines {
            e.hash(&mut h);
        }
        let mut pending: Vec<String> = self
            .inflight
            .iter()
            .map(|(n, ev)| format!("{n}:{ev:?}"))
            .collect();
        pending.sort_unstable();
        for p in &pending {
            h.write(p.as_bytes());
        }
        hash_debug(&mut h, &self.staged);
        for n in self.done {
            h.write_usize(n);
        }
        h.finish()
    }

    fn check_state(&self, out: &mut Vec<Violation>) {
        out.extend(self.dispatch_violations.iter().cloned());
        let views = self.views();
        check_timestamp_staging(self.model, &views, out);
        check_acked_visibility(&views, out);
        check_read_visibility(&views, out);
        check_bookkeeping(self.engines.len(), &views, out);
    }

    fn check_terminal(&self, out: &mut Vec<Violation>) {
        // Agreement conditions 2(a)/3(a) are exact at terminal states.
        check_unlocked_agreement(self.model, &self.views(), out);
        // 1. No deadlock: a terminal state must be fully quiescent with
        // every seeded operation completed.
        for e in &self.engines {
            if !e.is_quiescent() {
                out.push(Violation {
                    condition: "1 deadlock freedom".into(),
                    detail: format!("terminal state but {} is not quiescent", e.node()),
                });
            }
        }
        if self.done != self.expected {
            out.push(Violation {
                condition: "1 completion".into(),
                detail: format!(
                    "terminal state completed {}/{} writes, {}/{} reads, {}/{} persists",
                    self.done[WRITES],
                    self.expected[WRITES],
                    self.done[READS],
                    self.expected[READS],
                    self.done[PERSISTS],
                    self.expected[PERSISTS]
                ),
            });
        }
        // Replica convergence: every record equal across its replicas.
        for key in self.keys() {
            let mut values = self
                .engines
                .iter()
                .filter(|e| e.is_replica(key))
                .map(|e| (e.node(), e.record_value(key)));
            if let Some((_, v0)) = values.next() {
                for (n, v) in values {
                    if v != v0 {
                        out.push(Violation {
                            condition: "terminal replica convergence".into(),
                            detail: format!("{key} diverges at {n}"),
                        });
                    }
                }
            }
        }
    }
}

/// Model-checks MINOS-B under `model` on `workload`, exploring up to
/// `max_states` distinct states.
#[must_use]
pub fn check_baseline(model: DdpModel, workload: &Workload, max_states: usize) -> McReport {
    explore(
        McSystem::<Baseline>::with_options(model, workload, true, None),
        max_states,
    )
}

/// Model-checks the partial-replication extension: each record lives on
/// `k` nodes; writes redirect and reads forward. The same Table I
/// invariants are checked, with agreement restricted to replicas.
#[must_use]
pub fn check_baseline_replicated(
    model: DdpModel,
    workload: &Workload,
    k: u16,
    max_states: usize,
) -> McReport {
    explore(
        McSystem::<Baseline>::with_options(model, workload, true, Some(k)),
        max_states,
    )
}

/// Fault injection: model-checks MINOS-B with the §III-A RDLock-snatching
/// rule disabled. The read-visibility invariant (condition 2d) is
/// expected to catch the resulting exposure of unacknowledged writes —
/// this validates both the checker and the paper's design rationale.
#[must_use]
pub fn check_baseline_no_snatch(
    model: DdpModel,
    workload: &Workload,
    max_states: usize,
) -> McReport {
    explore(
        McSystem::<Baseline>::with_options(model, workload, false, None),
        max_states,
    )
}

/// Model-checks MINOS-O under `model` on `workload`, exploring up to
/// `max_states` distinct states.
#[must_use]
pub fn check_offload(model: DdpModel, workload: &Workload, max_states: usize) -> McReport {
    explore(McSystem::<Offload>::new(model, workload), max_states)
}
