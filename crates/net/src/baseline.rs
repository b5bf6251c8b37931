//! The MINOS-B machine model: protocol on host CPUs, plain NICs.
//!
//! Every protocol step runs on host cores; every message pays PCIe both
//! ways plus the NIC send cost and the network link.

use crate::arch::Arch;
use crate::driver::{CompletionKind, CompletionRec};
use crate::sim::{BSim, CostModel};
use crate::timing::{self, DISPATCH_NS};
use minos_core::obs::{GaugeKind, GaugeSet};
use minos_core::runtime::{self, ActionSink, Baseline, Dispatcher, Transport};
use minos_core::{Action, DelayClass, Event, NodeEngine, ReqId, Side};
use minos_sim::{CorePool, DepthTracker, EventQueue, Resource, Time};
use minos_types::wire::TraceCtx;
use minos_types::{Key, Message, MessageKind, NodeId, ScopeId, SimConfig, Ts, Value};
use std::collections::HashMap;

/// Per-node sender-side hardware resources. The receive-side PCIe
/// resources live in a separate array on [`HostMachine`] so a dispatch
/// handler can borrow its own node's sender resources and every peer's
/// receiver at once.
#[derive(Debug, Clone)]
struct NodeRes {
    cores: CorePool,
    /// Host→NIC PCIe bandwidth (one direction).
    pcie_tx: Resource,
    /// NIC send engine (serializes outgoing messages).
    nic_tx: Resource,
    /// Telemetry companion: host send-queue (PCIe submission) depth.
    pcie_depth: DepthTracker,
    /// Telemetry companion: NIC wire-TX queue depth.
    nic_depth: DepthTracker,
}

/// Per-write instrumentation for the Figure 4 communication/computation
/// breakdown (§IV).
#[derive(Debug, Clone, Copy, Default)]
struct TxTrace {
    first_inv_deposit: Time,
    last_ack_arrival: Time,
    foll_handle_total: Time,
    foll_handles: u32,
}

/// The MINOS-B machine: per-node sender resources, the receive-side
/// PCIe buses, and the per-write Figure 4 instrumentation.
#[derive(Debug)]
pub struct HostMachine {
    nodes: Vec<NodeRes>,
    /// NIC→host PCIe bandwidth, indexed by receiving node.
    pcie_rx: Vec<Resource>,
    traces: HashMap<(Key, Ts), TxTrace>,
}

impl CostModel for Baseline {
    const OFFLOAD: bool = false;
    type Machine = HostMachine;

    fn machine(cfg: &SimConfig) -> HostMachine {
        HostMachine {
            nodes: (0..cfg.nodes)
                .map(|_| NodeRes {
                    cores: CorePool::new(cfg.host_cores),
                    pcie_tx: Resource::new(),
                    nic_tx: Resource::new(),
                    pcie_depth: DepthTracker::new(),
                    nic_depth: DepthTracker::new(),
                })
                .collect(),
            pcie_rx: vec![Resource::new(); cfg.nodes],
            traces: HashMap::new(),
        }
    }

    fn sample_queues(machine: &mut HostMachine, gauges: &mut GaugeSet, t: Time) {
        for (i, res) in machine.nodes.iter_mut().enumerate() {
            let node = i as u32;
            gauges.observe(
                GaugeKind::HostSendQueue,
                node,
                res.pcie_depth.depth(t) as u64,
            );
            gauges.observe(GaugeKind::NicSendQueue, node, res.nic_depth.depth(t) as u64);
        }
    }

    fn dispatch(sim: &mut BSim, t: Time, node: NodeId, ev: Event, ctx: Option<TraceCtx>) {
        // Instrumentation: acknowledgment arrivals close the comm window.
        if let Event::Message { msg, .. } = &ev {
            if msg.is_ack() {
                if let (Some(key), Some(ts)) = (msg.key(), msg.ts()) {
                    if let Some(tr) = sim.machine.traces.get_mut(&(key, ts)) {
                        tr.last_ack_arrival = tr.last_ack_arrival.max(t);
                    }
                }
            }
        }
        let inv_key = match &ev {
            Event::Message {
                msg: Message::Inv { key, ts, .. },
                ..
            } => Some((*key, *ts)),
            _ => None,
        };
        let (d, e, mut handler) = parts(sim, t, node, inv_key);
        d.dispatch_ctx(e, ev, ctx, &mut handler);
    }

    fn poke(sim: &mut BSim, t: Time) {
        for i in 0..sim.engines.len() {
            let node = NodeId(i as u16);
            if !sim.view.is_serving(node) {
                continue;
            }
            let mut out = Vec::new();
            sim.engines[i].poll_now(&mut out);
            if out.is_empty() {
                continue;
            }
            let (d, e, mut handler) = parts(sim, t, node, None);
            d.run_actions(e, out, &mut handler);
        }
    }
}

impl BSim {
    /// Disables RDLock snatching on every node (the §III-A design-choice
    /// ablation).
    pub fn disable_snatching(&mut self) {
        for e in &mut self.engines {
            e.set_snatch_enabled(false);
        }
    }
}

/// `node`'s interpreter and engine plus a handler over its resources —
/// one dispatch's worth of borrows.
fn parts(
    sim: &mut BSim,
    t: Time,
    node: NodeId,
    inv_key: Option<(Key, Ts)>,
) -> (&mut Dispatcher, &mut NodeEngine, BHandler<'_>) {
    let ni = node.0 as usize;
    let handler = BHandler {
        cfg: &sim.cfg,
        arch: sim.arch,
        node,
        t,
        end: t,
        inv_key,
        ctx: None,
        res: &mut sim.machine.nodes[ni],
        peer_rx: &mut sim.machine.pcie_rx,
        queue: &mut sim.queue,
        completions: &mut sim.completions,
        traces: &mut sim.machine.traces,
        gauges: &mut sim.gauges,
    };
    (&mut sim.dispatchers[ni], &mut sim.engines[ni], handler)
}

/// The DES dispatch handler for one event at one node: models the host
/// send queue → PCIe → NIC → wire → NIC → PCIe receive path and charges
/// compute to the node's core pool. Created fresh per dispatch.
struct BHandler<'a> {
    cfg: &'a SimConfig,
    arch: Arch,
    node: NodeId,
    /// Event arrival time.
    t: Time,
    /// Core-release time — when the emitted actions take effect. Set by
    /// [`ActionSink::begin`] once the compute charge is known.
    end: Time,
    inv_key: Option<(Key, Ts)>,
    /// The dispatching node's trace context, stamped onto every event
    /// this dispatch schedules.
    ctx: Option<TraceCtx>,
    res: &'a mut NodeRes,
    peer_rx: &'a mut [Resource],
    queue: &'a mut EventQueue<(NodeId, Event, Option<TraceCtx>)>,
    completions: &'a mut Vec<CompletionRec>,
    traces: &'a mut HashMap<(Key, Ts), TxTrace>,
    gauges: &'a mut GaugeSet,
}

impl BHandler<'_> {
    /// PCIe cost of one message: §IV — messages are "taken one at a time
    /// from the send queue, transferred along the slow PCIe bus", so the
    /// full latency+bandwidth time occupies the bus (no pipelining).
    fn pcie_msg_ns(&self, bytes: u64) -> Time {
        self.cfg.pcie_transfer_ns(bytes.max(64))
    }

    /// Occupies the host→NIC PCIe bus for `bytes` starting at `from`,
    /// feeding the send-queue-depth tracker and the PCIe-byte counter.
    fn pcie_tx(&mut self, from: Time, bytes: u64) -> Time {
        let done = self.res.pcie_tx.acquire(from, self.pcie_msg_ns(bytes));
        self.res.pcie_depth.on_acquire(done);
        self.gauges
            .add(GaugeKind::PcieBytes, u32::from(self.node.0), bytes.max(64));
        done
    }

    /// Occupies the NIC send engine, feeding the TX-queue-depth tracker.
    fn nic_tx(&mut self, from: Time, cost: Time) -> Time {
        let depart = self.res.nic_tx.acquire(from, cost);
        self.res.nic_depth.on_acquire(depart);
        depart
    }

    /// Wire + receiver-side path shared by unicast and fan-out.
    fn deliver(&mut self, to: NodeId, depart: Time, msg: Message) {
        let bytes = msg.wire_bytes();
        let arrival_nic = depart + timing::link_time(self.cfg, &msg);
        let cost = self.pcie_msg_ns(bytes);
        let arrival_host = self.peer_rx[to.0 as usize].acquire(arrival_nic, cost);
        self.gauges
            .add(GaugeKind::PcieBytes, u32::from(to.0), bytes.max(64));
        self.queue.schedule(
            arrival_host,
            (
                to,
                Event::Message {
                    from: self.node,
                    msg,
                },
                self.ctx,
            ),
        );
    }
}

impl Transport for BHandler<'_> {
    /// Delivers `msg` to `to`: host send queue → PCIe → NIC → wire →
    /// NIC → PCIe → host receive queue.
    fn send(&mut self, to: NodeId, msg: Message) {
        let bytes = msg.wire_bytes();
        let pcie_done = self.pcie_tx(self.end, bytes);
        let depart = self.nic_tx(pcie_done, timing::send_cost(self.cfg, &msg));
        self.deliver(to, depart, msg);
    }

    fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.ctx = ctx;
    }

    /// The Coordinator's INV/VAL fan-out, shaped by the batching and
    /// broadcast capabilities (§IV: "the multiple INV messages in a
    /// transaction are sent one at a time" on the baseline).
    fn broadcast(&mut self, dests: &[NodeId], msg: Message) {
        let deposit = self.end;
        // Open the Figure 4 communication window at the send-queue
        // deposit of the first INV.
        if msg.kind() == MessageKind::Inv {
            if let (Some(key), Some(ts)) = (msg.key(), msg.ts()) {
                let tr = self.traces.entry((key, ts)).or_default();
                if tr.first_inv_deposit == 0 {
                    tr.first_inv_deposit = deposit;
                }
            }
        }

        let bytes = msg.wire_bytes();
        let send = timing::send_cost(self.cfg, &msg);
        let gap = self.cfg.inter_msg_gap_ns;

        if self.arch.batching {
            // One descriptor (payload + an 8-byte entry per destination).
            let desc = bytes + 8 * dests.len() as u64;
            let pcie_done = self.pcie_tx(deposit, desc);
            self.gauges.observe(
                GaugeKind::BatchFill,
                u32::from(self.node.0),
                dests.len() as u64,
            );
            if self.arch.broadcast {
                // Deposit once; the broadcast FSM replicates on the wire.
                let depart = self.nic_tx(pcie_done, send);
                for &d in dests {
                    self.deliver(d, depart, msg.clone());
                }
            } else {
                // The NIC must unpack the batch, then send serially.
                let base = pcie_done + self.cfg.batch_unpack_ns;
                for &d in dests {
                    let depart = self.nic_tx(base, send + gap);
                    self.deliver(d, depart, msg.clone());
                }
            }
        } else {
            // One PCIe transfer per destination, serialized.
            let mut first = true;
            for &d in dests {
                let pcie_done = self.pcie_tx(deposit, bytes);
                let cost = if self.arch.broadcast {
                    // The FSM only pays the prepare cost once.
                    if first {
                        send
                    } else {
                        0
                    }
                } else {
                    send + gap
                };
                first = false;
                let depart = self.nic_tx(pcie_done, cost);
                self.deliver(d, depart, msg.clone());
            }
        }
    }
}

impl ActionSink for BHandler<'_> {
    fn begin(&mut self, actions: &[Action]) {
        // Charge compute: dispatch + every meta hint, on a host core.
        let cost: Time = DISPATCH_NS
            + runtime::meta_ops(actions)
                .map(|op| timing::meta_cost(self.cfg, Side::Host, *op))
                .sum::<Time>();
        self.end = self.res.cores.acquire(self.t, cost);

        if let Some(k) = self.inv_key {
            // The paper's comm measure subtracts the average time a
            // Follower takes to handle an INV (Lines 26-40), which
            // includes the critical-path NVM persist of Line 39.
            let persist: Time = runtime::foreground_persist_bytes(actions)
                .map(|bytes| self.cfg.persist_ns(bytes))
                .sum();
            let tr = self.traces.entry(k).or_default();
            tr.foll_handle_total += cost + persist;
            tr.foll_handles += 1;
        }
    }

    fn persist(&mut self, key: Key, ts: Ts, value: Value, _background: bool) {
        // The CloudLab machine emulates NVM by spinning the issuing core
        // for the persist latency (Table II), so the persist occupies a
        // host core rather than a device port.
        let d = self.cfg.persist_ns(value.len() as u64);
        let done = self.res.cores.acquire(self.end, d);
        self.queue
            .schedule(done, (self.node, Event::PersistDone { key, ts }, self.ctx));
    }

    fn redirect(&mut self, to: NodeId, event: Event) {
        // Client re-submission at a replica: one wire hop.
        let arrival = self.end
            + timing::link_time(
                self.cfg,
                &Message::ReadReq {
                    key: Key(0),
                    token: 0,
                },
            );
        self.queue.schedule(arrival, (to, event, self.ctx));
    }

    fn defer(&mut self, event: Event, _class: DelayClass) {
        self.queue.schedule(self.end, (self.node, event, self.ctx));
    }

    fn write_done(&mut self, req: ReqId, key: Key, ts: Ts, obsolete: bool) {
        let comm_ns = self.traces.remove(&(key, ts)).map(|tr| {
            let avg_handle = if tr.foll_handles > 0 {
                tr.foll_handle_total / Time::from(tr.foll_handles)
            } else {
                0
            };
            tr.last_ack_arrival
                .saturating_sub(tr.first_inv_deposit)
                .saturating_sub(avg_handle)
        });
        self.completions.push(CompletionRec {
            req,
            node: self.node,
            at: self.end,
            kind: CompletionKind::Write,
            key: Some(key),
            ts,
            obsolete,
            comm_ns,
        });
    }

    fn read_done(&mut self, req: ReqId, key: Key, _value: Value, ts: Ts) {
        self.completions.push(CompletionRec {
            req,
            node: self.node,
            at: self.end,
            kind: CompletionKind::Read,
            key: Some(key),
            ts,
            obsolete: false,
            comm_ns: None,
        });
    }

    fn persist_scope_done(&mut self, req: ReqId, _scope: ScopeId) {
        self.completions.push(CompletionRec {
            req,
            node: self.node,
            at: self.end,
            kind: CompletionKind::PersistScope,
            key: None,
            ts: Ts::zero(),
            obsolete: false,
            comm_ns: None,
        });
    }
}
