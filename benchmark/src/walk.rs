//! The layer walk: where an op's CPU time goes.
//!
//! The first [`WALK_OPS`] ops of the `tcp-ycsb-a` stream are replayed
//! through three hand-wired `NodeEngine`s on one thread, with this file
//! playing the transport the way the TCP runtime does without batching:
//! every `Send`/`SendToFollowers` is encoded per destination with
//! `encode_peer_frame_ctx_into`, decoded with `decode_peer_frame_ctx` and
//! fed to the destination's `on_event`; every `Persist` goes through
//! `DurableState::persist` + `encode_entries` and comes back as
//! `PersistDone`; `Defer` re-enters locally. That is everything the TCP
//! runtime does for an op except syscalls, thread hand-offs and timers.
//!
//! Each call into a layer is a span pushed to a preallocated buffer and
//! reduced after the loop. The calls of one op are children of its root
//! span; a span's self time is its duration minus its children's.
//!
//! Ops are traced in alternating pairs: two ops record every layer call,
//! the next two record their root span only. The second kind gives the
//! cost of an op that no child span has touched, under the same cache
//! and machine noise as the first — which is what the layer self times
//! of the first kind have to add up to.

use crate::live::CLIENTS;
use crate::ops;
use crate::tcp::NODES;
use minos_core::{Action, Event, NodeEngine, ReqId};
use minos_kv::DurableState;
use minos_nvm::{encode_entries, LogEntry};
use minos_types::wire::{decode_peer_frame_ctx, encode_peer_frame_ctx_into};
use minos_types::{DdpModel, Key, Message, NodeId, PersistencyModel, Ts, Value};
use minos_workload::Op;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

pub const WALK_OPS: usize = 20_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum Layer {
    /// One whole op; its self time is this file's own queue handling.
    Root,
    EngineCoord,
    EngineFoll,
    EncodeInv,
    DecodeInv,
    EncodeAck,
    DecodeAck,
    /// VAL frames: sent after the client has its reply.
    EncodeVal,
    DecodeVal,
    KvPersist,
    NvmEncode,
    /// Zero-length marker: the coordinator emitted `WriteDone` here.
    Done,
}
const LAYERS: usize = Layer::Done as usize + 1;

#[derive(Clone, Copy)]
struct Span {
    op: u32,
    layer: Layer,
    node: u8,
    start_ns: u64,
    end_ns: u64,
    /// Index of the op's root span ([`NO_PARENT`] for a root).
    parent: u32,
}
const NO_PARENT: u32 = u32::MAX;

struct SpanBuf {
    t0: Instant,
    spans: Vec<Span>,
    op: u32,
    root: u32,
    /// Off for the ops that record their root span only.
    children: bool,
}

impl SpanBuf {
    fn new(capacity: usize) -> Self {
        // Touch every page now: a first write that faults one in would
        // charge the fault to whichever span was open.
        let blank = Span {
            op: 0,
            layer: Layer::Root,
            node: 0,
            start_ns: 0,
            end_ns: 0,
            parent: NO_PARENT,
        };
        let mut spans = vec![blank; capacity];
        spans.clear();
        SpanBuf {
            t0: Instant::now(),
            spans,
            op: 0,
            root: NO_PARENT,
            children: true,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn span<R>(&mut self, layer: Layer, node: usize, f: impl FnOnce() -> R) -> R {
        if !self.children {
            return f();
        }
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.spans.push(Span {
            op: self.op,
            layer,
            node: node as u8,
            start_ns,
            end_ns,
            parent: self.root,
        });
        r
    }
}

/// Per-layer and whole-op results, in ns (means over the ops of a kind).
#[derive(Default, Debug)]
pub struct WalkResult {
    pub writes: u64,
    pub reads: u64,
    pub incorrect: u64,
    /// Full cost of recording one empty span.
    pub span_overhead_ns: f64,
    pub cpu_ns_per_write: f64,
    pub cpu_ns_per_read: f64,
    pub critical_ns_per_write: f64,
    /// Σ layer self times per write over the fully traced ops, to set
    /// against `cpu_ns_per_write` from the root-only ops: the spans tile
    /// when the two agree.
    pub layer_sum_ns_per_write: f64,
    /// Whole-loop wall time ÷ Σ root spans − 1: what the spans miss.
    pub untraced_share: f64,
    pub encode_inv_ns: f64,
    pub decode_inv_ns: f64,
    pub encode_ack_ns: f64,
    pub decode_ack_ns: f64,
    pub frames_per_write: f64,
    pub bytes_per_write: f64,
    pub on_event_ns: f64,
    pub events_per_write: f64,
    pub actions_per_write: f64,
    pub coord_ns_per_write: f64,
    pub foll_ns_per_write: f64,
    pub read_ns: f64,
    pub kv_persist_ns: f64,
    pub nvm_encode_entry_ns: f64,
    pub persists_per_write: f64,
    /// `(layer, self ns per write)`, the README's budget table.
    pub self_ns_per_write: Vec<(&'static str, f64)>,
}

fn wire_layers(msg: &Message) -> (Layer, Layer) {
    match msg {
        Message::Inv { .. } => (Layer::EncodeInv, Layer::DecodeInv),
        Message::Ack { .. } => (Layer::EncodeAck, Layer::DecodeAck),
        _ => (Layer::EncodeVal, Layer::DecodeVal),
    }
}

/// Cost of an empty span: `(full cost, measured duration)` in ns.
fn span_overhead() -> (f64, f64) {
    const N: usize = 200_000;
    let mut buf = SpanBuf::new(N);
    let t0 = Instant::now();
    for _ in 0..N {
        buf.span(Layer::Done, 0, || black_box(()));
    }
    let full = t0.elapsed().as_nanos() as f64 / N as f64;
    let measured: u64 = buf.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
    (full, measured as f64 / N as f64)
}

pub fn run(seed: u64) -> WalkResult {
    let model = DdpModel::lin(PersistencyModel::Synchronous);
    let mut engines: Vec<NodeEngine> = (0..NODES)
        .map(|n| NodeEngine::new(NodeId(n as u16), NODES, model))
        .collect();
    let mut durable: Vec<DurableState> = (0..NODES).map(|_| DurableState::new()).collect();
    let preload = ops::preload_entries();
    for n in 0..NODES {
        durable[n].replay(&preload);
        for e in &preload {
            engines[n].install_recovered(e.key, e.ts, e.value.clone());
        }
    }

    // The same two client streams `tcp-ycsb-a` draws from, interleaved:
    // client 0 at node 0, client 1 at node 1.
    let mut streams: Vec<_> = (0..CLIENTS)
        .map(|c| ops::client_stream(seed, c, 0.5))
        .collect();
    let mut seq = [0u64; CLIENTS as usize];

    let mut buf = SpanBuf::new(WALK_OPS * 20);
    let mut queue: VecDeque<(usize, Event)> = VecDeque::new();
    let mut actions: Vec<Action> = Vec::new();
    let mut frame: Vec<u8> = Vec::new();
    let mut is_write = Vec::with_capacity(WALK_OPS);
    let mut acked: Vec<(Key, Ts)> = Vec::new();
    let (mut incorrect, mut wire_bytes, mut n_actions) = (0u64, 0u64, 0u64);

    let loop_t0 = Instant::now();
    for i in 0..WALK_OPS {
        let client = i % CLIENTS as usize;
        let coord = client;
        let req = ReqId(i as u64 + 1);
        let op = streams[client].next_op();
        let key = op.key();
        let write = op.is_write();
        is_write.push(write);
        let first = match op {
            Op::Write { .. } => {
                seq[client] += 1;
                let value = Value::from(ops::stamp(key.0, client as u32, seq[client]));
                Event::ClientWrite {
                    key,
                    value,
                    scope: None,
                    req,
                }
            }
            Op::Read { .. } => Event::ClientRead { key, req },
        };
        let mut completed = false;

        buf.op = i as u32;
        buf.children = (i / 2) % 2 == 0;
        buf.root = NO_PARENT;
        let root_at = buf.spans.len();
        let root_start = buf.now();
        // Placeholder, closed below; children point at it.
        buf.spans.push(Span {
            op: buf.op,
            layer: Layer::Root,
            node: coord as u8,
            start_ns: root_start,
            end_ns: root_start,
            parent: NO_PARENT,
        });
        buf.root = root_at as u32;

        queue.push_back((coord, first));
        while let Some((node, ev)) = queue.pop_front() {
            let layer = if node == coord {
                Layer::EngineCoord
            } else {
                Layer::EngineFoll
            };
            buf.span(layer, node, || engines[node].on_event(ev, &mut actions));
            n_actions += actions.len() as u64 * u64::from(write);
            for act in actions.drain(..) {
                match act {
                    Action::Send { to, msg } => {
                        wire_bytes += relay(&mut buf, &mut frame, &mut queue, node, to, &msg);
                    }
                    Action::SendToFollowers { msg } => {
                        for to in (0..NODES).filter(|&to| to != node) {
                            wire_bytes += relay(
                                &mut buf,
                                &mut frame,
                                &mut queue,
                                node,
                                NodeId(to as u16),
                                &msg,
                            );
                        }
                    }
                    Action::Persist { key, ts, value, .. } => {
                        let lsn = buf.span(Layer::KvPersist, node, || {
                            durable[node].persist(key, ts, value.clone())
                        });
                        let entry = [LogEntry {
                            lsn,
                            key,
                            ts,
                            value,
                        }];
                        let bytes = buf.span(Layer::NvmEncode, node, || encode_entries(&entry));
                        black_box(bytes);
                        queue.push_back((node, Event::PersistDone { key, ts }));
                    }
                    Action::Defer { event, .. } => queue.push_back((node, event)),
                    Action::WriteDone { key, ts, .. } => {
                        buf.span(Layer::Done, node, || ());
                        acked.push((key, ts));
                        completed = true;
                    }
                    Action::ReadDone { key, value, .. } => {
                        completed = ops::is_valid_value(&value, key.0, CLIENTS);
                    }
                    Action::PersistScopeDone { .. } | Action::Redirect { .. } | Action::Meta(_) => {
                    }
                }
            }
        }
        buf.spans[root_at].end_ns = buf.now();
        incorrect += u64::from(!completed);
    }
    let loop_ns = loop_t0.elapsed().as_nanos() as f64;

    // <Lin, Synch>: every acked write is durable on all three nodes.
    for &(key, ts) in &acked {
        incorrect += durable
            .iter()
            .filter(|d| d.durable(key).is_none_or(|(have, _)| *have < ts))
            .count() as u64;
    }
    let mut r = reduce(&buf.spans, &is_write, loop_ns);
    r.incorrect = incorrect;
    r.bytes_per_write = wire_bytes as f64 / r.writes.max(1) as f64;
    r.actions_per_write = n_actions as f64 / r.writes.max(1) as f64;
    r
}

/// Encodes `msg` as one frame from `from`, decodes it, queues the decoded
/// messages for `to`. Returns the bytes the frame takes on a socket.
fn relay(
    buf: &mut SpanBuf,
    frame: &mut Vec<u8>,
    queue: &mut VecDeque<(usize, Event)>,
    from: usize,
    to: NodeId,
    msg: &Message,
) -> u64 {
    let (enc, dec) = wire_layers(msg);
    let from_id = NodeId(from as u16);
    buf.span(enc, from, || {
        encode_peer_frame_ctx_into(from_id, std::slice::from_ref(msg), None, frame);
    });
    let (sender, msgs, _ctx) = buf
        .span(dec, to.0 as usize, || decode_peer_frame_ctx(frame))
        .expect("frame just encoded");
    for msg in msgs {
        queue.push_back((to.0 as usize, Event::Message { from: sender, msg }));
    }
    frame.len() as u64 + 4 // the u32 length prefix
}

fn reduce(spans: &[Span], is_write: &[bool], loop_ns: f64) -> WalkResult {
    let (overhead_full, overhead_measured) = span_overhead();
    let mut r = WalkResult {
        span_overhead_ns: overhead_full,
        writes: is_write.iter().filter(|w| **w).count() as u64,
        ..WalkResult::default()
    };
    r.reads = is_write.len() as u64 - r.writes;
    let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 - overhead_measured;

    // Fully traced writes: Σ corrected durations and span counts per
    // layer (`Root`: the op without the spans that measured it).
    let mut sum = [0f64; LAYERS];
    let mut count = [0u64; LAYERS];
    let mut critical = 0f64;
    // Root-only ops, `[read, write]`: Σ durations and op counts.
    let mut plain_ns = [0f64; 2];
    let mut plain_ops = [0u64; 2];
    let (mut read_engine, mut traced_reads, mut root_total) = (0f64, 0u64, 0f64);

    let mut i = 0;
    while i < spans.len() {
        let root = spans[i];
        debug_assert_eq!(root.layer, Layer::Root);
        let mut j = i + 1;
        while j < spans.len() && spans[j].parent == i as u32 {
            j += 1;
        }
        let children = &spans[i + 1..j];
        i = j;
        root_total += (root.end_ns - root.start_ns) as f64;
        let write = is_write[root.op as usize];
        if children.is_empty() {
            plain_ns[usize::from(write)] += dur(&root);
            plain_ops[usize::from(write)] += 1;
        } else if write {
            sum[Layer::Root as usize] +=
                (root.end_ns - root.start_ns) as f64 - children.len() as f64 * overhead_full;
            count[Layer::Root as usize] += 1;
            let done_at = children
                .iter()
                .find(|s| s.layer == Layer::Done)
                .map_or(u64::MAX, |s| s.start_ns);
            let mut before_done = [0f64; NODES];
            for s in children.iter().filter(|s| s.layer != Layer::Done) {
                sum[s.layer as usize] += dur(s);
                count[s.layer as usize] += 1;
                if s.start_ns < done_at {
                    before_done[s.node as usize] += dur(s);
                }
            }
            // Coordinator, then the slower follower, then coordinator.
            let coord = root.node as usize;
            let slowest = (0..NODES)
                .filter(|&n| n != coord)
                .map(|n| before_done[n])
                .fold(0.0, f64::max);
            critical += before_done[coord] + slowest;
        } else {
            read_engine += children.iter().map(dur).sum::<f64>();
            traced_reads += 1;
        }
    }

    let w = count[Layer::Root as usize].max(1) as f64;
    let mean = |l: Layer| sum[l as usize] / count[l as usize].max(1) as f64;
    let per_write = |l: Layer| sum[l as usize] / w;
    let engine_sum = sum[Layer::EngineCoord as usize] + sum[Layer::EngineFoll as usize];
    let engine_count = count[Layer::EngineCoord as usize] + count[Layer::EngineFoll as usize];
    let wire_frames: u64 = [Layer::EncodeInv, Layer::EncodeAck, Layer::EncodeVal]
        .iter()
        .map(|&l| count[l as usize])
        .sum();

    r.cpu_ns_per_write = plain_ns[1] / plain_ops[1].max(1) as f64;
    r.cpu_ns_per_read = plain_ns[0] / plain_ops[0].max(1) as f64;
    r.read_ns = read_engine / traced_reads.max(1) as f64;
    r.critical_ns_per_write = critical / w;
    r.untraced_share = loop_ns / root_total - 1.0;
    r.encode_inv_ns = mean(Layer::EncodeInv);
    r.decode_inv_ns = mean(Layer::DecodeInv);
    r.encode_ack_ns = mean(Layer::EncodeAck);
    r.decode_ack_ns = mean(Layer::DecodeAck);
    r.frames_per_write = wire_frames as f64 / w;
    r.on_event_ns = engine_sum / engine_count.max(1) as f64;
    r.events_per_write = engine_count as f64 / w;
    r.coord_ns_per_write = per_write(Layer::EngineCoord);
    r.foll_ns_per_write = per_write(Layer::EngineFoll);
    r.kv_persist_ns = mean(Layer::KvPersist);
    r.nvm_encode_entry_ns = mean(Layer::NvmEncode);
    r.persists_per_write = count[Layer::KvPersist as usize] as f64 / w;

    let wire = |a: Layer, b: Layer, c: Layer| per_write(a) + per_write(b) + per_write(c);
    let children_sum: f64 = (1..LAYERS).map(|l| sum[l] / w).sum();
    r.self_ns_per_write = vec![
        (
            "minos-core engine, coordinator",
            per_write(Layer::EngineCoord),
        ),
        ("minos-core engine, followers", per_write(Layer::EngineFoll)),
        (
            "minos-types::wire encode",
            wire(Layer::EncodeInv, Layer::EncodeAck, Layer::EncodeVal),
        ),
        (
            "minos-types::wire decode",
            wire(Layer::DecodeInv, Layer::DecodeAck, Layer::DecodeVal),
        ),
        ("minos-kv persist", per_write(Layer::KvPersist)),
        ("minos-nvm encode entry", per_write(Layer::NvmEncode)),
        (
            "walk harness (root self time)",
            per_write(Layer::Root) - children_sum,
        ),
    ];
    r.layer_sum_ns_per_write = r.self_ns_per_write.iter().map(|(_, ns)| ns).sum();
    r
}
