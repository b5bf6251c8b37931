//! Chrome Trace Format / Perfetto JSON export.
//!
//! Turns a [`TraceRecord`] stream into a trace that `chrome://tracing`
//! or [ui.perfetto.dev](https://ui.perfetto.dev) renders directly:
//!
//! * one **process** per node, one **thread lane** per client request,
//! * a `B`/`E` span per operation (admit → complete), with the Fig-4
//!   critical-path categories as nested child slices that tile the op
//!   interval exactly,
//! * **flow arrows** from each coordinator fan-out to the follower
//!   `msg_received` events it caused (the INV/VAL propagation picture),
//! * `C` counter tracks for vFIFO/dFIFO occupancy reconstructed from
//!   the enqueue/drain events (MINOS-O traces).
//!
//! Timestamps convert from trace nanoseconds to Chrome's microsecond
//! doubles with 1 ns resolution (three decimals).

use super::json::escape;
use super::replay::{analyze, Timeline};
use super::{TraceEvent, TraceRecord};
use minos_types::ShardMap;
use std::fmt::Write as _;

/// The `tid` used for per-node lanes that are not tied to one request
/// (network receive slices, counter tracks).
const NET_LANE: u64 = 0;

/// How trace events map onto Perfetto processes and thread lanes.
///
/// The default layout is one process per node. The sharded layout groups
/// nodes of the same shard replica group into one process so each group
/// renders as its own track lane block.
struct Layout<'a> {
    map: Option<&'a ShardMap>,
}

/// Process-id base for shard-group processes, keeping them clear of the
/// per-node pid space.
const GROUP_PID_BASE: u64 = 10_000;

/// Lane stride reserving a tid block per node inside a shared group
/// process (request ids stay far below this in any realistic trace).
const NODE_LANE_STRIDE: u64 = 1_000_000;

impl Layout<'_> {
    fn pid(&self, node: u16) -> u64 {
        match self.map {
            None => u64::from(node),
            Some(map) => {
                let shards = map.shards_on(minos_types::NodeId(node));
                match shards.first() {
                    Some(s) => GROUP_PID_BASE + u64::from(map.group_of(*s).0),
                    // A node serving no shard keeps its own process.
                    None => u64::from(node),
                }
            }
        }
    }

    fn tid(&self, node: u16, lane: u64) -> u64 {
        match self.map {
            None => lane,
            Some(_) => u64::from(node) * NODE_LANE_STRIDE + lane,
        }
    }

    fn lane_name(&self, node: u16, name: &str) -> String {
        match self.map {
            None => name.to_string(),
            Some(_) => format!("n{node} {name}"),
        }
    }
}

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// One Chrome Trace event, hand-formatted.
fn push_event(out: &mut String, body: &str) {
    if !out.is_empty() {
        out.push_str(",\n");
    }
    out.push(' ');
    out.push_str(body);
}

fn op_slice_name(op: &Timeline) -> String {
    let mut name = op.op.label().to_string();
    if let Some(k) = op.key {
        let _ = write!(name, " k{}", k.0);
    }
    if op.obsolete {
        name.push_str(" (obsolete)");
    }
    name
}

/// Exports `records` as a complete Chrome Trace Format JSON document
/// (the object form: `{"traceEvents": [...], "displayTimeUnit": "ns"}`).
///
/// `records` must carry coherent timestamps (one clock domain); merge
/// and sort multi-node JSONL files by `at_ns` first, as `minos-trace`
/// does.
#[must_use]
pub fn export(records: &[TraceRecord]) -> String {
    render(records, &Layout { map: None })
}

/// Like [`export`], but lays tracks out by shard group: all nodes of one
/// replica group share a Perfetto process (`shard group g`), so each
/// group renders as its own track lane block with per-node sub-lanes.
#[must_use]
pub fn export_sharded(records: &[TraceRecord], map: &ShardMap) -> String {
    render(records, &Layout { map: Some(map) })
}

fn render(records: &[TraceRecord], layout: &Layout<'_>) -> String {
    let ops = analyze(records);
    let mut ev = String::new();

    // Process / thread naming metadata.
    let mut nodes: Vec<u16> = records.iter().map(|r| r.node.0).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut named_pids: Vec<u64> = Vec::new();
    for n in &nodes {
        let pid = layout.pid(*n);
        if !named_pids.contains(&pid) {
            named_pids.push(pid);
            let pname = match layout.map {
                None => format!("node {n}"),
                Some(map) => match map.shards_on(minos_types::NodeId(*n)).first() {
                    Some(s) => format!("shard group {}", map.group_of(*s).0),
                    None => format!("node {n}"),
                },
            };
            push_event(
                &mut ev,
                &format!(
                    r#"{{"ph":"M","pid":{pid},"tid":0,"name":"process_name","args":{{"name":"{}"}}}}"#,
                    escape(&pname),
                ),
            );
        }
        push_event(
            &mut ev,
            &format!(
                r#"{{"ph":"M","pid":{pid},"tid":{},"name":"thread_name","args":{{"name":"{}"}}}}"#,
                layout.tid(*n, NET_LANE),
                escape(&layout.lane_name(*n, "net/counters")),
            ),
        );
    }

    // Per-op spans with nested critical-path slices. Lane = req id + 1
    // (so the shared NET_LANE stays free). `analyze` works on the one
    // clock, so an op's window is its raw timestamps.
    for op in &ops {
        let pid = layout.pid(op.coordinator.0);
        let tid = layout.tid(op.coordinator.0, op.req.0 + 1);
        let start_ns = op.admit_ns.unsigned_abs();
        push_event(
            &mut ev,
            &format!(
                r#"{{"ph":"M","pid":{pid},"tid":{tid},"name":"thread_name","args":{{"name":"{}"}}}}"#,
                escape(&layout.lane_name(op.coordinator.0, &format!("req {}", op.req.0))),
            ),
        );
        push_event(
            &mut ev,
            &format!(
                r#"{{"ph":"B","pid":{pid},"tid":{tid},"ts":{},"name":"{}","cat":"op"}}"#,
                us(start_ns),
                escape(&op_slice_name(op)),
            ),
        );
        let mut cursor = start_ns;
        for &(cat, dur) in &op.segments {
            if dur > 0 {
                push_event(
                    &mut ev,
                    &format!(
                        r#"{{"ph":"B","pid":{pid},"tid":{tid},"ts":{},"name":"{}","cat":"critical-path"}}"#,
                        us(cursor),
                        cat.label(),
                    ),
                );
                push_event(
                    &mut ev,
                    &format!(
                        r#"{{"ph":"E","pid":{pid},"tid":{tid},"ts":{}}}"#,
                        us(cursor + dur),
                    ),
                );
            }
            cursor += dur;
        }
        push_event(
            &mut ev,
            &format!(
                r#"{{"ph":"E","pid":{pid},"tid":{tid},"ts":{}}}"#,
                us(start_ns + op.total_ns()),
            ),
        );
    }

    // Flow arrows: coordinator fan-out → the msg_received events it
    // caused on other nodes. Ctx-stamped traces pair *exactly* — a
    // receive binds to the fan-out whose dispatch span it names as
    // parent, and the arrow id is that span, so pairing is stable no
    // matter how many per-process shards were merged or in what order.
    // Unstamped (pre-tracing) records fall back to the nearest-receive
    // heuristic with sequential ids. Also thin receive slices on the
    // follower net lane for the arrows to terminate on.
    let mut flow_seq: u64 = 0;
    for (i, rec) in records.iter().enumerate() {
        let TraceEvent::FanOut { key, .. } = &rec.event else {
            continue;
        };
        // The op span this fan-out happened inside, for slice binding.
        let Some(op) = ops.iter().find(|o| {
            let start_ns = o.admit_ns.unsigned_abs();
            o.coordinator == rec.node
                && (start_ns..=start_ns + o.total_ns()).contains(&rec.at_ns)
                && (o.key == *key || key.is_none())
        }) else {
            continue;
        };
        let span = rec.meta.span;
        let flow_id = if span != 0 { span } else { flow_seq };
        let name = if rec.meta.trace_id != 0 {
            format!("fanout t{:x}", rec.meta.trace_id)
        } else {
            "fanout".to_string()
        };
        let mut seen: Vec<u16> = Vec::new();
        let mut arrows = String::new();
        for later in &records[i + 1..] {
            let TraceEvent::MsgReceived {
                from, key: rkey, ..
            } = &later.event
            else {
                continue;
            };
            if later.node == rec.node || seen.contains(&later.node.0) {
                continue;
            }
            let matched = if span != 0 {
                later.meta.parent == span
            } else {
                *from == rec.node && !(key.is_some() && rkey.is_some() && rkey != key)
            };
            if !matched {
                continue;
            }
            seen.push(later.node.0);
            let rpid = layout.pid(later.node.0);
            let rtid = layout.tid(later.node.0, NET_LANE);
            // A 1 ns receive slice so the flow terminator has a slice
            // to bind to.
            push_event(
                &mut arrows,
                &format!(
                    r#"{{"ph":"X","pid":{rpid},"tid":{rtid},"ts":{},"dur":0.001,"name":"recv","cat":"net"}}"#,
                    us(later.at_ns),
                ),
            );
            push_event(
                &mut arrows,
                &format!(
                    r#"{{"ph":"f","bp":"e","pid":{rpid},"tid":{rtid},"ts":{},"id":{flow_id},"name":"{name}","cat":"flow"}}"#,
                    us(later.at_ns),
                ),
            );
        }
        if !seen.is_empty() {
            push_event(
                &mut ev,
                &format!(
                    r#"{{"ph":"s","pid":{},"tid":{},"ts":{},"id":{flow_id},"name":"{name}","cat":"flow"}}"#,
                    layout.pid(rec.node.0),
                    layout.tid(rec.node.0, op.req.0 + 1),
                    us(rec.at_ns),
                ),
            );
            ev.push_str(",\n ");
            ev.push_str(&arrows);
            flow_seq += 1;
        }
    }

    // FIFO occupancy counter tracks (MINOS-O traces), reconstructed
    // from enqueue/drain pairs.
    let mut vfifo: Vec<i64> = vec![0; 1 + nodes.last().map_or(0, |&n| n as usize)];
    let mut dfifo = vfifo.clone();
    for rec in records {
        let (durable, delta) = match rec.event {
            TraceEvent::FifoEnqueued { durable, .. } => (durable, 1),
            TraceEvent::FifoDrained { durable, .. } => (durable, -1),
            _ => continue,
        };
        let tbl = if durable { &mut dfifo } else { &mut vfifo };
        let slot = &mut tbl[rec.node.0 as usize];
        *slot = (*slot + delta).max(0);
        push_event(
            &mut ev,
            &format!(
                r#"{{"ph":"C","pid":{},"tid":{},"ts":{},"name":"{}","args":{{"entries":{}}}}}"#,
                layout.pid(rec.node.0),
                layout.tid(rec.node.0, NET_LANE),
                us(rec.at_ns),
                escape(&layout.lane_name(rec.node.0, if durable { "dfifo" } else { "vfifo" })),
                *slot,
            ),
        );
    }

    format!("{{\"traceEvents\": [\n{ev}\n], \"displayTimeUnit\": \"ns\"}}\n")
}

#[cfg(test)]
mod tests {
    use super::super::json::Json;
    use super::super::TraceRecord;
    use super::*;
    use crate::event::ReqId;
    use crate::obs::hist::OpKind;
    use minos_types::{Key, MessageKind, NodeId, Ts};

    fn rec(at_ns: u64, node: u16, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at_ns,
            node: NodeId(node),
            event,
            meta: crate::obs::TraceMeta::default(),
        }
    }

    fn tiny_trace() -> Vec<TraceRecord> {
        vec![
            rec(
                100,
                0,
                TraceEvent::OpAdmitted {
                    op: OpKind::Write,
                    req: ReqId(1),
                    key: Some(Key(7)),
                    scope: None,
                },
            ),
            rec(150, 0, TraceEvent::WriteStarted { key: Key(7) }),
            rec(
                200,
                0,
                TraceEvent::FanOut {
                    dests: 2,
                    kind: MessageKind::Inv,
                    key: Some(Key(7)),
                },
            ),
            rec(
                300,
                1,
                TraceEvent::MsgReceived {
                    from: NodeId(0),
                    kind: MessageKind::Inv,
                    key: Some(Key(7)),
                },
            ),
            rec(
                320,
                2,
                TraceEvent::MsgReceived {
                    from: NodeId(0),
                    kind: MessageKind::Inv,
                    key: Some(Key(7)),
                },
            ),
            rec(
                400,
                0,
                TraceEvent::PersistStarted {
                    key: Key(7),
                    background: false,
                },
            ),
            rec(500, 0, TraceEvent::PersistCompleted { key: Key(7) }),
            rec(
                520,
                0,
                TraceEvent::OpCompleted {
                    op: OpKind::Write,
                    req: ReqId(1),
                    key: Some(Key(7)),
                    obsolete: false,
                    ts: Some(Ts::new(NodeId(0), 1)),
                },
            ),
        ]
    }

    #[test]
    fn export_is_valid_json_with_trace_events() {
        let doc = export(&tiny_trace());
        let parsed = Json::parse(&doc).expect("valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        assert_eq!(parsed.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
    }

    #[test]
    fn spans_balance_and_flows_pair_up() {
        let doc = export(&tiny_trace());
        let parsed = Json::parse(&doc).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(count("B"), count("E"), "unbalanced B/E events");
        assert_eq!(count("s"), 1, "one fan-out start");
        assert_eq!(count("f"), 2, "two follower terminations");
        assert!(count("B") >= 2, "op span plus at least one category slice");
    }

    #[test]
    fn ctx_stamped_flows_pair_exactly_and_carry_trace_id() {
        use crate::obs::TraceMeta;
        let span = (1u64 << 48) | 42;
        let tid = (1u64 << 48) | 41;
        let mut records = tiny_trace();
        // Stamp the fan-out with a dispatch span + trace id.
        records[2].meta = TraceMeta {
            trace_id: tid,
            span,
            parent: 0,
            remote_ns: 0,
        };
        // Node 1's receive names the fan-out span as parent: pairs.
        records[3].meta = TraceMeta {
            trace_id: tid,
            span: (2u64 << 48) | 1,
            parent: span,
            remote_ns: 200,
        };
        // Node 2's receive belongs to a *different* dispatch (same
        // sender, same key — the heuristic would have paired it).
        records[4].meta = TraceMeta {
            trace_id: tid,
            span: (3u64 << 48) | 1,
            parent: (1u64 << 48) | 99,
            remote_ns: 0,
        };
        let doc = export(&records);
        let parsed = Json::parse(&doc).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let of_ph = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .collect::<Vec<_>>()
        };
        let starts = of_ph("s");
        let finishes = of_ph("f");
        assert_eq!(starts.len(), 1, "one fan-out start");
        assert_eq!(finishes.len(), 1, "only the span-matched receive pairs");
        // Arrow id is the dispatch span — stable across merged shards —
        // and the name carries the trace id.
        assert_eq!(starts[0].get("id").unwrap().as_u64(), Some(span));
        assert_eq!(finishes[0].get("id").unwrap().as_u64(), Some(span));
        let name = starts[0].get("name").unwrap().as_str().unwrap();
        assert_eq!(name, format!("fanout t{tid:x}"));
        assert_eq!(finishes[0].get("name").unwrap().as_str(), Some(name));
    }

    #[test]
    fn empty_trace_exports_empty_document() {
        let doc = export(&[]);
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            0
        );
    }

    #[test]
    fn fifo_events_become_counter_tracks() {
        let records = vec![
            rec(
                10,
                0,
                TraceEvent::FifoEnqueued {
                    durable: false,
                    key: Key(1),
                },
            ),
            rec(
                20,
                0,
                TraceEvent::FifoDrained {
                    durable: false,
                    key: Key(1),
                },
            ),
        ];
        let doc = export(&records);
        let parsed = Json::parse(&doc).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(
            counters[0]
                .get("args")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            counters[1]
                .get("args")
                .unwrap()
                .get("entries")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    #[test]
    fn sharded_export_groups_nodes_into_shard_processes() {
        use minos_types::ShardMap;
        // 4 nodes, 2 disjoint shard groups: {0,1} and {2,3}.
        let map = ShardMap::uniform(2, 4, 2);
        let doc = export_sharded(&tiny_trace(), &map);
        let parsed = Json::parse(&doc).expect("valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        let process_names: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .map(str::to_owned)
            })
            .collect();
        assert!(
            process_names.iter().any(|n| n == "shard group 0"),
            "expected a shard-group process, got {process_names:?}"
        );
        assert!(
            process_names.iter().any(|n| n == "shard group 1"),
            "node 2 lives in group 1, got {process_names:?}"
        );
        // Thread (lane) names carry the node prefix so lanes from
        // different nodes stay distinguishable inside one group track.
        let has_prefixed_lane = events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("n0 "))
        });
        assert!(has_prefixed_lane, "lane names should be node-prefixed");
        // Unsharded export is unchanged by the layout machinery.
        let plain = export(&tiny_trace());
        assert!(plain.contains(r#""name":"node 0""#));
        assert!(!plain.contains("shard group"));
    }
}
