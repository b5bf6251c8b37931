//! The built-in trace sinks — in-memory ring, JSONL writer, histogram
//! feeder — and the JSONL reader: [`encode_json`] and [`parse_jsonl`]
//! are the one place the trace interchange format is defined.

use super::hist::{HistogramSet, OpKind};
use super::json::Json;
use super::{TraceEvent, TraceMeta, TraceRecord, TraceSink};
use crate::event::ReqId;
use crate::offload::Side;
use minos_types::{Key, MessageKind, NodeId, PersistencyModel, ScopeId, Ts};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A bounded in-memory recorder: keeps the most recent `capacity`
/// records, counting (not storing) the overflow.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

impl RingRecorder {
    /// A ring holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Clones the held records out, oldest first.
    #[must_use]
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        self.buf.iter().cloned().collect()
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was drained).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns all held records, oldest first.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        self.buf.drain(..).collect()
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, rec: &TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec.clone());
    }
}

/// Stable label for a PCIe side (the JSONL `from` field of
/// `pcie_crossing`).
#[must_use]
pub fn side_label(side: Side) -> &'static str {
    match side {
        Side::Host => "host",
        Side::Snic => "snic",
    }
}

/// Parses [`side_label`] output back.
#[must_use]
pub fn side_from_label(s: &str) -> Option<Side> {
    match s {
        "host" => Some(Side::Host),
        "snic" => Some(Side::Snic),
        _ => None,
    }
}

/// Stable label for a message kind (paper notation, as in
/// [`MessageKind`]'s variant names).
#[must_use]
pub fn kind_label(kind: MessageKind) -> &'static str {
    match kind {
        MessageKind::Inv => "Inv",
        MessageKind::Ack => "Ack",
        MessageKind::AckC => "AckC",
        MessageKind::AckP => "AckP",
        MessageKind::Val => "Val",
        MessageKind::ValC => "ValC",
        MessageKind::ValP => "ValP",
        MessageKind::Persist => "Persist",
        MessageKind::PersistAckP => "PersistAckP",
        MessageKind::PersistValP => "PersistValP",
        MessageKind::ReadReq => "ReadReq",
        MessageKind::ReadResp => "ReadResp",
    }
}

/// Parses [`kind_label`] output back.
#[must_use]
pub fn kind_from_label(s: &str) -> Option<MessageKind> {
    const ALL: [MessageKind; 12] = [
        MessageKind::Inv,
        MessageKind::Ack,
        MessageKind::AckC,
        MessageKind::AckP,
        MessageKind::Val,
        MessageKind::ValC,
        MessageKind::ValP,
        MessageKind::Persist,
        MessageKind::PersistAckP,
        MessageKind::PersistValP,
        MessageKind::ReadReq,
        MessageKind::ReadResp,
    ];
    ALL.into_iter().find(|&k| kind_label(k) == s)
}

/// Encodes one record as a flat, single-line JSON object — the JSONL
/// interchange format `minos-trace` replays. No external serializer is
/// in the approved dependency set, so the (trivially flat) codec lives
/// here; [`parse_jsonl_line`] is its inverse.
#[must_use]
pub fn encode_json(rec: &TraceRecord) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"at_ns\":{},\"node\":{},\"ev\":\"{}\"",
        rec.at_ns,
        rec.node.0,
        rec.event.name()
    );
    match &rec.event {
        TraceEvent::OpAdmitted {
            op,
            req,
            key,
            scope,
        } => {
            let _ = write!(s, ",\"op\":\"{}\",\"req\":{}", op.label(), req.0);
            if let Some(k) = key {
                let _ = write!(s, ",\"key\":{}", k.0);
            }
            if let Some(sc) = scope {
                let _ = write!(s, ",\"scope\":{}", sc.0);
            }
        }
        TraceEvent::WriteStarted { key }
        | TraceEvent::PersistCompleted { key }
        | TraceEvent::CoherenceTransfer { key } => {
            let _ = write!(s, ",\"key\":{}", key.0);
        }
        TraceEvent::MsgReceived { from, kind, key } => {
            let _ = write!(s, ",\"from\":{},\"kind\":\"{}\"", from.0, kind_label(*kind));
            if let Some(k) = key {
                let _ = write!(s, ",\"key\":{}", k.0);
            }
        }
        TraceEvent::MsgSent { to, kind, key } => {
            let _ = write!(s, ",\"to\":{},\"kind\":\"{}\"", to.0, kind_label(*kind));
            if let Some(k) = key {
                let _ = write!(s, ",\"key\":{}", k.0);
            }
        }
        TraceEvent::FanOut { dests, kind, key } => {
            let _ = write!(s, ",\"dests\":{},\"kind\":\"{}\"", dests, kind_label(*kind));
            if let Some(k) = key {
                let _ = write!(s, ",\"key\":{}", k.0);
            }
        }
        TraceEvent::PersistStarted { key, background } => {
            let _ = write!(s, ",\"key\":{},\"background\":{background}", key.0);
        }
        TraceEvent::BatchFlushed { sends } => {
            let _ = write!(s, ",\"sends\":{sends}");
        }
        TraceEvent::OpCompleted {
            op,
            req,
            key,
            obsolete,
            ts,
        } => {
            let _ = write!(
                s,
                ",\"op\":\"{}\",\"req\":{},\"obsolete\":{obsolete}",
                op.label(),
                req.0
            );
            if let Some(k) = key {
                let _ = write!(s, ",\"key\":{}", k.0);
            }
            if let Some(t) = ts {
                let _ = write!(s, ",\"ts_v\":{},\"ts_node\":{}", t.version, t.node.0);
            }
        }
        TraceEvent::PcieCrossing { from } => {
            let _ = write!(s, ",\"from\":\"{}\"", side_label(*from));
        }
        TraceEvent::FifoEnqueued { durable, key } | TraceEvent::FifoDrained { durable, key } => {
            let _ = write!(s, ",\"durable\":{durable},\"key\":{}", key.0);
        }
    }
    // Distributed-tracing identity: each field appears only when nonzero,
    // so untraced records keep the pre-tracing encoding byte-for-byte.
    if rec.meta.trace_id != 0 {
        let _ = write!(s, ",\"tid\":{}", rec.meta.trace_id);
    }
    if rec.meta.span != 0 {
        let _ = write!(s, ",\"span\":{}", rec.meta.span);
    }
    if rec.meta.parent != 0 {
        let _ = write!(s, ",\"parent\":{}", rec.meta.parent);
    }
    if rec.meta.remote_ns != 0 {
        let _ = write!(s, ",\"rns\":{}", rec.meta.remote_ns);
    }
    s.push('}');
    s
}

/// Parses one JSONL line back into a [`TraceRecord`] — the inverse of
/// [`encode_json`]. Returns `None` for a line that is not one whole JSON
/// object (blank, or torn by a process killed mid-write) and for records
/// this reader does not understand, so replay tolerates both.
#[must_use]
pub fn parse_jsonl_line(line: &str) -> Option<TraceRecord> {
    let v = Json::parse(line).ok()?;
    let num = |k: &str| v.get(k).and_then(Json::as_u64);
    let text = |k: &str| v.get(k).and_then(Json::as_str);
    let flag = |k: &str| v.get(k).and_then(Json::as_bool);
    let node = |k: &str| u16::try_from(num(k)?).ok().map(NodeId);
    let small = |k: &str| u32::try_from(num(k)?).ok();
    let key = || num("key").map(Key);
    let kind = || kind_from_label(text("kind")?);
    let op = || OpKind::from_label(text("op")?);
    let req = || num("req").map(ReqId);
    let event = match text("ev")? {
        "op_admitted" => TraceEvent::OpAdmitted {
            op: op()?,
            req: req()?,
            key: key(),
            scope: small("scope").map(ScopeId),
        },
        "write_started" => TraceEvent::WriteStarted { key: key()? },
        "msg_received" => TraceEvent::MsgReceived {
            from: node("from")?,
            kind: kind()?,
            key: key(),
        },
        "msg_sent" => TraceEvent::MsgSent {
            to: node("to")?,
            kind: kind()?,
            key: key(),
        },
        "fan_out" => TraceEvent::FanOut {
            dests: small("dests")?,
            kind: kind()?,
            key: key(),
        },
        "persist_started" => TraceEvent::PersistStarted {
            key: key()?,
            background: flag("background")?,
        },
        "persist_completed" => TraceEvent::PersistCompleted { key: key()? },
        "batch_flushed" => TraceEvent::BatchFlushed {
            sends: small("sends")?,
        },
        "op_completed" => TraceEvent::OpCompleted {
            op: op()?,
            req: req()?,
            key: key(),
            obsolete: flag("obsolete")?,
            ts: node("ts_node")
                .zip(small("ts_v"))
                .map(|(n, v)| Ts::new(n, v)),
        },
        "pcie_crossing" => TraceEvent::PcieCrossing {
            from: side_from_label(text("from")?)?,
        },
        "fifo_enqueued" => TraceEvent::FifoEnqueued {
            durable: flag("durable")?,
            key: key()?,
        },
        "fifo_drained" => TraceEvent::FifoDrained {
            durable: flag("durable")?,
            key: key()?,
        },
        "coherence_transfer" => TraceEvent::CoherenceTransfer { key: key()? },
        _ => return None,
    };
    Some(TraceRecord {
        at_ns: num("at_ns")?,
        node: node("node")?,
        event,
        // Tracing identity fields are optional (absent = zero), so traces
        // written before distributed tracing still parse.
        meta: TraceMeta {
            trace_id: num("tid").unwrap_or(0),
            span: num("span").unwrap_or(0),
            parent: num("parent").unwrap_or(0),
            remote_ns: num("rns").unwrap_or(0),
        },
    })
}

/// Parses a whole JSONL trace, skipping lines [`parse_jsonl_line`]
/// rejects.
#[must_use]
pub fn parse_jsonl(text: &str) -> Vec<TraceRecord> {
    text.lines().filter_map(parse_jsonl_line).collect()
}

/// A sink writing one JSON object per record to any [`Write`] target.
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    out: W,
    lines: u64,
}

impl JsonlWriter<BufWriter<File>> {
    /// Creates (truncating) `path` and writes the trace there, buffered.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlWriter::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlWriter<W> {
    /// Wraps an output stream.
    pub fn new(out: W) -> Self {
        JsonlWriter { out, lines: 0 }
    }

    /// Lines written so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Unwraps the inner writer (tests recover in-memory buffers).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> TraceSink for JsonlWriter<W> {
    fn record(&mut self, rec: &TraceRecord) {
        // A full disk mid-trace is not worth crashing the protocol for;
        // the line counter lets callers notice truncation.
        if writeln!(self.out, "{}", encode_json(rec)).is_ok() {
            self.lines += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// A sink that pairs each op's `OpAdmitted`/`OpCompleted` records into
/// end-to-end latency samples, feeding the shared [`HistogramSet`]
/// behind `--metrics-out`. The run's persistency model is fixed at
/// construction (the trace does not repeat it per record).
#[derive(Debug)]
pub struct MetricsSink {
    model: PersistencyModel,
    /// `(node, req)` → `(op, admit timestamp)`.
    pending: HashMap<(u16, u64), (OpKind, u64)>,
    hists: Arc<Mutex<HistogramSet>>,
}

impl MetricsSink {
    /// A metrics sink for a run under `model`; the returned handle reads
    /// the accumulating histograms while the run is live.
    #[must_use]
    pub fn new(model: PersistencyModel) -> (Self, Arc<Mutex<HistogramSet>>) {
        let hists = Arc::new(Mutex::new(HistogramSet::new()));
        (
            MetricsSink {
                model,
                pending: HashMap::new(),
                hists: Arc::clone(&hists),
            },
            hists,
        )
    }

    /// Ops admitted but not yet completed.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, rec: &TraceRecord) {
        match &rec.event {
            TraceEvent::OpAdmitted { op, req, .. } => {
                self.pending.insert((rec.node.0, req.0), (*op, rec.at_ns));
            }
            TraceEvent::OpCompleted { req, .. } => {
                if let Some((op, admitted)) = self.pending.remove(&(rec.node.0, req.0)) {
                    if let Ok(mut h) = self.hists.lock() {
                        h.record(self.model, op, rec.at_ns.saturating_sub(admitted));
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at_ns,
            node: NodeId(0),
            event,
            meta: crate::obs::TraceMeta::default(),
        }
    }

    #[test]
    fn meta_fields_encode_only_when_nonzero() {
        let mut r = rec(5, TraceEvent::BatchFlushed { sends: 1 });
        assert!(!encode_json(&r).contains("tid"));
        r.meta = crate::obs::TraceMeta {
            trace_id: 11,
            span: 22,
            parent: 33,
            remote_ns: 44,
        };
        assert_eq!(
            encode_json(&r),
            "{\"at_ns\":5,\"node\":0,\"ev\":\"batch_flushed\",\"sends\":1,\
             \"tid\":11,\"span\":22,\"parent\":33,\"rns\":44}"
        );
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = RingRecorder::new(2);
        for i in 0..5 {
            ring.record(&rec(i, TraceEvent::BatchFlushed { sends: 1 }));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let held = ring.drain();
        assert_eq!(held[0].at_ns, 3);
        assert_eq!(held[1].at_ns, 4);
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_writer_emits_one_line_per_record() {
        let mut w = JsonlWriter::new(Vec::new());
        w.record(&rec(
            7,
            TraceEvent::PersistStarted {
                key: Key(3),
                background: false,
            },
        ));
        w.record(&rec(9, TraceEvent::BatchFlushed { sends: 2 }));
        assert_eq!(w.lines(), 2);
        let text = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"at_ns\":7,\"node\":0,\"ev\":\"persist_started\",\"key\":3,\"background\":false}"
        );
        assert!(lines[1].contains("\"sends\":2"));
    }

    #[test]
    fn metrics_sink_pairs_admit_and_complete() {
        let (mut sink, hists) = MetricsSink::new(PersistencyModel::Strict);
        sink.record(&rec(
            100,
            TraceEvent::OpAdmitted {
                op: OpKind::Write,
                req: ReqId(1),
                key: Some(Key(1)),
                scope: None,
            },
        ));
        assert_eq!(sink.in_flight(), 1);
        sink.record(&rec(
            600,
            TraceEvent::OpCompleted {
                op: OpKind::Write,
                req: ReqId(1),
                key: Some(Key(1)),
                obsolete: false,
                ts: None,
            },
        ));
        assert_eq!(sink.in_flight(), 0);
        let h = hists.lock().unwrap();
        let cell = h.get(PersistencyModel::Strict, OpKind::Write).unwrap();
        assert_eq!(cell.count(), 1);
        assert_eq!(cell.max_ns(), Some(500));
    }

    #[test]
    fn labels_roundtrip() {
        for k in [
            MessageKind::Inv,
            MessageKind::AckP,
            MessageKind::PersistValP,
            MessageKind::ReadResp,
        ] {
            assert_eq!(kind_from_label(kind_label(k)), Some(k));
        }
        assert_eq!(side_from_label(side_label(Side::Snic)), Some(Side::Snic));
        assert_eq!(
            OpKind::from_label("persist_scope"),
            Some(OpKind::PersistScope)
        );
    }
}
