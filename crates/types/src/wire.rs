//! A compact, dependency-free binary wire codec for protocol messages.
//!
//! The multi-process runtime (`minos-cluster`'s TCP transport) needs a
//! wire format; the approved dependency set has no serializer binary
//! format, so this module hand-rolls one. The encoding is
//! little-endian, length-prefixed, and versioned by a leading tag byte
//! per message kind.

use crate::membership::ViewMsg;
use crate::{Key, Message, NodeId, ScopeId, ShardMap, Ts, Value};

/// Errors from [`decode_message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended mid-message.
    Truncated,
    /// An unknown message tag was encountered.
    BadTag(u8),
    /// Trailing bytes followed a complete message.
    TrailingBytes(usize),
    /// A view-change payload carried a malformed placement codec.
    BadPayload(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadPayload(why) => write!(f, "bad view-change payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn ts(&mut self, t: Ts) {
        self.u32(t.version);
        self.u16(t.node.0);
    }
    fn key(&mut self, k: Key) {
        self.u64(k.0);
    }
    fn scope_opt(&mut self, s: Option<ScopeId>) {
        match s {
            Some(sc) => {
                self.u8(1);
                self.u32(sc.0);
            }
            None => self.u8(0),
        }
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn ts(&mut self) -> Result<Ts, WireError> {
        let version = self.u32()?;
        let node = NodeId(self.u16()?);
        Ok(Ts { version, node })
    }
    fn key(&mut self) -> Result<Key, WireError> {
        Ok(Key(self.u64()?))
    }
    fn scope_opt(&mut self) -> Result<Option<ScopeId>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(ScopeId(self.u32()?))),
        }
    }
    fn bytes(&mut self) -> Result<Value, WireError> {
        let n = self.u32()? as usize;
        Ok(Value::copy_from_slice(self.take(n)?))
    }
}

/// A compact distributed-tracing context that rides the wire alongside
/// protocol traffic.
///
/// One context names one *hop*: `trace_id` is the end-to-end operation
/// identity (minted when a client op is admitted), `span` is the
/// sender-side dispatch that emitted the message(s), and `origin_ns` is
/// the sender's local clock at emission — the receiver records it so an
/// offline assembler can fit per-node clock offsets from matched
/// send/recv pairs. All-zero fields mean "absent" (untraced traffic).
///
/// Encoded as 24 fixed little-endian bytes
/// (`[u64 trace_id][u64 span][u64 origin_ns]`); see
/// [`TraceCtx::encode`] / [`TraceCtx::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// End-to-end operation identity, stable across every hop.
    pub trace_id: u64,
    /// The sending dispatch's span id (the receiver's parent span).
    pub span: u64,
    /// Sender-local clock (ns) when the message was emitted; 0 = unknown.
    pub origin_ns: u64,
}

impl TraceCtx {
    /// Encoded size in bytes.
    pub const WIRE_LEN: usize = 24;

    /// True when every field is zero — the "no context" sentinel.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace_id == 0 && self.span == 0 && self.origin_ns == 0
    }

    /// Encodes the context as 24 little-endian bytes.
    #[must_use]
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.span.to_le_bytes());
        out[16..].copy_from_slice(&self.origin_ns.to_le_bytes());
        out
    }

    /// Decodes a context from the first 24 bytes of `buf`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when `buf` is shorter than
    /// [`TraceCtx::WIRE_LEN`].
    pub fn decode(buf: &[u8]) -> Result<TraceCtx, WireError> {
        if buf.len() < Self::WIRE_LEN {
            return Err(WireError::Truncated);
        }
        Ok(TraceCtx {
            trace_id: u64::from_le_bytes(buf[..8].try_into().unwrap()),
            span: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            origin_ns: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
        })
    }
}

/// Flag bit on a client-protocol op byte marking that a 24-byte
/// [`TraceCtx`] follows the client-request id. Op bytes are small
/// (1..=6), so the high bit is free; a server masks with `!CLIENT_CTX_FLAG`
/// before switching on the op.
pub const CLIENT_CTX_FLAG: u8 = 0x80;

const TAG_INV: u8 = 0x01;
const TAG_ACK: u8 = 0x02;
const TAG_ACK_C: u8 = 0x03;
const TAG_ACK_P: u8 = 0x04;
const TAG_VAL: u8 = 0x05;
const TAG_VAL_C: u8 = 0x06;
const TAG_VAL_P: u8 = 0x07;
const TAG_PERSIST: u8 = 0x08;
const TAG_PERSIST_ACK: u8 = 0x09;
const TAG_PERSIST_VAL: u8 = 0x0A;
const TAG_READ_REQ: u8 = 0x0B;
const TAG_READ_RESP: u8 = 0x0C;

/// Encodes `msg` into a self-contained byte vector.
#[must_use]
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_message_into(msg, &mut out);
    out
}

/// Appends the encoding of `msg` to `out` — the scratch-buffer variant
/// of [`encode_message`] for hot paths that encode many messages and
/// want to reuse one allocation.
pub fn encode_message_into(msg: &Message, out: &mut Vec<u8>) {
    let mut w = Writer(std::mem::take(out));
    write_message(&mut w, msg);
    *out = w.0;
}

fn write_message(w: &mut Writer, msg: &Message) {
    match msg {
        Message::Inv {
            key,
            ts,
            value,
            scope,
        } => {
            w.u8(TAG_INV);
            w.key(*key);
            w.ts(*ts);
            w.scope_opt(*scope);
            w.bytes(value);
        }
        Message::Ack { key, ts } => {
            w.u8(TAG_ACK);
            w.key(*key);
            w.ts(*ts);
        }
        Message::AckC { key, ts, scope } => {
            w.u8(TAG_ACK_C);
            w.key(*key);
            w.ts(*ts);
            w.scope_opt(*scope);
        }
        Message::AckP { key, ts } => {
            w.u8(TAG_ACK_P);
            w.key(*key);
            w.ts(*ts);
        }
        Message::Val { key, ts } => {
            w.u8(TAG_VAL);
            w.key(*key);
            w.ts(*ts);
        }
        Message::ValC { key, ts, scope } => {
            w.u8(TAG_VAL_C);
            w.key(*key);
            w.ts(*ts);
            w.scope_opt(*scope);
        }
        Message::ValP { key, ts } => {
            w.u8(TAG_VAL_P);
            w.key(*key);
            w.ts(*ts);
        }
        Message::Persist { scope } => {
            w.u8(TAG_PERSIST);
            w.u32(scope.0);
        }
        Message::PersistAckP { scope } => {
            w.u8(TAG_PERSIST_ACK);
            w.u32(scope.0);
        }
        Message::PersistValP { scope } => {
            w.u8(TAG_PERSIST_VAL);
            w.u32(scope.0);
        }
        Message::ReadReq { key, token } => {
            w.u8(TAG_READ_REQ);
            w.key(*key);
            w.u64(*token);
        }
        Message::ReadResp {
            key,
            token,
            value,
            ts,
        } => {
            w.u8(TAG_READ_RESP);
            w.key(*key);
            w.u64(*token);
            w.ts(*ts);
            w.bytes(value);
        }
    }
}

/// Decodes a message previously produced by [`encode_message`].
///
/// # Errors
///
/// [`WireError::Truncated`] for short buffers, [`WireError::BadTag`] for
/// unknown kinds, [`WireError::TrailingBytes`] for oversized buffers.
pub fn decode_message(buf: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader { buf, pos: 0 };
    let msg = match r.u8()? {
        TAG_INV => {
            let key = r.key()?;
            let ts = r.ts()?;
            let scope = r.scope_opt()?;
            let value = r.bytes()?;
            Message::Inv {
                key,
                ts,
                value,
                scope,
            }
        }
        TAG_ACK => Message::Ack {
            key: r.key()?,
            ts: r.ts()?,
        },
        TAG_ACK_C => Message::AckC {
            key: r.key()?,
            ts: r.ts()?,
            scope: r.scope_opt()?,
        },
        TAG_ACK_P => Message::AckP {
            key: r.key()?,
            ts: r.ts()?,
        },
        TAG_VAL => Message::Val {
            key: r.key()?,
            ts: r.ts()?,
        },
        TAG_VAL_C => Message::ValC {
            key: r.key()?,
            ts: r.ts()?,
            scope: r.scope_opt()?,
        },
        TAG_VAL_P => Message::ValP {
            key: r.key()?,
            ts: r.ts()?,
        },
        TAG_PERSIST => Message::Persist {
            scope: ScopeId(r.u32()?),
        },
        TAG_PERSIST_ACK => Message::PersistAckP {
            scope: ScopeId(r.u32()?),
        },
        TAG_PERSIST_VAL => Message::PersistValP {
            scope: ScopeId(r.u32()?),
        },
        TAG_READ_REQ => Message::ReadReq {
            key: r.key()?,
            token: r.u64()?,
        },
        TAG_READ_RESP => {
            let key = r.key()?;
            let token = r.u64()?;
            let ts = r.ts()?;
            let value = r.bytes()?;
            Message::ReadResp {
                key,
                token,
                value,
                ts,
            }
        }
        t => return Err(WireError::BadTag(t)),
    };
    if r.pos != buf.len() {
        return Err(WireError::TrailingBytes(buf.len() - r.pos));
    }
    Ok(msg)
}

/// Encodes a peer-to-peer frame: `from` plus one or more protocol
/// messages batched into a single unit.
///
/// Layout: `[u16 from][u16 count]` then, per message, `[u32 len]` and the
/// [`encode_message`] bytes. This is the **only** peer framing in the
/// workspace — the TCP transport and the batching middleware both encode
/// through here, so a frame written by one is decodable by the other.
#[must_use]
pub fn encode_peer_frame(from: NodeId, msgs: &[Message]) -> Vec<u8> {
    encode_peer_frame_ctx(from, msgs, None)
}

/// Flag bit on a peer frame's count field marking that a 24-byte
/// [`TraceCtx`] follows the header. Batch counts stay far below 2^15, so
/// the high bit is free and ctx-less frames are bit-identical to the
/// pre-tracing encoding.
const FRAME_CTX_FLAG: u16 = 0x8000;

/// Encodes a peer frame carrying an optional [`TraceCtx`].
///
/// Layout: `[u16 from][u16 count]` as in [`encode_peer_frame`]; when a
/// context is present the count field has its high bit
/// (`FRAME_CTX_FLAG`, `0x8000`) set and the 24 context bytes sit
/// between the header and the first message. A `Some` context with
/// all-zero fields is encoded as absent.
#[must_use]
pub fn encode_peer_frame_ctx(from: NodeId, msgs: &[Message], ctx: Option<TraceCtx>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * msgs.len() + 4 + TraceCtx::WIRE_LEN);
    encode_peer_frame_ctx_into(from, msgs, ctx, &mut out);
    out
}

/// [`encode_peer_frame_ctx`] into a caller-owned scratch buffer:
/// replaces `out`'s contents with the frame, reusing its allocation.
/// Messages are encoded in place behind a `u32` length field that is
/// backpatched once each message's size is known — no per-message (or
/// per-frame) intermediate vector.
pub fn encode_peer_frame_ctx_into(
    from: NodeId,
    msgs: &[Message],
    ctx: Option<TraceCtx>,
    out: &mut Vec<u8>,
) {
    out.clear();
    append_peer_frame_ctx(from, msgs, ctx, out);
}

/// [`encode_peer_frame_ctx_into`] without the clear: appends the frame
/// behind whatever `out` already holds — a socket's length prefix, say,
/// so that prefix and frame leave in one write with no extra copy.
pub fn append_peer_frame_ctx(
    from: NodeId,
    msgs: &[Message],
    ctx: Option<TraceCtx>,
    out: &mut Vec<u8>,
) {
    let ctx = ctx.filter(|c| !c.is_empty());
    let mut w = Writer(std::mem::take(out));
    w.u16(from.0);
    debug_assert!(msgs.len() < FRAME_CTX_FLAG as usize, "peer frame too large");
    let mut count = msgs.len() as u16;
    if ctx.is_some() {
        count |= FRAME_CTX_FLAG;
    }
    w.u16(count);
    if let Some(c) = ctx {
        w.0.extend_from_slice(&c.encode());
    }
    for msg in msgs {
        let at = w.0.len();
        w.u32(0); // length placeholder
        write_message(&mut w, msg);
        let len = (w.0.len() - at - 4) as u32;
        w.0[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
    *out = w.0;
}

/// Decodes a frame produced by [`encode_peer_frame`].
///
/// # Errors
///
/// [`WireError::Truncated`] for short buffers, [`WireError::BadTag`] for
/// unknown message kinds, [`WireError::TrailingBytes`] for oversized
/// buffers.
pub fn decode_peer_frame(buf: &[u8]) -> Result<(NodeId, Vec<Message>), WireError> {
    let (from, msgs, _) = decode_peer_frame_ctx(buf)?;
    Ok((from, msgs))
}

/// Decodes a frame produced by [`encode_peer_frame_ctx`] (or, with
/// `None` context, by [`encode_peer_frame`]).
///
/// # Errors
///
/// As for [`decode_peer_frame`].
pub fn decode_peer_frame_ctx(
    buf: &[u8],
) -> Result<(NodeId, Vec<Message>, Option<TraceCtx>), WireError> {
    let mut r = Reader { buf, pos: 0 };
    let from = NodeId(r.u16()?);
    let raw_count = r.u16()?;
    let ctx = if raw_count & FRAME_CTX_FLAG != 0 {
        Some(TraceCtx::decode(r.take(TraceCtx::WIRE_LEN)?)?)
    } else {
        None
    };
    let count = (raw_count & !FRAME_CTX_FLAG) as usize;
    let mut msgs = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.u32()? as usize;
        msgs.push(decode_message(r.take(len)?)?);
    }
    if r.pos != buf.len() {
        return Err(WireError::TrailingBytes(buf.len() - r.pos));
    }
    Ok((from, msgs, ctx))
}

// Control-plane view-change tags live in a separate 0x20+ namespace so a
// protocol-message decoder can never confuse them with Table I traffic.
const TAG_VIEW_LEASE: u8 = 0x20;
const TAG_VIEW_DOWN: u8 = 0x21;
const TAG_VIEW_REJOIN_START: u8 = 0x22;
const TAG_VIEW_REJOIN_DONE: u8 = 0x23;
const TAG_VIEW_INSTALL_MAP: u8 = 0x24;

/// Encodes a control-plane view-change message. The placement map inside
/// [`ViewMsg::InstallMap`] rides as its compact text codec
/// (`epoch=E;nodes=N;groups=…`), so the wire format and the CLI flags
/// share one parser.
#[must_use]
pub fn encode_view_msg(msg: &ViewMsg) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(32));
    match msg {
        ViewMsg::LeaseRenew {
            node,
            expires_at_ns,
        } => {
            w.u8(TAG_VIEW_LEASE);
            w.u16(node.0);
            w.u64(*expires_at_ns);
        }
        ViewMsg::NodeDown { node, epoch } => {
            w.u8(TAG_VIEW_DOWN);
            w.u16(node.0);
            w.u64(*epoch);
        }
        ViewMsg::RejoinStart { node, epoch } => {
            w.u8(TAG_VIEW_REJOIN_START);
            w.u16(node.0);
            w.u64(*epoch);
        }
        ViewMsg::RejoinDone { node, epoch } => {
            w.u8(TAG_VIEW_REJOIN_DONE);
            w.u16(node.0);
            w.u64(*epoch);
        }
        ViewMsg::InstallMap { map } => {
            w.u8(TAG_VIEW_INSTALL_MAP);
            w.bytes(map.to_string().as_bytes());
        }
    }
    w.0
}

/// Decodes a message produced by [`encode_view_msg`].
///
/// # Errors
///
/// [`WireError::Truncated`] / [`WireError::BadTag`] /
/// [`WireError::TrailingBytes`] as for [`decode_message`], plus
/// [`WireError::BadPayload`] when an `InstallMap` placement codec does
/// not parse.
pub fn decode_view_msg(buf: &[u8]) -> Result<ViewMsg, WireError> {
    let mut r = Reader { buf, pos: 0 };
    let msg = match r.u8()? {
        TAG_VIEW_LEASE => ViewMsg::LeaseRenew {
            node: NodeId(r.u16()?),
            expires_at_ns: r.u64()?,
        },
        TAG_VIEW_DOWN => ViewMsg::NodeDown {
            node: NodeId(r.u16()?),
            epoch: r.u64()?,
        },
        TAG_VIEW_REJOIN_START => ViewMsg::RejoinStart {
            node: NodeId(r.u16()?),
            epoch: r.u64()?,
        },
        TAG_VIEW_REJOIN_DONE => ViewMsg::RejoinDone {
            node: NodeId(r.u16()?),
            epoch: r.u64()?,
        },
        TAG_VIEW_INSTALL_MAP => {
            let raw = r.bytes()?;
            let text =
                std::str::from_utf8(&raw).map_err(|e| WireError::BadPayload(e.to_string()))?;
            let map: ShardMap = text.parse().map_err(WireError::BadPayload)?;
            ViewMsg::InstallMap { map }
        }
        t => return Err(WireError::BadTag(t)),
    };
    if r.pos != buf.len() {
        return Err(WireError::TrailingBytes(buf.len() - r.pos));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardId;

    fn roundtrip(msg: Message) {
        let enc = encode_message(&msg);
        let dec = decode_message(&enc).expect("decode");
        assert_eq!(dec, msg);
    }

    #[test]
    fn all_kinds_roundtrip() {
        let key = Key(0xDEAD_BEEF);
        let ts = Ts::new(NodeId(7), 42);
        let sc = Some(ScopeId(9));
        roundtrip(Message::Inv {
            key,
            ts,
            value: Value::from_static(b"payload bytes"),
            scope: sc,
        });
        roundtrip(Message::Inv {
            key,
            ts,
            value: Value::new(),
            scope: None,
        });
        roundtrip(Message::Ack { key, ts });
        roundtrip(Message::AckC { key, ts, scope: sc });
        roundtrip(Message::AckC {
            key,
            ts,
            scope: None,
        });
        roundtrip(Message::AckP { key, ts });
        roundtrip(Message::Val { key, ts });
        roundtrip(Message::ValC { key, ts, scope: sc });
        roundtrip(Message::ValP { key, ts });
        roundtrip(Message::Persist { scope: ScopeId(3) });
        roundtrip(Message::PersistAckP { scope: ScopeId(3) });
        roundtrip(Message::PersistValP { scope: ScopeId(3) });
        roundtrip(Message::ReadReq { key, token: 99 });
        roundtrip(Message::ReadResp {
            key,
            token: 99,
            value: Value::from_static(b"resp"),
            ts,
        });
    }

    #[test]
    fn truncated_buffers_error() {
        let enc = encode_message(&Message::Ack {
            key: Key(1),
            ts: Ts::new(NodeId(0), 1),
        });
        for cut in 0..enc.len() {
            assert_eq!(
                decode_message(&enc[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_tag_detected() {
        assert_eq!(decode_message(&[0xFF]), Err(WireError::BadTag(0xFF)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut enc = encode_message(&Message::Persist { scope: ScopeId(1) });
        enc.push(0);
        assert_eq!(decode_message(&enc), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn peer_frames_roundtrip() {
        let key = Key(11);
        let ts = Ts::new(NodeId(2), 5);
        let msgs = vec![
            Message::Inv {
                key,
                ts,
                value: Value::from_static(b"abc"),
                scope: Some(ScopeId(1)),
            },
            Message::Ack { key, ts },
            Message::Persist { scope: ScopeId(1) },
        ];
        let enc = encode_peer_frame(NodeId(3), &msgs);
        let (from, dec) = decode_peer_frame(&enc).expect("decode");
        assert_eq!(from, NodeId(3));
        assert_eq!(dec, msgs);

        // Empty frames are legal (a flush with nothing buffered).
        let enc = encode_peer_frame(NodeId(0), &[]);
        assert_eq!(decode_peer_frame(&enc), Ok((NodeId(0), vec![])));
    }

    #[test]
    fn peer_frame_truncation_detected() {
        let enc = encode_peer_frame(
            NodeId(1),
            &[Message::Ack {
                key: Key(1),
                ts: Ts::new(NodeId(0), 1),
            }],
        );
        for cut in 0..enc.len() {
            assert!(
                decode_peer_frame(&enc[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        let mut padded = enc;
        padded.push(7);
        assert_eq!(decode_peer_frame(&padded), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn view_msgs_roundtrip_including_non_uniform_maps() {
        let mut map = ShardMap::uniform(2, 4, 2);
        map.remove_node(NodeId(2)).unwrap();
        map.add_replica(ShardId(1), NodeId(1)).unwrap();
        let cases = vec![
            ViewMsg::LeaseRenew {
                node: NodeId(3),
                expires_at_ns: u64::MAX,
            },
            ViewMsg::NodeDown {
                node: NodeId(0),
                epoch: 17,
            },
            ViewMsg::RejoinStart {
                node: NodeId(1),
                epoch: 17,
            },
            ViewMsg::RejoinDone {
                node: NodeId(1),
                epoch: 18,
            },
            ViewMsg::InstallMap { map: map.clone() },
        ];
        for msg in cases {
            let enc = encode_view_msg(&msg);
            assert_eq!(decode_view_msg(&enc), Ok(msg.clone()), "{msg:?}");
        }
        // The installed map keeps its bumped epoch and ragged groups.
        let enc = encode_view_msg(&ViewMsg::InstallMap { map: map.clone() });
        let ViewMsg::InstallMap { map: back } = decode_view_msg(&enc).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(back.epoch(), map.epoch());
        assert_eq!(back, map);
    }

    #[test]
    fn view_msg_decoder_rejects_protocol_tags_and_garbage_maps() {
        let enc = encode_message(&Message::Persist { scope: ScopeId(1) });
        assert!(matches!(
            decode_view_msg(&enc),
            Err(WireError::BadTag(TAG_PERSIST))
        ));
        let mut w = Writer(Vec::new());
        w.u8(TAG_VIEW_INSTALL_MAP);
        w.bytes(b"epoch=zzz;nodes=2;groups=0,1");
        assert!(matches!(
            decode_view_msg(&w.0),
            Err(WireError::BadPayload(_))
        ));
        for cut in 0..4 {
            assert!(decode_view_msg(
                &encode_view_msg(&ViewMsg::NodeDown {
                    node: NodeId(0),
                    epoch: 1
                })[..cut]
            )
            .is_err());
        }
    }

    #[test]
    fn trace_ctx_roundtrips_and_rejects_short_buffers() {
        let ctx = TraceCtx {
            trace_id: 0x1122_3344_5566_7788,
            span: 42,
            origin_ns: u64::MAX,
        };
        let enc = ctx.encode();
        assert_eq!(enc.len(), TraceCtx::WIRE_LEN);
        assert_eq!(TraceCtx::decode(&enc), Ok(ctx));
        for cut in 0..TraceCtx::WIRE_LEN {
            assert_eq!(TraceCtx::decode(&enc[..cut]), Err(WireError::Truncated));
        }
        assert!(TraceCtx::default().is_empty());
        assert!(!ctx.is_empty());
    }

    #[test]
    fn ctx_frames_roundtrip_and_interoperate_with_plain_frames() {
        let msgs = vec![
            Message::Ack {
                key: Key(5),
                ts: Ts::new(NodeId(1), 3),
            },
            Message::Persist { scope: ScopeId(2) },
        ];
        let ctx = TraceCtx {
            trace_id: 7,
            span: 9,
            origin_ns: 1234,
        };
        let enc = encode_peer_frame_ctx(NodeId(4), &msgs, Some(ctx));
        assert_eq!(
            decode_peer_frame_ctx(&enc),
            Ok((NodeId(4), msgs.clone(), Some(ctx)))
        );
        // The ctx-less decoder still accepts a ctx frame (drops the ctx).
        assert_eq!(decode_peer_frame(&enc), Ok((NodeId(4), msgs.clone())));
        // A plain frame decodes through the ctx decoder with no ctx, and
        // an empty (all-zero) ctx encodes as absent — bit-identical to
        // the pre-tracing frame layout.
        let plain = encode_peer_frame(NodeId(4), &msgs);
        assert_eq!(
            decode_peer_frame_ctx(&plain),
            Ok((NodeId(4), msgs.clone(), None))
        );
        assert_eq!(
            encode_peer_frame_ctx(NodeId(4), &msgs, Some(TraceCtx::default())),
            plain
        );
        // Truncation sweep over the ctx-bearing frame.
        for cut in 0..enc.len() {
            assert!(
                decode_peer_frame_ctx(&enc[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        // Empty ctx frames are legal (flush with nothing buffered).
        let empty = encode_peer_frame_ctx(NodeId(0), &[], Some(ctx));
        assert_eq!(
            decode_peer_frame_ctx(&empty),
            Ok((NodeId(0), vec![], Some(ctx)))
        );
    }

    #[test]
    fn large_payload_roundtrips() {
        roundtrip(Message::Inv {
            key: Key(1),
            ts: Ts::new(NodeId(1), 1),
            value: Value::from(vec![0xA5u8; 64 * 1024]),
            scope: None,
        });
    }
}
