//! Seeded inputs: per-client op streams, self-describing 1 KB values,
//! and the checks a reply must pass.
//!
//! The program under test never sees the seed — only the ops generated
//! here from it.

use minos_nvm::LogEntry;
use minos_types::{Key, NodeId, Ts, Value};
use minos_workload::{RequestStream, WorkloadSpec};

/// Key space of the live workloads: a tenth of the paper's 100 K records,
/// so three nodes' volatile + durable copies fit a shared 2-core box.
pub const RECORDS: u64 = 10_000;
/// The paper's default record size.
pub const VALUE_BYTES: usize = 1024;
/// `client` field of a value written by the bulk load, not by a client.
pub const PRELOAD_CLIENT: u32 = u32::MAX;

const MAGIC: u32 = 0x4D4E_4F53; // "MNOS"
const HEADER: usize = 24;

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// YCSB stream of client `client`: zipfian θ = 0.99 over [`RECORDS`]
/// keys, `write_fraction` puts. Each client draws from its own seed so
/// streams are independent of the client count.
pub fn client_stream(seed: u64, client: u32, write_fraction: f64) -> RequestStream {
    WorkloadSpec::ycsb_default()
        .with_records(RECORDS)
        .with_record_bytes(VALUE_BYTES)
        .with_write_fraction(write_fraction)
        .stream(splitmix64(seed ^ (u64::from(client) << 32)))
}

/// FNV-1a digest of the first `n` ops of a stream — printed and stored so
/// two result files can show they replayed the same inputs.
pub fn stream_digest(stream: &RequestStream, n: usize) -> u64 {
    let mut s = stream.clone();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..n {
        let op = s.next_op();
        let word = (op.key().0 << 1) | u64::from(op.is_write());
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Writes the value for `(key, client, seq)` into `out` (cleared first):
/// `[magic u32][key u64][client u32][seq u64]`, then filler words derived
/// from the header, the last word being the checksum.
pub fn stamp_into(key: u64, client: u32, seq: u64, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&client.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let word = filler(key, client, seq).to_le_bytes();
    while out.len() < VALUE_BYTES {
        out.extend_from_slice(&word);
    }
}

pub fn stamp(key: u64, client: u32, seq: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_BYTES);
    stamp_into(key, client, seq, &mut v);
    v
}

fn filler(key: u64, client: u32, seq: u64) -> u64 {
    splitmix64(key ^ splitmix64(seq ^ (u64::from(client) << 40)))
}

/// True when `value` is a value some client (or the bulk load) wrote to
/// `key`: right length, magic, key, a known writer, and every filler word
/// matching the header it follows.
pub fn is_valid_value(value: &[u8], key: u64, n_clients: u32) -> bool {
    if value.len() != VALUE_BYTES {
        return false;
    }
    let u32_at = |at: usize| u32::from_le_bytes(value[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(value[at..at + 8].try_into().unwrap());
    let client = u32_at(12);
    let seq = u64_at(16);
    if u32_at(0) != MAGIC || u64_at(4) != key {
        return false;
    }
    if client != PRELOAD_CLIENT && client >= n_clients {
        return false;
    }
    let word = filler(key, client, seq).to_le_bytes();
    value[HEADER..].chunks_exact(8).all(|w| w == word)
}

/// `Ts` of every bulk-loaded record.
pub fn preload_ts() -> Ts {
    Ts::new(NodeId(0), 1)
}

/// The bulk load: one durable-log entry per record, value stamped with
/// [`PRELOAD_CLIENT`].
pub fn preload_entries() -> Vec<LogEntry> {
    (0..RECORDS)
        .map(|key| LogEntry {
            lsn: key,
            key: Key(key),
            ts: preload_ts(),
            value: Value::from(stamp(key, PRELOAD_CLIENT, 0)),
        })
        .collect()
}

/// What one client connection has observed, for the session-order check:
/// per key, the `Ts` a reply must not fall below.
pub struct SessionView {
    seen: Vec<Ts>,
    /// Newest acked put per key, for the post-run durability audit.
    pub acked: Vec<Ts>,
}

impl SessionView {
    pub fn new() -> Self {
        SessionView {
            seen: vec![Ts::default(); RECORDS as usize],
            acked: vec![Ts::default(); RECORDS as usize],
        }
    }

    /// The floor for an op on `key` sent now: everything this connection
    /// has already been told about the key.
    pub fn floor(&self, key: Key) -> Ts {
        self.seen[key.0 as usize]
    }

    /// Checks a reply against the floor captured when its op was sent and
    /// records it. A put's `Ts` must exceed the floor (it is a new
    /// version); a get's must not fall below it.
    pub fn observe(&mut self, key: Key, put: bool, floor: Ts, ts: Ts) -> bool {
        let slot = &mut self.seen[key.0 as usize];
        *slot = (*slot).max(ts);
        if put {
            let acked = &mut self.acked[key.0 as usize];
            *acked = (*acked).max(ts);
            ts > floor
        } else {
            ts >= floor
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_validate_and_reject_corruption() {
        let v = stamp(7, 1, 99);
        assert_eq!(v.len(), VALUE_BYTES);
        assert!(is_valid_value(&v, 7, 2));
        assert!(!is_valid_value(&v, 8, 2), "wrong key");
        assert!(!is_valid_value(&v, 7, 1), "unknown client");
        let mut bad = v.clone();
        bad[500] ^= 1;
        assert!(!is_valid_value(&bad, 7, 2), "flipped filler bit");
        assert!(is_valid_value(&stamp(7, PRELOAD_CLIENT, 0), 7, 2));
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = stream_digest(&client_stream(1, 0, 0.5), 1000);
        assert_eq!(a, stream_digest(&client_stream(1, 0, 0.5), 1000));
        assert_ne!(a, stream_digest(&client_stream(2, 0, 0.5), 1000));
        assert_ne!(a, stream_digest(&client_stream(1, 1, 0.5), 1000));
    }

    #[test]
    fn session_view_flags_time_travel() {
        let mut s = SessionView::new();
        let t = |v| Ts::new(NodeId(0), v);
        assert!(s.observe(Key(1), true, s.floor(Key(1)), t(3)));
        assert!(s.observe(Key(1), false, s.floor(Key(1)), t(3)));
        assert!(!s.observe(Key(1), false, s.floor(Key(1)), t(2)));
        assert!(
            !s.observe(Key(1), true, s.floor(Key(1)), t(3)),
            "put must be newer"
        );
        assert_eq!(s.acked[1], t(3));
    }
}
