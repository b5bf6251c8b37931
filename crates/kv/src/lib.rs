//! MINOS-KV: the replicated key-value store of §VII.
//!
//! The paper implements its own KV store ("to support our proposed
//! metadata format … we implement our own key-value store, named
//! MINOS-KV"), backed by a hashtable, replicated on every node, driven by
//! the MINOS protocols. This crate provides:
//!
//! * [`DurableState`] — one node's non-volatile half: the emulated NVM
//!   device, the append-only persist log, and the durable database the
//!   log is applied to;
//! * [`MinosKv`] — a single-process replicated store: `put`/`get`/
//!   `persist_scope` against an N-node cluster of protocol engines, with
//!   real durable state per node;
//! * [`recovery`] — the §III-E log-shipping recovery: a designated node
//!   ships the committed log suffix to a rejoining node, which replays it
//!   into durable and volatile state ([`recovery::recover_into`], shared
//!   with the live runtimes in `minos-cluster`).
//!
//! # Example
//!
//! ```
//! use minos_kv::MinosKv;
//! use minos_types::{DdpModel, NodeId, PersistencyModel};
//!
//! let mut kv = MinosKv::new(3, DdpModel::lin(PersistencyModel::Synchronous));
//! kv.put(NodeId(0), "user:7", "alice")?;
//! // Any replica serves the read locally.
//! assert_eq!(kv.get(NodeId(2), "user:7")?.unwrap(), "alice");
//! # Ok::<(), minos_types::MinosError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durable;
pub mod recovery;
mod store;

pub use durable::DurableState;
pub use store::MinosKv;

use minos_types::Key;

/// Hashes an arbitrary byte-string key into the fixed-width [`Key`] used
/// on the wire (FNV-1a; MINOS-KV's hashtable backend).
#[must_use]
pub fn hash_key(name: impl AsRef<[u8]>) -> Key {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in name.as_ref() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    Key(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_key_is_stable_and_spreads() {
        assert_eq!(hash_key("a"), hash_key("a"));
        assert_ne!(hash_key("a"), hash_key("b"));
        assert_ne!(hash_key("ab"), hash_key("ba"));
    }
}
