//! Crash-point torture for §III-E recovery: the durable log is cut at
//! every byte offset — entry boundaries and torn mid-entry writes — and
//! the rejoiner must reconverge with the donor from whatever clean
//! prefix survived, via the same `recover_into` the live runtimes use.

use minos_core::NodeEngine;
use minos_kv::recovery::recover_into;
use minos_kv::DurableState;
use minos_nvm::log::{decode_entries, encode_entries, DecodeOutcome};
use minos_types::{DdpModel, Key, NodeId, PersistencyModel, Ts, Value};
use std::collections::BTreeMap;

fn ts(n: u16, v: u32) -> Ts {
    Ts::new(NodeId(n), v)
}

/// A donor with interleaved keys, out-of-order timestamps (obsolete
/// entries land in the log after their superseders, §III-B), and value
/// sizes from empty to multi-frame-dominating.
fn donor_state() -> DurableState {
    let mut donor = DurableState::new();
    donor.persist(Key(1), ts(0, 1), Value::from("first"));
    donor.persist(Key(2), ts(1, 1), Value::from(""));
    donor.persist(Key(1), ts(2, 3), Value::from("newest-of-k1"));
    donor.persist(Key(1), ts(1, 2), Value::from("obsolete-arrives-late"));
    donor.persist(Key(3), ts(2, 2), Value::from(vec![0xabu8; 100]));
    donor.persist(Key(2), ts(0, 4), Value::from("k2-final"));
    donor
}

fn durable_map(state: &DurableState) -> BTreeMap<Key, (Ts, Value)> {
    state
        .iter_durable()
        .map(|(k, (t, v))| (*k, (*t, v.clone())))
        .collect()
}

/// Recover a rejoiner from a truncated log image: decode the clean
/// prefix and recover from it, then from the donor's suffix past the
/// rejoiner's watermark — exactly the live start-up rejoin (own log, then
/// donor catch-up), but with the NVM image cut at an arbitrary byte.
fn recover_from_cut(donor: &DurableState, bytes: &[u8]) -> (DurableState, NodeEngine) {
    let (prefix, _) = decode_entries(bytes);
    let mut rejoiner = DurableState::new();
    let mut engine = NodeEngine::new(NodeId(3), 4, DdpModel::lin(PersistencyModel::Synchronous));
    recover_into(&mut rejoiner, &prefix, &mut engine);
    let shipment = donor.entries_since(rejoiner.head());
    recover_into(&mut rejoiner, &shipment, &mut engine);
    (rejoiner, engine)
}

#[test]
fn recovery_reconverges_from_every_truncation_point() {
    let donor = donor_state();
    let full = donor.entries_since(0);
    let bytes = encode_entries(&full);
    for cut in 0..=bytes.len() {
        let (prefix, _) = decode_entries(&bytes[..cut]);
        assert_eq!(
            prefix[..],
            full[..prefix.len()],
            "cut at {cut}: decoded prefix diverges from the original log"
        );
        let (rejoiner, _) = recover_from_cut(&donor, &bytes[..cut]);
        assert_eq!(
            durable_map(&rejoiner),
            durable_map(&donor),
            "cut at {cut}: durable states did not reconverge"
        );
        assert_eq!(rejoiner.head(), donor.head(), "cut at {cut}: head mismatch");
    }
}

#[test]
fn recovery_reconverges_from_torn_writes() {
    let donor = donor_state();
    let full = donor.entries_since(0);
    let bytes = encode_entries(&full);
    // Flip one bit at a spread of offsets: frame headers, payloads,
    // checksums. The decoder must stop at the first bad frame and the
    // shipment must still reconverge the rejoiner.
    for at in (0..bytes.len()).step_by(7) {
        let mut torn = bytes.clone();
        torn[at] ^= 0x10;
        let (prefix, _) = decode_entries(&torn);
        assert!(
            prefix.len() <= full.len() && prefix[..] == full[..prefix.len()],
            "bit flip at {at}: decoder surfaced corrupt entries"
        );
        let (rejoiner, _) = recover_from_cut(&donor, &torn);
        assert_eq!(
            durable_map(&rejoiner),
            durable_map(&donor),
            "bit flip at {at}: durable states did not reconverge"
        );
    }
}

#[test]
fn volatile_rebuild_matches_durable_newest_at_every_cut() {
    let donor = donor_state();
    let full = donor.entries_since(0);
    let bytes = encode_entries(&full);
    for cut in 0..=bytes.len() {
        let (rejoiner, engine) = recover_from_cut(&donor, &bytes[..cut]);
        let durable = durable_map(&rejoiner);
        assert_eq!(engine.keys().len(), durable.len(), "cut at {cut}");
        for (key, (dts, dv)) in &durable {
            let rebuilt = (
                engine.record_meta(*key).volatile_ts,
                engine.record_value(*key),
            );
            assert_eq!(rebuilt, (*dts, Some(dv.clone())), "cut at {cut}, {key}");
        }
    }
}

#[test]
fn full_image_round_trips_completely() {
    let donor = donor_state();
    let bytes = encode_entries(&donor.entries_since(0));
    let (entries, outcome) = decode_entries(&bytes);
    assert_eq!(outcome, DecodeOutcome::Complete);
    assert_eq!(entries, donor.entries_since(0));
}
