//! §III-E recovery: log replay and volatile-state rebuild.
//!
//! When a failed node `F` rejoins, "a designated node sends to F a
//! message with the log of all the updates that have been committed since
//! the time when F stopped responding. F then applies the updates to its
//! local persistent and volatile state." [`recover_into`] is that second
//! sentence, and the only copy of it: [`crate::MinosKv::recover_node`] and
//! the live node in `minos-cluster` (threaded revive, re-replication
//! install, TCP start-up rejoin) all call it.

use crate::durable::DurableState;
use minos_core::NodeEngine;
use minos_nvm::LogEntry;

/// Replays shipped `entries` into `durable` (obsolete versions skipped,
/// so the newest version of each key wins), then raises `engine`'s
/// volatile replica to the durable state wherever it lags behind.
/// Returns how many entries the durable database applied.
///
/// A fresh engine (a crash wiped it) lags everywhere and is rebuilt
/// whole. A live engine persists a version only after applying it, so it
/// lags exactly on what was just shipped (the records of a shard it is
/// joining); everything else — in particular the global-durability
/// watermarks of its in-flight writes — is left alone. Recovered updates
/// are already globally consistent and durable, so they are installed
/// directly, with no protocol traffic.
pub fn recover_into(
    durable: &mut DurableState,
    entries: &[LogEntry],
    engine: &mut NodeEngine,
) -> usize {
    let applied = durable.replay(entries);
    for (key, (ts, value)) in durable.iter_durable() {
        if *ts > engine.record_meta(*key).volatile_ts {
            engine.install_recovered(*key, *ts, value.clone());
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_core::{Action, Event, ReqId};
    use minos_types::{DdpModel, Key, NodeId, PersistencyModel, Ts, Value};

    fn ts(n: u16, v: u32) -> Ts {
        Ts::new(NodeId(n), v)
    }

    fn fresh_engine() -> NodeEngine {
        NodeEngine::new(NodeId(1), 2, DdpModel::lin(PersistencyModel::Synchronous))
    }

    fn volatile(engine: &NodeEngine) -> Vec<(Key, Ts, Value)> {
        let mut keys = engine.keys();
        keys.sort();
        keys.into_iter()
            .map(|k| {
                let ts = engine.record_meta(k).volatile_ts;
                (k, ts, engine.record_value(k).unwrap())
            })
            .collect()
    }

    #[test]
    fn shipment_respects_watermark() {
        let mut donor = DurableState::new();
        donor.persist(Key(1), ts(0, 1), "a".into());
        donor.persist(Key(2), ts(0, 1), "b".into());
        donor.persist(Key(1), ts(0, 2), "c".into());
        // The donor ships the suffix from the rejoiner's watermark; only
        // that suffix reaches the rejoiner's durable and volatile state.
        for (watermark, shipped, keys) in [(0, 3, 2), (2, 1, 1), (99, 0, 0)] {
            let (mut durable, mut engine) = (DurableState::new(), fresh_engine());
            let suffix = donor.entries_since(watermark);
            assert_eq!(suffix.len(), shipped);
            recover_into(&mut durable, &suffix, &mut engine);
            assert_eq!(durable.head(), shipped as u64);
            assert_eq!(volatile(&engine).len(), keys, "watermark {watermark}");
        }
    }

    #[test]
    fn rebuild_keeps_newest_per_key() {
        let mut donor = DurableState::new();
        donor.persist(Key(1), ts(0, 1), "old".into());
        donor.persist(Key(1), ts(1, 1), "tie-winner".into());
        donor.persist(Key(2), ts(0, 5), "only".into());
        let (mut durable, mut engine) = (DurableState::new(), fresh_engine());
        let applied = recover_into(&mut durable, &donor.entries_since(0), &mut engine);
        assert_eq!(applied, 3);
        assert_eq!(
            volatile(&engine),
            vec![
                (Key(1), ts(1, 1), "tie-winner".into()),
                (Key(2), ts(0, 5), "only".into()),
            ]
        );
    }

    #[test]
    fn rebuild_of_empty_shipment_is_empty() {
        let (mut durable, mut engine) = (DurableState::new(), fresh_engine());
        assert_eq!(recover_into(&mut durable, &[], &mut engine), 0);
        assert!(volatile(&engine).is_empty());
        assert_eq!(durable.durable_records(), 0);
    }

    #[test]
    fn live_engine_is_raised_only_where_it_lags() {
        let (mut durable, mut engine) = (DurableState::new(), fresh_engine());
        // A write in flight at this node: applied and persisted locally,
        // not yet acknowledged by its follower. Recovery of an unrelated
        // shipment must not declare it globally durable.
        let mut out = Vec::new();
        let write = Event::ClientWrite {
            key: Key(1),
            value: "mine".into(),
            scope: None,
            req: ReqId(1),
        };
        engine.on_event(write, &mut out);
        let Some(Action::Defer { event: start, .. }) = out.pop() else {
            panic!("client write defers its start");
        };
        engine.on_event(start, &mut out);
        for act in out {
            if let Action::Persist { key, ts, value, .. } = act {
                durable.persist(key, ts, value);
            }
        }
        let before = engine.record_meta(Key(1));
        assert_eq!(durable.durable(Key(1)).unwrap().0, before.volatile_ts);
        assert!(before.glb_durable_ts < before.volatile_ts);
        let mut donor = DurableState::new();
        donor.persist(Key(2), ts(1, 4), "shipped".into());
        recover_into(&mut durable, &donor.entries_since(0), &mut engine);
        assert_eq!(engine.record_meta(Key(1)), before);
        assert_eq!(engine.record_value(Key(2)).unwrap(), "shipped");
    }
}
