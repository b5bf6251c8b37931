//! Crash/rejoin view changes on the loopback clusters: epoch
//! progression, quorum shrink/regrow, donor catch-up, and the quiesced
//! O-cluster variant.

use minos_core::loopback::{BCluster, LoopProtocol, Loopback, OCluster};
use minos_core::runtime::{Baseline, Engine, Offload};
use minos_types::{DdpModel, Key, NodeId, NodeState, PersistencyModel, ShardMap};

const ALL_MODELS: [PersistencyModel; 5] = [
    PersistencyModel::Synchronous,
    PersistencyModel::Strict,
    PersistencyModel::ReadEnforced,
    PersistencyModel::Eventual,
    PersistencyModel::Scope,
];

/// Crash → (optionally a write against the shrunken quorum) → rejoin
/// from node 0 → fresh write, on either protocol's loopback cluster.
/// MINOS-O quorums span the full group, so only MINOS-B can write
/// during the outage.
fn crash_and_rejoin_restore_state<P: LoopProtocol>(write_during_outage: bool) {
    for pm in ALL_MODELS {
        let mut cl = Loopback::<P>::new(3, DdpModel::lin(pm));
        assert_eq!(cl.view_epoch(), 1, "[{pm:?}]");

        let r = cl.submit_write(NodeId(0), Key(1), "pre".into(), None);
        cl.run();
        assert!(cl.write_completed(r), "[{pm:?}]");

        cl.crash_node(NodeId(2));
        assert_eq!(cl.view_epoch(), 2, "[{pm:?}] crash bumps the epoch");
        assert_eq!(
            cl.membership().state(NodeId(2)).unwrap(),
            NodeState::Down,
            "[{pm:?}]"
        );
        // Volatile loss: the crashed engine forgot the record.
        assert!(cl.engine(NodeId(2)).record_value(Key(1)).is_none());

        let mut latest = "pre";
        if write_during_outage {
            // Writes complete against the two-node quorum.
            let r = cl.submit_write(NodeId(0), Key(1), "during".into(), None);
            cl.run();
            assert!(cl.write_completed(r), "[{pm:?}] write during the outage");
            latest = "during";
        }

        cl.rejoin_node(NodeId(2), NodeId(0));
        assert_eq!(cl.view_epoch(), 3, "[{pm:?}] rejoin bumps the epoch");
        assert!(cl.membership().is_serving(NodeId(2)), "[{pm:?}]");
        // Donor catch-up restored the latest version.
        assert_eq!(
            cl.engine(NodeId(2)).record_value(Key(1)).unwrap(),
            latest,
            "[{pm:?}]"
        );

        // The re-admitted replica participates again: a fresh write
        // converges on all three nodes.
        let r = cl.submit_write(NodeId(1), Key(1), "post".into(), None);
        cl.run();
        assert!(cl.write_completed(r), "[{pm:?}]");
        assert_eq!(cl.assert_converged(Key(1)), "post", "[{pm:?}]");
    }
}

#[test]
fn bcluster_crash_shrinks_quorum_and_rejoin_catches_up() {
    crash_and_rejoin_restore_state::<Baseline>(true);
}

#[test]
fn bcluster_crash_mid_flight_unblocks_synchronous_writes() {
    // A Synchronous write is submitted, the queue is drained only until
    // the prepare fan-out is in flight, then a replica dies: marking it
    // failed must let the write complete against the survivors.
    let mut cl = BCluster::new(3, DdpModel::lin(PersistencyModel::Synchronous));
    cl.auto_persist = true;
    let r = cl.submit_write(NodeId(0), Key(7), "v".into(), None);
    // Deliver just the client event so the fan-out is pending.
    cl.step();
    cl.crash_node(NodeId(1));
    cl.run();
    assert!(
        cl.write_completed(r),
        "write must complete against the shrunken quorum"
    );
    assert_eq!(cl.engine(NodeId(2)).record_value(Key(7)).unwrap(), "v");
}

#[test]
fn sharded_bcluster_rejoin_restores_only_the_nodes_shards() {
    let map = ShardMap::uniform(4, 8, 2);
    let mut cl = BCluster::with_placement(map.clone(), DdpModel::lin(PersistencyModel::Strict));
    for k in 0..8u64 {
        cl.submit_write(NodeId(0), Key(k), format!("v{k}").into(), None);
    }
    cl.run();

    cl.crash_node(NodeId(1));
    cl.rejoin_node(NodeId(1), NodeId(0));
    for k in 0..8u64 {
        let holds = cl.engine(NodeId(1)).record_value(Key(k)).is_some();
        assert_eq!(
            holds,
            map.is_replica(NodeId(1), Key(k)),
            "rejoin catch-up must respect the placement (key {k})"
        );
    }
}

#[test]
fn ocluster_quiesced_crash_rejoin_restores_state() {
    crash_and_rejoin_restore_state::<Offload>(false);
}

#[test]
#[should_panic(expected = "quiesced")]
fn ocluster_crash_with_inflight_ops_is_rejected() {
    let mut cl = OCluster::new(3, DdpModel::lin(PersistencyModel::Synchronous));
    cl.submit_write(NodeId(0), Key(1), "v".into(), None);
    cl.step(); // fan-out in flight
    cl.crash_node(NodeId(2));
}
