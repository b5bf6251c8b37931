//! Integration tests for MINOS-KV: the client-facing store semantics,
//! durability, and §III-E failure/recovery.

use minos_core::NodeEngine;
use minos_kv::{hash_key, recovery, DurableState, MinosKv};
use minos_types::{DdpModel, MinosError, NodeId, PersistencyModel, ScopeId, Ts};

fn synch() -> DdpModel {
    DdpModel::lin(PersistencyModel::Synchronous)
}

#[test]
fn put_then_get_from_every_replica() {
    for model in DdpModel::all_lin() {
        if model.persistency == PersistencyModel::Scope {
            continue; // covered by scoped tests below
        }
        let mut kv = MinosKv::new(5, model);
        kv.put(NodeId(0), "k", "v").unwrap();
        for n in 0..5 {
            assert_eq!(
                kv.get(NodeId(n), "k").unwrap().unwrap(),
                "v",
                "{model} node {n}"
            );
        }
    }
}

#[test]
fn get_of_absent_key_is_none() {
    let mut kv = MinosKv::new(3, synch());
    assert_eq!(kv.get(NodeId(1), "nothing").unwrap(), None);
}

#[test]
fn overwrites_are_visible_everywhere() {
    let mut kv = MinosKv::new(3, synch());
    kv.put(NodeId(0), "k", "v1").unwrap();
    kv.put(NodeId(1), "k", "v2").unwrap();
    kv.put(NodeId(2), "k", "v3").unwrap();
    for n in 0..3 {
        assert_eq!(kv.get(NodeId(n), "k").unwrap().unwrap(), "v3");
    }
}

#[test]
fn put_returns_increasing_timestamps() {
    let mut kv = MinosKv::new(2, synch());
    let t1 = kv.put(NodeId(0), "k", "a").unwrap();
    let t2 = kv.put(NodeId(1), "k", "b").unwrap();
    let t3 = kv.put(NodeId(0), "k", "c").unwrap();
    assert!(t2 > t1);
    assert!(t3 > t2);
}

#[test]
fn synch_puts_are_durable_on_every_node() {
    let mut kv = MinosKv::new(3, synch());
    let ts = kv.put(NodeId(0), "k", "v").unwrap();
    let key = hash_key("k");
    for n in 0..3 {
        let (dts, dval) = kv.durable(NodeId(n)).durable(key).unwrap();
        assert_eq!(*dts, ts, "node {n}");
        assert_eq!(dval, "v", "node {n}");
    }
}

#[test]
fn eventual_puts_complete_then_persist_in_background() {
    let mut kv = MinosKv::new(3, DdpModel::lin(PersistencyModel::Eventual));
    kv.put(NodeId(0), "k", "v").unwrap();
    // The facade drives the cluster to quiescence, so background persists
    // have landed by the time put() returns.
    let key = hash_key("k");
    for n in 0..3 {
        assert!(kv.durable(NodeId(n)).durable(key).is_some(), "node {n}");
    }
}

#[test]
fn scoped_writes_flush_with_persist_scope() {
    let mut kv = MinosKv::new(3, DdpModel::lin(PersistencyModel::Scope));
    let sc = ScopeId(1);
    kv.put_scoped(NodeId(0), "a", "1", Some(sc)).unwrap();
    kv.put_scoped(NodeId(0), "b", "2", Some(sc)).unwrap();
    kv.persist_scope(NodeId(0), sc).unwrap();
    for n in 0..3 {
        let meta = kv.engine(NodeId(n)).record_meta(hash_key("a"));
        assert!(
            meta.glb_durable_ts > Ts::zero(),
            "node {n}: scope flush must raise glb_durableTS"
        );
    }
}

#[test]
fn failed_node_rejects_requests() {
    let mut kv = MinosKv::new(3, synch());
    kv.put(NodeId(0), "k", "v").unwrap();
    kv.fail_node(NodeId(2));
    assert_eq!(
        kv.put(NodeId(2), "k", "x").unwrap_err(),
        MinosError::NodeFailed(NodeId(2))
    );
    assert_eq!(
        kv.get(NodeId(2), "k").unwrap_err(),
        MinosError::NodeFailed(NodeId(2))
    );
}

#[test]
fn cluster_survives_a_node_failure() {
    let mut kv = MinosKv::new(3, synch());
    kv.put(NodeId(0), "k", "before").unwrap();
    kv.fail_node(NodeId(2));
    // Quorums shrink: the write completes with one follower.
    kv.put(NodeId(0), "k", "during").unwrap();
    assert_eq!(kv.get(NodeId(1), "k").unwrap().unwrap(), "during");
}

#[test]
fn recovery_ships_missed_updates() {
    let mut kv = MinosKv::new(3, synch());
    kv.put(NodeId(0), "a", "1").unwrap();
    kv.fail_node(NodeId(2));
    kv.put(NodeId(0), "a", "2").unwrap();
    kv.put(NodeId(1), "b", "3").unwrap();
    kv.recover_node(NodeId(2), NodeId(0));
    // The rejoined node serves reads with the post-failure state.
    assert_eq!(kv.get(NodeId(2), "a").unwrap().unwrap(), "2");
    assert_eq!(kv.get(NodeId(2), "b").unwrap().unwrap(), "3");
    // And participates in new writes again.
    kv.put(NodeId(2), "c", "4").unwrap();
    assert_eq!(kv.get(NodeId(0), "c").unwrap().unwrap(), "4");
}

#[test]
fn recovery_does_not_resurrect_stale_values() {
    let mut kv = MinosKv::new(3, synch());
    kv.put(NodeId(0), "k", "old").unwrap();
    kv.fail_node(NodeId(2));
    kv.put(NodeId(0), "k", "new").unwrap();
    kv.recover_node(NodeId(2), NodeId(1));
    assert_eq!(kv.get(NodeId(2), "k").unwrap().unwrap(), "new");
    let key = hash_key("k");
    let (ts, val) = kv.durable(NodeId(2)).durable(key).unwrap().clone();
    assert_eq!(val, "new");
    assert_eq!(ts.version, 2);
}

#[test]
fn recovery_module_round_trip() {
    let mut kv = MinosKv::new(2, synch());
    kv.put(NodeId(0), "x", "1").unwrap();
    kv.put(NodeId(1), "x", "2").unwrap();
    kv.put(NodeId(0), "y", "3").unwrap();
    let shipment = kv.durable(NodeId(0)).entries_since(0);
    let (mut durable, mut engine) = (DurableState::new(), NodeEngine::new(NodeId(1), 2, synch()));
    recovery::recover_into(&mut durable, &shipment, &mut engine);
    assert_eq!(engine.keys().len(), 2);
    let x = engine.record_value(hash_key("x")).unwrap();
    assert_eq!(x, "2", "newest version wins");
}

#[test]
fn many_keys_many_nodes_stress() {
    let mut kv = MinosKv::new(4, synch());
    for i in 0..50u32 {
        let node = NodeId((i % 4) as u16);
        kv.put(node, format!("key{}", i % 7), format!("val{i}"))
            .unwrap();
    }
    for i in 0..7u32 {
        let name = format!("key{i}");
        let v0 = kv.get(NodeId(0), &name).unwrap();
        for n in 1..4 {
            assert_eq!(kv.get(NodeId(n), &name).unwrap(), v0, "{name} node {n}");
        }
    }
}

#[test]
fn stats_reflect_traffic() {
    let mut kv = MinosKv::new(3, synch());
    kv.put(NodeId(0), "k", "v").unwrap();
    let s = kv.stats(NodeId(0));
    assert_eq!(s.writes, 1);
    assert_eq!(s.invs_sent, 2);
    assert!(kv.stats(NodeId(1)).acks_sent >= 1);
}
