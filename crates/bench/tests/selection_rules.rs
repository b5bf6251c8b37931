//! The two timeline selection rules side by side (`DESIGN.md` §4.4):
//! [`analyze`] picks an op's markers *by request*, [`assemble`] *by
//! trace*. On overlapping traced runs — DES and loopback, MINOS-B and
//! MINOS-O, all five persistency models — both rules must find the same
//! set of ops, and each rule's segments must tile every closed op's
//! `[admit, complete]` window exactly.
//!
//! The rules may still cut a window differently, and the by-trace rule
//! cannot close an op whose completion was recorded inside another
//! trace's dispatch; both gaps are measured in `DESIGN.md` §4.4 and left
//! to the PR that picks Fig. 4's rule (ROADMAP).

use minos_core::loopback::{BCluster, LoopProtocol, Loopback, OCluster};
use minos_core::obs::{analyze, assemble, shared, RingRecorder, SharedSink, Timeline, TraceRecord};
use minos_net::{run_open_loop_sharded_traced, Arch, ParMode};
use minos_types::{DdpModel, Key, NodeId, PersistencyModel, ScopeId, ShardMap, SimConfig, Value};
use minos_workload::openloop::{OpenLoopSpec, Scenario};
use std::collections::BTreeSet;

fn assert_rules_agree_on_ops(label: &str, records: &[TraceRecord]) {
    let by_request = analyze(records);
    let by_trace = assemble(records).timelines;
    assert!(!by_request.is_empty(), "{label}: no ops reconstructed");
    let ids = |ops: &[Timeline]| -> BTreeSet<(u16, u64)> {
        ops.iter().map(|t| (t.coordinator.0, t.req.0)).collect()
    };
    assert_eq!(
        ids(&by_request),
        ids(&by_trace),
        "{label}: the two rules found different ops"
    );
    assert_eq!(
        ids(&by_trace).len(),
        by_trace.len(),
        "{label}: duplicate op"
    );
    for (rule, ops) in [("by request", &by_request), ("by trace", &by_trace)] {
        for t in ops.iter().filter(|t| t.complete_ns.is_some()) {
            let tiled: u64 = t.segments.iter().map(|&(_, ns)| ns).sum();
            assert_eq!(
                tiled,
                t.total_ns(),
                "{label} {rule}: segments of node {} req {} do not tile its window",
                t.coordinator.0,
                t.req.0
            );
        }
    }
}

#[test]
fn rules_agree_on_des_ops_under_every_model() {
    let mut cfg = SimConfig::paper_defaults();
    cfg.nodes = 3;
    let spec = OpenLoopSpec::new(Scenario::YcsbA, 250_000.0)
        .with_records(16)
        .with_sessions(16)
        .with_total_ops(400);
    for arch in [Arch::baseline(), Arch::offload()] {
        for p in PersistencyModel::ALL {
            let ring = shared(RingRecorder::new(1 << 20));
            let sinks_for = |_group: u32| -> Vec<SharedSink> { vec![ring.clone()] };
            let run = run_open_loop_sharded_traced(
                arch,
                &cfg,
                DdpModel::lin(p),
                &spec,
                11,
                &ShardMap::uniform(1, 3, 3),
                ParMode::Single,
                Some(&sinks_for),
            );
            assert!(run.result.completed > 0);
            let records = ring.lock().unwrap().to_vec();
            assert_rules_agree_on_ops(&format!("des {arch:?} {p:?}"), &records);
        }
    }
}

/// Runs a mixed write/read workload, submitted up front so ops overlap,
/// on a traced 3-node loopback cluster.
fn loopback_records<P: LoopProtocol>(mut cl: Loopback<P>, p: PersistencyModel) -> Vec<TraceRecord> {
    let ring = shared(RingRecorder::new(1 << 20));
    cl.attach_tracer(vec![ring.clone()]);
    for i in 0..60u64 {
        let node = NodeId((i % 3) as u16);
        let scope = (p == PersistencyModel::Scope).then_some(ScopeId((i % 2) as u32));
        cl.submit_write(node, Key(i % 5), Value::from_static(b"v"), scope);
        cl.submit_read(node, Key(i % 4));
    }
    cl.run();
    let records = ring.lock().unwrap().to_vec();
    records
}

#[test]
fn rules_agree_on_loopback_ops_under_every_model() {
    for p in PersistencyModel::ALL {
        let model = DdpModel::lin(p);
        let b = loopback_records(BCluster::new(3, model), p);
        assert_rules_agree_on_ops(&format!("loopback b {p:?}"), &b);
        let o = loopback_records(OCluster::new(3, model), p);
        assert_rules_agree_on_ops(&format!("loopback o {p:?}"), &o);
    }
}
