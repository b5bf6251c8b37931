//! Cross-harness conformance: every harness in the workspace feeds the
//! same checkers.
//!
//! * Loopback clusters (`BCluster`/`OCluster`) and the DES simulators
//!   (`BSim`/`OSim`) produce histories through the observability tap;
//!   their runs must linearize under every model.
//! * The threaded cluster and the TCP runtime run full torture seeds
//!   (chaos schedules, crashes, durable-log audits) and must come back
//!   clean.
//! * With `--features fault-injection`, a seeded protocol fault must be
//!   *found* by the same pipeline — the checkers are themselves checked.

use minos_check::torture::{run_tcp, run_threaded, torture};
use minos_check::{check_consistency, HistoryRecorder, Schedule, TortureOptions};
use minos_core::loopback::{BCluster, OCluster};
use minos_core::obs::{shared, SharedSink};
use minos_net::{Arch, BSim, OSim};
use minos_types::{DdpModel, Key, NodeId, PersistencyModel, ScopeId, SimConfig, Value};

const MODELS: [PersistencyModel; 5] = [
    PersistencyModel::Synchronous,
    PersistencyModel::Strict,
    PersistencyModel::ReadEnforced,
    PersistencyModel::Eventual,
    PersistencyModel::Scope,
];

fn val(tag: u64) -> Value {
    Value::from(tag.to_le_bytes().to_vec())
}

/// A fixed mixed workload: interleaved writes and reads on a few keys
/// from every node, plus scope flushes when the model has them.
fn drive_loopback_b(cl: &mut BCluster, model: PersistencyModel) {
    for round in 0..6u64 {
        for node in 0..3u16 {
            let key = Key(round % 3);
            let scope = (model == PersistencyModel::Scope && round % 2 == 0)
                .then_some(ScopeId(u32::from(node)));
            cl.submit_write(NodeId(node), key, val(round * 10 + u64::from(node)), scope);
            cl.submit_read(NodeId((node + 1) % 3), key);
            if model == PersistencyModel::Scope && round == 4 {
                cl.submit_persist_scope(NodeId(node), ScopeId(u32::from(node)));
            }
        }
        cl.run();
    }
}

#[test]
fn loopback_bcluster_histories_linearize_under_every_model() {
    for model in MODELS {
        for scramble in [0u64, 7, 0xdead_beef] {
            let recorder = shared(HistoryRecorder::new());
            let sink: SharedSink = recorder.clone();
            let mut cl = BCluster::new(3, DdpModel::lin(model));
            cl.attach_tracer(vec![sink]);
            if scramble != 0 {
                cl.set_scramble(scramble);
            }
            drive_loopback_b(&mut cl, model);
            let history = recorder.lock().unwrap().snapshot();
            assert!(
                history.completed().count() >= 30,
                "{model:?}/{scramble}: workload did not complete"
            );
            let violations = check_consistency(&history);
            assert!(
                violations.is_empty(),
                "{model:?} scramble {scramble}: {violations:?}"
            );
        }
    }
}

#[test]
fn loopback_ocluster_histories_linearize_under_every_model() {
    for model in MODELS {
        let recorder = shared(HistoryRecorder::new());
        let sink: SharedSink = recorder.clone();
        let mut cl = OCluster::new(3, DdpModel::lin(model));
        cl.attach_tracer(vec![sink]);
        cl.set_scramble(11);
        for round in 0..6u64 {
            for node in 0..3u16 {
                let key = Key(round % 3);
                cl.submit_write(NodeId(node), key, val(round * 10 + u64::from(node)), None);
                cl.submit_read(NodeId((node + 1) % 3), key);
            }
            cl.run();
        }
        let history = recorder.lock().unwrap().snapshot();
        let violations = check_consistency(&history);
        assert!(violations.is_empty(), "{model:?}: {violations:?}");
    }
}

#[test]
fn des_simulators_produce_linearizable_histories() {
    let mut cfg = SimConfig::paper_defaults();
    cfg.nodes = 3;
    for model in [PersistencyModel::Synchronous, PersistencyModel::Eventual] {
        // MINOS-B timing simulator.
        let recorder = shared(HistoryRecorder::new());
        let sink: SharedSink = recorder.clone();
        let mut sim = BSim::new(cfg.clone(), Arch::baseline(), DdpModel::lin(model));
        sim.attach_tracer(vec![sink]);
        let mut at = 0;
        for round in 0..8u64 {
            for node in 0..3u16 {
                let key = Key(round % 2);
                sim.submit_write(
                    at,
                    NodeId(node),
                    key,
                    val(round * 10 + u64::from(node)),
                    None,
                );
                at += 300;
                sim.submit_read(at, NodeId((node + 2) % 3), key);
                at += 300;
            }
        }
        sim.run_to_idle();
        let history = recorder.lock().unwrap().snapshot();
        let violations = check_consistency(&history);
        assert!(violations.is_empty(), "BSim {model:?}: {violations:?}");

        // MINOS-O offloaded simulator.
        let recorder = shared(HistoryRecorder::new());
        let sink: SharedSink = recorder.clone();
        let mut sim = OSim::new(cfg.clone(), Arch::minos_o(), DdpModel::lin(model));
        sim.attach_tracer(vec![sink]);
        let mut at = 0;
        for round in 0..8u64 {
            for node in 0..3u16 {
                let key = Key(round % 2);
                sim.submit_write(
                    at,
                    NodeId(node),
                    key,
                    val(round * 10 + u64::from(node)),
                    None,
                );
                at += 300;
                sim.submit_read(at, NodeId((node + 2) % 3), key);
                at += 300;
            }
        }
        sim.run_to_idle();
        let history = recorder.lock().unwrap().snapshot();
        let violations = check_consistency(&history);
        assert!(violations.is_empty(), "OSim {model:?}: {violations:?}");
    }
}

#[test]
fn threaded_torture_chaos_seeds_run_clean() {
    // Seed 3 draws a crash/recovery schedule; 1 and 2 are chaos-only.
    for model in [PersistencyModel::Synchronous, PersistencyModel::Eventual] {
        let mut opts = TortureOptions::new(model);
        opts.clients = 2;
        opts.ops_per_client = 8;
        let result = torture(1, 3, &opts, run_threaded, false);
        assert!(
            result.failure.is_none(),
            "{model:?}: {:?}",
            result.failure.map(|f| f.violations)
        );
        assert!(result.ops_checked > 0);
    }
}

#[test]
fn sharded_threaded_torture_seeds_run_clean() {
    // 2 shards × 2 replicas over 4 nodes: the workload mixes in
    // multi-key cross-shard writes, crashes fail over inside the
    // replica group, and the oracles audit per the placement map.
    for model in [PersistencyModel::Synchronous, PersistencyModel::Scope] {
        let mut opts = TortureOptions::new(model);
        opts.nodes = 4;
        opts.clients = 2;
        opts.ops_per_client = 8;
        let opts = opts.sharded(2, 2);
        let result = torture(1, 3, &opts, run_threaded, false);
        assert!(
            result.failure.is_none(),
            "{model:?}: {:?}",
            result.failure.map(|f| f.violations)
        );
        assert!(result.ops_checked > 0);
    }
}

#[test]
fn threaded_torture_scope_flushes_run_clean() {
    let mut opts = TortureOptions::new(PersistencyModel::Scope);
    opts.clients = 2;
    opts.ops_per_client = 8;
    let result = torture(1, 2, &opts, run_threaded, false);
    assert!(
        result.failure.is_none(),
        "{:?}",
        result.failure.map(|f| f.violations)
    );
}

#[test]
fn tcp_torture_seed_runs_clean() {
    let mut opts = TortureOptions::new(PersistencyModel::Strict);
    opts.clients = 2;
    opts.ops_per_client = 6;
    let result = torture(1, 1, &opts, run_tcp, false);
    assert!(
        result.failure.is_none(),
        "{:?}",
        result.failure.map(|f| f.violations)
    );
}

/// The mutation smoke: with a protocol fault armed, the pipeline must
/// find a violating schedule and shrink it. This is the test of the
/// checkers themselves — a checker that cannot see a dropped persist is
/// vacuous.
#[cfg(feature = "fault-injection")]
#[test]
fn armed_fault_is_found_and_shrunk() {
    use minos_types::{FaultKind, FaultSpec};
    for (kind, node) in [(FaultKind::SkipInv, 0), (FaultKind::PhantomPersist, 1)] {
        let mut opts = TortureOptions::new(PersistencyModel::Synchronous);
        opts.clients = 2;
        opts.ops_per_client = 8;
        opts.fault = Some(FaultSpec { node, kind });
        let result = torture(1, 100, &opts, run_threaded, false);
        let failure = result
            .failure
            .unwrap_or_else(|| panic!("{kind:?}@{node}: no violation in 100 seeds"));
        assert!(!failure.violations.is_empty());
        // The faults fire during the sequential warm-up, so no chaos is
        // needed to expose them: shrinking must reach the empty schedule.
        assert_eq!(failure.shrunk.weight(), 0, "{:?}", failure.shrunk);
    }
}

#[test]
fn shrunk_schedules_replay_deterministically() {
    // A schedule's spec() must be a pure function of its fields: generate
    // the same seed twice and the injections must match.
    let opts = TortureOptions::new(PersistencyModel::Synchronous);
    let sched_opts = opts.schedule_options();
    let a = minos_check::schedule::generate(42, &sched_opts);
    let b = minos_check::schedule::generate(42, &sched_opts);
    assert_eq!(a.injections, b.injections);
    assert_eq!(format!("{a}"), format!("{b}"));
    let _ = Schedule::empty(7);
}
