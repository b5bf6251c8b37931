//! Torture coverage matrix for the open-loop scenario library.
//!
//! Every scenario the issue added (YCSB A/E/F with their RMW and scan
//! shapes, the compose flows, the WAN geo profile) runs a short seeded
//! sweep on the loopback clusters *and* the threaded runtime under all
//! five DDP persistency models, and every run must come back clean from
//! the full checker pipeline. Scenario ops decompose into the primitive
//! reads and writes the history already records — the point of the
//! matrix is that no scenario shape can smuggle in an op the checkers
//! cannot audit.

use minos_check::torture::{run_threaded, torture, TortureOptions};
use minos_check::{check_consistency, HistoryRecorder};
use minos_core::loopback::{BCluster, OCluster};
use minos_core::obs::{shared, SharedSink};
use minos_types::{DdpModel, Key, NodeId, PersistencyModel, ScopeId, Value};
use minos_workload::openloop::{OpenLoopSpec, Scenario, SessionOp};

const MODELS: [PersistencyModel; 5] = [
    PersistencyModel::Synchronous,
    PersistencyModel::Strict,
    PersistencyModel::ReadEnforced,
    PersistencyModel::Eventual,
    PersistencyModel::Scope,
];

/// The scenarios this PR added torture coverage for (B/C/D share their
/// point-op shapes with these and ride the same code paths).
const NEW_SCENARIOS: [Scenario; 5] = [
    Scenario::YcsbA,
    Scenario::YcsbE,
    Scenario::YcsbF,
    Scenario::Compose,
    Scenario::Geo,
];

/// A compact scenario schedule sized for a 3-node loopback cluster.
fn tiny_spec(scenario: Scenario) -> OpenLoopSpec {
    OpenLoopSpec::new(scenario, 1_000_000.0)
        .with_records(8)
        .with_sessions(6)
        .with_total_ops(48)
        .with_scan_max(4)
}

fn val(tag: u64) -> Value {
    Value::from(tag.to_le_bytes().to_vec())
}

/// Replays a scenario schedule against a loopback cluster, decomposing
/// every session op into the cluster's primitives: RMW → read + write,
/// scan → point-read fan-out, multi-write → adjacent single writes.
/// Returns how many primitive ops were submitted.
macro_rules! drive_loopback {
    ($cl:expr, $scenario:expr, $model:expr, $seed:expr) => {{
        let spec = tiny_spec($scenario);
        let schedule = spec.schedule($seed);
        let mut submitted = 0usize;
        for (idx, arr) in schedule.iter().enumerate() {
            let node = NodeId((arr.session % 3) as u16);
            let scoped = ($model == PersistencyModel::Scope && arr.session % 2 == 0)
                .then(|| ScopeId(u32::from(node.0)));
            match &arr.op {
                SessionOp::Write { key, .. } => {
                    $cl.submit_write(node, Key(key.0 % 8), val(idx as u64), scoped);
                    submitted += 1;
                }
                SessionOp::Rmw { key, .. } => {
                    $cl.submit_read(node, Key(key.0 % 8));
                    $cl.submit_write(node, Key(key.0 % 8), val(idx as u64), scoped);
                    submitted += 2;
                }
                SessionOp::Read { key } => {
                    $cl.submit_read(node, Key(key.0 % 8));
                    submitted += 1;
                }
                SessionOp::Scan { start, len } => {
                    for j in 0..*len {
                        $cl.submit_read(node, Key((start.0 + u64::from(j)) % 8));
                        submitted += 1;
                    }
                }
                SessionOp::MultiWrite { keys, .. } => {
                    for k in keys {
                        $cl.submit_write(node, Key(k.0 % 8), val(idx as u64), scoped);
                        submitted += 1;
                    }
                }
            }
            if idx % 8 == 7 {
                $cl.run();
            }
        }
        // Scope runs flush each node's scope so the scoped writes reach
        // the persistency oracles' checked state.
        if $model == PersistencyModel::Scope {
            for n in 0..3u16 {
                $cl.submit_persist_scope(NodeId(n), ScopeId(u32::from(n)));
            }
        }
        $cl.run();
        submitted
    }};
}

#[test]
fn loopback_b_runs_every_new_scenario_under_every_model() {
    for scenario in NEW_SCENARIOS {
        for model in MODELS {
            let recorder = shared(HistoryRecorder::new());
            let sink: SharedSink = recorder.clone();
            let mut cl = BCluster::new(3, DdpModel::lin(model));
            cl.attach_tracer(vec![sink]);
            let submitted = drive_loopback!(cl, scenario, model, 21);
            let history = recorder.lock().unwrap().snapshot();
            assert!(
                history.completed().count() >= submitted,
                "{scenario}/{model:?}: only {} of {submitted} ops completed",
                history.completed().count()
            );
            let violations = check_consistency(&history);
            assert!(
                violations.is_empty(),
                "{scenario}/{model:?}: {violations:?}"
            );
        }
    }
}

#[test]
fn loopback_o_runs_every_new_scenario_under_every_model() {
    for scenario in NEW_SCENARIOS {
        for model in MODELS {
            let recorder = shared(HistoryRecorder::new());
            let sink: SharedSink = recorder.clone();
            let mut cl = OCluster::new(3, DdpModel::lin(model));
            cl.attach_tracer(vec![sink]);
            cl.set_scramble(5);
            let submitted = drive_loopback!(cl, scenario, model, 22);
            let history = recorder.lock().unwrap().snapshot();
            assert!(
                history.completed().count() >= submitted,
                "{scenario}/{model:?}: only {} of {submitted} ops completed",
                history.completed().count()
            );
            let violations = check_consistency(&history);
            assert!(
                violations.is_empty(),
                "{scenario}/{model:?}: {violations:?}"
            );
        }
    }
}

#[test]
fn threaded_torture_runs_every_new_scenario_under_every_model() {
    for scenario in NEW_SCENARIOS {
        for model in MODELS {
            let mut opts = TortureOptions::new(model).with_workload(scenario);
            opts.clients = 2;
            opts.ops_per_client = 6;
            let result = torture(1, 1, &opts, run_threaded, false);
            assert!(
                result.failure.is_none(),
                "{scenario}/{model:?}: {:?}",
                result.failure.map(|f| f.violations)
            );
            assert!(result.ops_checked > 0, "{scenario}/{model:?}: empty run");
        }
    }
}

#[test]
fn threaded_torture_skew_storm_hammers_the_hot_head() {
    // The skew storm survives a crash/rejoin seed with 60% of traffic on
    // a two-key head — maximal write contention on minimal state.
    let mut opts = TortureOptions::new(PersistencyModel::Synchronous).with_workload(Scenario::Skew);
    opts.clients = 3;
    opts.ops_per_client = 10;
    let result = torture(1, 2, &opts, run_threaded, false);
    assert!(
        result.failure.is_none(),
        "{:?}",
        result.failure.map(|f| f.violations)
    );
}

#[test]
fn torture_workload_mixes_are_deterministic_per_seed() {
    // Two identical campaigns over the same seed must check the same
    // number of ops: the scenario roll draws from the same seeded rng.
    let mut opts =
        TortureOptions::new(PersistencyModel::Synchronous).with_workload(Scenario::YcsbA);
    opts.clients = 2;
    opts.ops_per_client = 6;
    opts.allow_crash = false;
    opts.injections = 0;
    let a = torture(5, 1, &opts, run_threaded, false);
    let b = torture(5, 1, &opts, run_threaded, false);
    assert!(a.failure.is_none() && b.failure.is_none());
    assert_eq!(a.ops_checked, b.ops_checked);
}
