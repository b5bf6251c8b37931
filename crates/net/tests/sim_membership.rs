//! Scheduled crash/rejoin on the DES kernels: epoch progression, lost
//! frames to dead nodes, catch-up cost, and the rolling-restart
//! availability experiment.

use minos_core::runtime::{Baseline, Engine, Offload};
use minos_net::{driver, Arch, BSim, CostModel, OSim, Sim};
use minos_types::{DdpModel, Key, NodeId, NodeState, PersistencyModel, SimConfig};

fn synch() -> DdpModel {
    DdpModel::lin(PersistencyModel::Synchronous)
}

#[test]
fn bsim_crash_and_rejoin_advance_the_epoch_and_catch_up() {
    let mut sim = BSim::new(SimConfig::paper_defaults(), Arch::baseline(), synch());
    assert_eq!(sim.view_epoch(), 1);

    // A write completes before the crash.
    sim.submit_write(0, NodeId(0), Key(1), "pre".into(), None);
    // Node 2 dies at 1 ms, then writes continue against the survivors.
    sim.schedule_crash(1_000_000, NodeId(2));
    sim.submit_write(2_000_000, NodeId(0), Key(1), "during".into(), None);
    // Rejoin begins at 4 ms with node 0 as donor.
    sim.schedule_rejoin(4_000_000, NodeId(2), NodeId(0));
    sim.run_to_idle();

    assert_eq!(sim.view_epoch(), 3, "crash + completed rejoin = 2 bumps");
    assert!(sim.membership().is_serving(NodeId(2)));
    assert_eq!(
        sim.engine(NodeId(2)).record_value(Key(1)).unwrap(),
        "during",
        "donor catch-up restores the version written while down"
    );
    let writes = sim
        .drain_completions()
        .iter()
        .filter(|r| r.kind == minos_net::CompletionKind::Write)
        .count();
    assert_eq!(writes, 2, "both writes completed despite the outage");
}

#[test]
fn bsim_writes_during_outage_complete_on_the_shrunken_quorum() {
    let mut sim = BSim::new(SimConfig::paper_defaults(), Arch::baseline(), synch());
    sim.schedule_crash(0, NodeId(1));
    // Submitted after the crash fires: the Synchronous quorum must not
    // wait for the dead node's acknowledgment.
    sim.submit_write(10_000, NodeId(0), Key(5), "v".into(), None);
    sim.run_to_idle();
    let comps = sim.drain_completions();
    assert_eq!(comps.len(), 1, "write must complete against survivors");
    assert_eq!(sim.engine(NodeId(2)).record_value(Key(5)).unwrap(), "v");
}

#[test]
fn bsim_rejoin_pays_the_catchup_window() {
    // With a large record set, the rejoiner must re-enter strictly later
    // than the rejoin start: catch-up transfer time is charged.
    let mut sim = BSim::new(SimConfig::paper_defaults(), Arch::baseline(), synch());
    for k in 0..64u64 {
        sim.submit_write(0, NodeId(0), Key(k), vec![0u8; 1024].into(), None);
    }
    sim.schedule_crash(10_000_000, NodeId(2));
    sim.schedule_rejoin(20_000_000, NodeId(2), NodeId(0));
    sim.run_to_idle();
    assert!(sim.membership().is_serving(NodeId(2)));
    // The lease was granted at complete_rejoin time = 20 ms + catch-up.
    let granted = sim.membership().lease_expiry(NodeId(2)).unwrap() - sim.membership().lease_ns();
    assert!(
        granted > 20_000_000,
        "re-admittance at {granted} must be after rejoin start plus catch-up"
    );
}

#[test]
fn osim_quiesced_crash_rejoin_restores_state() {
    let mut sim = OSim::new(SimConfig::paper_defaults(), Arch::minos_o(), synch());
    sim.submit_write(0, NodeId(0), Key(1), "pre".into(), None);
    sim.run_to_idle();

    sim.schedule_crash(sim.now() + 1_000, NodeId(2));
    sim.schedule_rejoin(sim.now() + 2_000, NodeId(2), NodeId(0));
    sim.run_to_idle();

    assert_eq!(sim.view_epoch(), 3);
    assert!(sim.membership().is_serving(NodeId(2)));
    assert_eq!(
        sim.engine(NodeId(2)).record_value(Key(1)).unwrap(),
        "pre",
        "donor copy restores the record"
    );

    // Full-group quorums work again after the readmit.
    sim.submit_write(sim.now() + 1, NodeId(1), Key(1), "post".into(), None);
    sim.run_to_idle();
    let writes = sim
        .drain_completions()
        .iter()
        .filter(|r| r.kind == minos_net::CompletionKind::Write)
        .count();
    assert_eq!(writes, 2);
}

/// A second crash landing inside a node's catch-up window abandons the
/// rejoin: the pending re-admittance is cancelled (it used to panic, or
/// could re-admit the node before a later rejoin's transfer elapsed),
/// the node stays down at the same epoch, and a later rejoin brings it
/// back whole.
fn crash_inside_the_catch_up_window_abandons_the_rejoin<P: CostModel>(arch: Arch) {
    let n2 = NodeId(2);
    let mut sim = Sim::<P>::new(SimConfig::paper_defaults(), arch, synch());
    for k in 0..64u64 {
        sim.submit_write(0, NodeId(0), Key(k), vec![0u8; 1024].into(), None);
    }
    sim.schedule_crash(1_000_000, n2);
    sim.schedule_rejoin(4_000_000, n2, NodeId(0));
    sim.schedule_crash(4_000_001, n2);
    sim.run_to_idle();
    assert_eq!(sim.membership().state(n2).unwrap(), NodeState::Down);
    assert_eq!(sim.view_epoch(), 2, "an aborted catch-up burns no epoch");
    assert!(
        sim.engine(n2).keys().is_empty(),
        "the second crash lost the donor copy again"
    );

    let again = sim.now() + 1_000;
    sim.schedule_rejoin(again, n2, NodeId(0));
    sim.run_to_idle();
    assert!(sim.membership().is_serving(n2));
    assert_eq!(sim.view_epoch(), 3);
    assert_eq!(sim.engine(n2).keys().len(), 64, "all records caught up");
    // Re-admitted only after this rejoin's own transfer time.
    let granted = sim.membership().lease_expiry(n2).unwrap() - sim.membership().lease_ns();
    assert!(
        granted > again,
        "re-admitted at {granted}, rejoin began {again}"
    );
}

#[test]
fn crash_inside_the_catch_up_window_abandons_the_rejoin_on_both_protocols() {
    crash_inside_the_catch_up_window_abandons_the_rejoin::<Baseline>(Arch::baseline());
    crash_inside_the_catch_up_window_abandons_the_rejoin::<Offload>(Arch::minos_o());
}

#[test]
fn rolling_restart_measures_an_availability_dip() {
    let cfg = SimConfig::paper_defaults();
    let run = driver::run_rolling_restart(
        &cfg,
        synch(),
        400,     // writes per node
        20_000,  // one write per node per 20 µs
        200_000, // 200 µs outage per node
        64,      // key-space
        500_000, // 0.5 ms windows
    );
    assert_eq!(
        run.final_epoch,
        1 + 2 * cfg.nodes as u64,
        "every node burned one crash and one rejoin epoch"
    );
    assert!(run.submitted > 0);
    assert!(
        run.completed < run.submitted,
        "ops addressed to down nodes are lost: {}/{}",
        run.completed,
        run.submitted
    );
    assert!(
        run.availability() > 0.5,
        "most ops must survive a one-at-a-time rolling restart, got {}",
        run.availability()
    );
    assert!(run.dip_ratio() < 1.0, "the restart must dent throughput");
}
