//! # minos-check — conformance checking for every MINOS harness
//!
//! The verification layer of the reproduction (DESIGN.md §5): given any
//! run of any runtime — loopback, threaded cluster, TCP cluster, or the
//! DES simulators — decide whether the run *conforms* to the paper's
//! contract: linearizable consistency plus the chosen DDP persistency
//! model.
//!
//! The crate has four parts, composable independently:
//!
//! * [`history`] — operation histories. [`history::HistoryRecorder`]
//!   taps the observability layer's `OpAdmitted`/`OpCompleted` records
//!   into invocation/response intervals; drivers without a shared trace
//!   clock (TCP) record histories client-side instead.
//! * [`prepass`] + [`linearize`] — consistency. The pre-pass audits are
//!   fast necessary conditions with precise diagnostics; the
//!   [`linearize`] module is a *complete* per-key Wing & Gill search
//!   with memoized states (Porcupine-style) against the max-register
//!   sequential specification.
//! * [`persistency`] — the five DDP durability oracles, checked against
//!   end-of-run durable-log snapshots.
//! * [`schedule`] + [`torture`] — seeded chaos. A `u64` seed derives a
//!   deterministic injection schedule (message delays/reorders plus
//!   crash/rejoin points); the torture driver runs concurrent client
//!   traffic under it on either live runtime, checks everything, and
//!   greedily shrinks any failing schedule to a minimal reproduction. The `minos-torture`
//!   binary fronts this (`ci.sh --chaos` runs it).
//!
//! With the `fault-injection` feature, deliberate protocol bugs
//! ([`minos_types::FaultKind`]) can be armed through the runtime configs
//! — the mutation smoke test proving the checkers catch real
//! violations, not just vacuously passing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;
pub mod linearize;
pub mod persistency;
pub mod prepass;
pub mod schedule;
pub mod torture;

pub use history::{ClientOp, History, HistoryRecorder};
pub use persistency::{AuditMode, NodeLog};
pub use schedule::{CrashPoint, Schedule, ScheduleOptions};
pub use torture::{Failure, RunReport, TortureOptions, TortureResult};

/// Full consistency check: the necessary-condition pre-pass (precise
/// diagnostics) followed by the complete linearizability search.
#[must_use]
pub fn check_consistency(history: &History) -> Vec<String> {
    let mut v = prepass::audit(history);
    v.extend(linearize::check(history));
    v
}
