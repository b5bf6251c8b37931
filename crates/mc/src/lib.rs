//! Explicit-state model checking for the MINOS protocols (§VI).
//!
//! The paper verifies MINOS-B and MINOS-O with TLA+/TLC against the
//! correctness conditions of Table I. This crate does the equivalent —
//! arguably stronger, because the checked artifact is the *shipped Rust
//! implementation* rather than a hand-translated specification: it
//! exhaustively explores every interleaving of message deliveries, persist
//! completions, FIFO drains, and deferred client-write starts of a small
//! cluster of real [`minos_core::NodeEngine`] / [`minos_core::ONodeEngine`]
//! instances, checking invariants in every reached state.
//!
//! The checked conditions (see [`invariants`]) map onto Table I:
//!
//! 1. **Concurrency** — no deadlock (terminal states are quiescent, every
//!    client operation completed) and no livelock (the state space of a
//!    finite workload is finite and exploration terminates).
//! 2. **Consistency** — (a) when a record is read-unlocked on every node,
//!    its `volatileTS` and `glb_volatileTS` agree across all nodes;
//!    (b) when all consistency ACKs for a write have been received, every
//!    node's `volatileTS` has reached that write; (c) `glb_volatileTS`
//!    never exceeds `volatileTS` and never exceeds a write that is not yet
//!    globally acknowledged.
//! 3. **Persistency** — when read-unlocked everywhere, `glb_durableTS`
//!    agrees across nodes; `glb_durableTS` never exceeds `glb_volatileTS`.
//! 4. **Type checks** — only messages legal for the model are sent, ack
//!    sender sets are subsets of the peer set, lock/timestamp fields stay
//!    in range.
//!
//! # Example
//!
//! ```
//! use minos_mc::{check_baseline, Workload};
//! use minos_types::{DdpModel, PersistencyModel};
//!
//! let report = check_baseline(
//!     DdpModel::lin(PersistencyModel::Synchronous),
//!     &Workload::two_conflicting_writes(),
//!     100_000,
//! );
//! assert!(report.ok(), "{report}");
//! assert!(report.states_explored > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;
pub mod invariants;
mod system;
mod workload;

pub use explore::{McReport, Violation};
pub use system::{
    check_baseline, check_baseline_no_snatch, check_baseline_replicated, check_offload,
};
pub use workload::Workload;
