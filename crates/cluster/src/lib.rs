//! The threaded MINOS-B runtime: the workspace's stand-in for the paper's
//! real 5-node CloudLab machine (Table II).
//!
//! One OS thread per node runs a [`minos_core::NodeEngine`] plus a
//! [`minos_kv::DurableState`]; crossbeam channels plus a delay wheel play
//! the role of eRPC over FDR InfiniBand (a message channel with
//! microsecond-scale latency). Heartbeat timeouts detect failed nodes
//! (§III-E); recovery ships the durable-log suffix from a designated
//! donor and re-admits the node.
//!
//! This runtime demonstrates the protocols under *real* concurrency —
//! preemption, cross-thread message races, genuinely parallel coordinators
//! — complementing the deterministic simulator in `minos-net`. The socket
//! runtime in [`tcp`] runs the same live node with TCP in place of the
//! channels.
//!
//! # Example
//!
//! ```
//! use minos_cluster::Cluster;
//! use minos_types::{ClusterConfig, DdpModel, Key, NodeId, PersistencyModel};
//!
//! let cluster = Cluster::spawn(
//!     ClusterConfig::cloudlab().with_nodes(3),
//!     DdpModel::lin(PersistencyModel::Synchronous),
//! );
//! cluster.put(NodeId(0), Key(7), "v".into())?;
//! assert_eq!(cluster.get(NodeId(2), Key(7))?, "v");
//! cluster.shutdown();
//! # Ok::<(), minos_types::MinosError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cluster;
mod node;
pub mod tcp;
mod timer;

pub use cluster::{Cluster, Outcome, OP_TIMEOUT};
