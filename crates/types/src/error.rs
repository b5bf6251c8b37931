//! Error types shared across the MINOS crates.

use crate::{Key, NodeId, Ts};
use std::fmt;

/// Convenience alias for results carrying [`MinosError`].
pub type Result<T> = std::result::Result<T, MinosError>;

/// Errors surfaced by the MINOS protocol engines and runtimes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MinosError {
    /// A message referenced a transaction the node has no record of and
    /// that cannot be a legitimately discarded late message.
    UnknownTransaction {
        /// Record key carried by the message.
        key: Key,
        /// Write timestamp carried by the message.
        ts: Ts,
    },
    /// A node id was outside the cluster membership.
    UnknownNode(NodeId),
    /// A request was rejected because the node (or its SmartNIC) ran out of
    /// resources — the paper notes a SmartNIC "can reject a request from
    /// its local host or from the network if it runs out of resources".
    ResourcesExhausted {
        /// Human-readable description of the exhausted resource.
        what: &'static str,
    },
    /// The target node is marked failed and cannot serve requests.
    NodeFailed(NodeId),
    /// A scope operation referenced an unknown scope.
    UnknownScope(u32),
    /// The cluster runtime shut down before the operation completed.
    Shutdown,
    /// The operation's coordinator stayed silent past the runtime's
    /// client timeout. The op may or may not have taken effect.
    TimedOut(NodeId),
    /// A membership transition or cutover was rejected (rejoin of a
    /// serving node, second crash mid-catch-up, stale placement epoch…).
    Membership(String),
}

impl fmt::Display for MinosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinosError::UnknownTransaction { key, ts } => {
                write!(f, "message for unknown transaction ({key}, {ts})")
            }
            MinosError::UnknownNode(n) => write!(f, "unknown node {n}"),
            MinosError::ResourcesExhausted { what } => {
                write!(f, "resources exhausted: {what}")
            }
            MinosError::NodeFailed(n) => write!(f, "node {n} has failed"),
            MinosError::UnknownScope(sc) => write!(f, "unknown scope sc{sc}"),
            MinosError::Shutdown => write!(f, "cluster is shutting down"),
            MinosError::TimedOut(n) => write!(f, "node {n} did not answer in time"),
            MinosError::Membership(why) => write!(f, "membership violation: {why}"),
        }
    }
}

impl std::error::Error for MinosError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = MinosError::NodeFailed(NodeId(3));
        let s = e.to_string();
        assert!(s.starts_with("node"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MinosError>();
    }
}
