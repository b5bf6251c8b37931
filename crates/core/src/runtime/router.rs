//! The shard-routing dispatcher layer.
//!
//! A [`ShardRouter`] sits between a harness facade and its per-node
//! [`Interpreter`](crate::runtime::Interpreter) instances. It owns the three cluster-level decisions sharding adds —
//! the engines themselves stay per-group:
//!
//! * **Key routing**: resolve each operation's key to its shard's replica
//!   group and pick the node that serves it ([`ShardRouter::serving`]) —
//!   the submitting node when it is a replica, the shard's home node
//!   otherwise.
//! * **Scope routing**: under `<Lin, Scope>`, remember which coordinator
//!   each `(origin, scope)` pair's writes were routed to, so a
//!   `[PERSIST]sc` can be fanned out to exactly those coordinators
//!   ([`ShardRouter::route_write`] / [`ShardRouter::scope_coordinators`]).
//!   A scoped write registers in the scope table of the node that
//!   *coordinates* it — flushing at the origin would trivially succeed
//!   without persisting anything.
//! * **Multi-key fan-out**: a multi-key operation becomes one child
//!   request per key, joined by a completion barrier
//!   ([`ShardRouter::begin_barrier`] / [`ShardRouter::complete_child`]);
//!   the parent completes when its last child does.
//!
//! The router is deterministic and carries no time, so the loopback
//! cluster, the discrete-event simulator, and the threaded cluster all
//! share it.

use crate::event::ReqId;
use crate::obs::{GaugeKind, GaugeSet, GAUGE_NODE_ALL};
use crate::runtime::Engine;
use minos_types::{Key, NodeId, ScopeId, ShardMap};
use std::collections::{BTreeMap, BTreeSet};

/// Cluster-level shard routing state: key → serving node resolution,
/// scope → coordinator tracking, and multi-op completion barriers.
#[derive(Debug, Clone, Default)]
pub struct ShardRouter {
    map: Option<ShardMap>,
    /// Coordinators that scoped writes of `(origin, scope)` were routed
    /// to; drained when the scope is flushed.
    scopes: BTreeMap<(NodeId, ScopeId), BTreeSet<NodeId>>,
    /// Child request → parent request, for barrier-joined fan-outs.
    children: BTreeMap<ReqId, ReqId>,
    /// Parent request → children still outstanding.
    pending: BTreeMap<ReqId, usize>,
    /// Submitted-minus-completed keyed ops per shard (tracked only under
    /// a placement map) — the per-shard in-flight gauge.
    inflight: BTreeMap<u32, u64>,
}

impl ShardRouter {
    /// A router for `map` (`None` = single fully replicated group:
    /// everything routes to its origin).
    #[must_use]
    pub fn new(map: Option<ShardMap>) -> Self {
        ShardRouter {
            map,
            ..ShardRouter::default()
        }
    }

    /// The placement map driving this router, if any.
    #[must_use]
    pub fn map(&self) -> Option<&ShardMap> {
        self.map.as_ref()
    }

    /// The epoch-gated cutover: adopts `map` iff its placement epoch is
    /// newer than the current map's (a re-replication or view change
    /// published elsewhere). Returns true when the map was installed.
    /// Scope routes and barriers in flight are kept — they name
    /// coordinators already chosen, which stay valid across a cutover
    /// (the old replicas keep serving until drained).
    pub fn install_map(&mut self, map: ShardMap) -> bool {
        let newer = self.map.as_ref().is_none_or(|m| map.epoch() > m.epoch());
        if newer {
            self.map = Some(map);
        }
        newer
    }

    /// The node that serves an operation on `key` submitted at `origin`.
    #[must_use]
    pub fn serving(&self, origin: NodeId, key: Key) -> NodeId {
        match &self.map {
            None => origin,
            Some(map) => map.serving(origin, key),
        }
    }

    /// Routes a write: returns the coordinator node and, when the write
    /// is scoped, records that `(origin, scope)`'s data now lives under
    /// that coordinator's scope table.
    pub fn route_write(&mut self, origin: NodeId, key: Key, scope: Option<ScopeId>) -> NodeId {
        let coord = self.serving(origin, key);
        if let Some(sc) = scope {
            self.note_scope_route(origin, sc, coord);
        }
        coord
    }

    /// Records that a scoped write of `(origin, scope)` was coordinated
    /// at `coord` — the manual half of [`ShardRouter::route_write`], for
    /// facades that apply liveness failover after
    /// [`ShardRouter::serving`] picks the default coordinator.
    pub fn note_scope_route(&mut self, origin: NodeId, scope: ScopeId, coord: NodeId) {
        self.scopes
            .entry((origin, scope))
            .or_default()
            .insert(coord);
    }

    /// The coordinators a `[PERSIST]sc` from `origin` must flush at;
    /// consumes the recorded set. An unknown scope (no routed writes)
    /// flushes trivially at the origin.
    pub fn scope_coordinators(&mut self, origin: NodeId, scope: ScopeId) -> Vec<NodeId> {
        match self.scopes.remove(&(origin, scope)) {
            Some(coords) if !coords.is_empty() => coords.into_iter().collect(),
            _ => vec![origin],
        }
    }

    /// Counts a keyed client op into its shard's in-flight gauge.
    pub fn note_submitted(&mut self, key: Key) {
        if let Some(map) = &self.map {
            *self.inflight.entry(map.shard_of(key).0).or_insert(0) += 1;
        }
    }

    /// Retires a completed keyed op from its shard's in-flight gauge.
    pub fn note_completed(&mut self, key: Key) {
        if let Some(map) = &self.map {
            if let Some(n) = self.inflight.get_mut(&map.shard_of(key).0) {
                *n = n.saturating_sub(1);
            }
        }
    }

    /// Samples the lock-table and in-flight gauges of a simulated
    /// cluster: per shard under a placement map; per node, plus the
    /// cluster-wide `inflight` count, without one.
    pub fn observe_load<E: Engine>(&self, gauges: &mut GaugeSet, engines: &[E], inflight: u64) {
        let Some(map) = &self.map else {
            for (i, e) in engines.iter().enumerate() {
                gauges.observe(
                    GaugeKind::LockTableSize,
                    i as u32,
                    e.locked_records() as u64,
                );
            }
            gauges.observe(GaugeKind::InflightTxs, GAUGE_NODE_ALL, inflight);
            return;
        };
        for (i, e) in engines.iter().enumerate() {
            let by_shard = e.locked_records_by_shard(map);
            for s in map.shards_on(NodeId(i as u16)) {
                let n = by_shard.get(&s.0).copied().unwrap_or(0);
                gauges.observe_shard(GaugeKind::LockTableSize, i as u32, s.0, n as u64);
            }
        }
        for (&shard, &n) in &self.inflight {
            gauges.observe_shard(GaugeKind::InflightTxs, GAUGE_NODE_ALL, shard, n);
        }
    }

    /// Registers a barrier: `parent` completes when every request in
    /// `children` has completed.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or a child is already enrolled.
    pub fn begin_barrier(&mut self, parent: ReqId, children: &[ReqId]) {
        assert!(!children.is_empty(), "a barrier needs at least one child");
        for &c in children {
            let prev = self.children.insert(c, parent);
            assert!(prev.is_none(), "child {c:?} enrolled twice");
        }
        self.pending.insert(parent, children.len());
    }

    /// Reports a completed request. Returns `Some(parent)` exactly once —
    /// when `req` was the last outstanding child of its barrier — and
    /// `None` otherwise (not a child, or siblings still in flight).
    pub fn complete_child(&mut self, req: ReqId) -> Option<ReqId> {
        let parent = self.children.remove(&req)?;
        let left = self.pending.get_mut(&parent)?;
        *left -= 1;
        if *left == 0 {
            self.pending.remove(&parent);
            Some(parent)
        } else {
            None
        }
    }

    /// True when `req` is an in-flight barrier child (its completion
    /// should be absorbed into its parent rather than surfaced).
    #[must_use]
    pub fn is_child(&self, req: ReqId) -> bool {
        self.children.contains_key(&req)
    }

    /// The barrier parent `req` is enrolled under, if any. Unlike
    /// [`ShardRouter::complete_child`] this does not consume the
    /// enrollment — timed harnesses use it to track the latest child
    /// completion time before releasing the barrier.
    #[must_use]
    pub fn parent_of(&self, req: ReqId) -> Option<ReqId> {
        self.children.get(&req).copied()
    }

    /// True when no barrier or scope-route state is outstanding.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.children.is_empty() && self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_routes_to_exactly_one_serving_replica() {
        let map = ShardMap::uniform(4, 8, 2);
        let router = ShardRouter::new(Some(map.clone()));
        for k in 0..1000u64 {
            let key = Key(k);
            for origin in 0..8u16 {
                let serving = router.serving(NodeId(origin), key);
                assert!(
                    map.is_replica(serving, key),
                    "key {k} from node {origin} routed to non-replica {serving}"
                );
                // Deterministic.
                assert_eq!(router.serving(NodeId(origin), key), serving);
            }
        }
    }

    #[test]
    fn unsharded_router_is_identity() {
        let router = ShardRouter::new(None);
        assert_eq!(router.serving(NodeId(3), Key(42)), NodeId(3));
    }

    #[test]
    fn placement_epoch_bumps_are_monotonic() {
        let mut map = ShardMap::uniform(4, 8, 2);
        let e0 = map.epoch();
        let e1 = map.bump_epoch();
        let e2 = map.bump_epoch();
        assert!(e0 < e1 && e1 < e2);
    }

    #[test]
    fn install_map_is_epoch_gated() {
        let mut router = ShardRouter::new(Some(ShardMap::uniform(2, 4, 2)));
        let mut newer = ShardMap::uniform(2, 4, 2);
        newer.remove_node(NodeId(1)).unwrap(); // epoch 2
        let stale = ShardMap::uniform(2, 4, 2); // epoch 1 again
        assert!(router.install_map(newer.clone()));
        assert_eq!(router.map().unwrap().epoch(), 2);
        assert!(!router.install_map(stale), "stale epoch rejected");
        assert_eq!(router.map().unwrap(), &newer);
        // An unsharded router adopts any map (None has no epoch to gate on).
        let mut bare = ShardRouter::new(None);
        assert!(bare.install_map(ShardMap::uniform(1, 2, 2)));
    }

    #[test]
    fn scoped_writes_record_their_coordinators() {
        let map = ShardMap::uniform(2, 4, 2); // s0: n0,n1  s1: n2,n3
        let mut router = ShardRouter::new(Some(map));
        let origin = NodeId(0);
        let sc = ScopeId(7);
        // Key 0 → shard 0 (origin is a replica); key 1 → shard 1 (home n2).
        assert_eq!(router.route_write(origin, Key(0), Some(sc)), NodeId(0));
        assert_eq!(router.route_write(origin, Key(1), Some(sc)), NodeId(2));
        let coords = router.scope_coordinators(origin, sc);
        assert_eq!(coords, vec![NodeId(0), NodeId(2)]);
        // Consumed: a second flush of the (now empty) scope is trivial.
        assert_eq!(router.scope_coordinators(origin, sc), vec![origin]);
    }

    #[test]
    fn barrier_fires_exactly_once_on_last_child() {
        let mut router = ShardRouter::new(None);
        let parent = ReqId(100);
        let kids = [ReqId(101), ReqId(102), ReqId(103)];
        router.begin_barrier(parent, &kids);
        assert!(router.is_child(ReqId(102)));
        assert_eq!(router.complete_child(ReqId(101)), None);
        assert_eq!(router.complete_child(ReqId(103)), None);
        assert_eq!(router.complete_child(ReqId(102)), Some(parent));
        assert_eq!(router.complete_child(ReqId(102)), None, "fires once");
        assert!(router.is_quiescent());
    }
}
