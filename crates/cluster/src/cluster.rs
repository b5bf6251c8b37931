//! The cluster facade: spawning, client API, failure handling, shutdown.

use crate::node::{spawn_node, NodeMsg, NodeThread};
use crate::timer::TimerWheel;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use minos_core::obs::{shared_gauges, GaugeSet, SharedGauges, SharedSink, TraceClock, Tracer};
use minos_core::runtime::{DispatchStats, ShardRouter, TransportCounters};
use minos_core::{Event, ReqId};
use minos_nvm::LogEntry;
use minos_types::{
    ClusterConfig, DdpModel, Key, MembershipView, MinosError, NodeId, Result, ScopeId, ShardId,
    ShardMap, Ts, Value,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Result of a completed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A write returned to the client.
    Write {
        /// Assigned timestamp.
        ts: Ts,
        /// Cut short as obsolete.
        obsolete: bool,
    },
    /// A read completed.
    Read {
        /// Observed value.
        value: Value,
        /// Observed version.
        ts: Ts,
    },
    /// A `[PERSIST]sc` completed.
    PersistScope {
        /// The flushed scope.
        scope: ScopeId,
    },
}

/// How long a client call waits for its answer before giving up, on both
/// live runtimes: [`Cluster`]'s blocking calls and
/// [`TcpClient`](crate::tcp::TcpClient)'s socket reads and writes.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

pub(crate) type CompletionMap = Arc<Mutex<HashMap<ReqId, Sender<Outcome>>>>;

/// A running threaded cluster.
///
/// Client calls are synchronous: they block the calling thread until the
/// protocol's client-response point for the configured DDP model.
///
/// When [`ClusterConfig::placement`] carries a [`ShardMap`](minos_types::ShardMap),
/// every client call is routed through the shared [`ShardRouter`]: the
/// `node` argument names the *origin* (where the client is attached) and
/// the operation is coordinated by a replica of its key's shard.
pub struct Cluster {
    nodes: Vec<NodeThread>,
    timer: Option<TimerWheel<NodeMsg>>,
    completions: CompletionMap,
    next_req: AtomicU64,
    failed: Mutex<Vec<bool>>,
    failure_rx: crossbeam::channel::Receiver<NodeId>,
    cfg: ClusterConfig,
    gauges: SharedGauges,
    /// Facade-level shard routing (key → coordinator, scope → recorded
    /// coordinators). Identity when the cluster is unsharded.
    router: Mutex<ShardRouter>,
    /// The epoch-versioned membership view: crash_node marks down,
    /// rejoin walks Down → CatchingUp → Serving, re-replication bumps
    /// through the placement epoch. Leases run on wall-clock nanoseconds
    /// since [`Cluster::spawn`].
    view: Mutex<MembershipView>,
    /// Lease/epoch timebase origin.
    boot: std::time::Instant,
}

/// An in-progress rejoin, between catch-up fetch and cutover: the node's
/// own durable state has been summarized, the donor's missing-version
/// delta fetched, and the view pinned. [`Cluster::complete_rejoin`]
/// installs the delta and re-admits the node; a crash in between aborts
/// the ticket (the test hook for "second crash mid-catch-up").
#[derive(Debug)]
pub struct RejoinTicket {
    /// The rejoining node.
    pub node: NodeId,
    /// The donor whose delta was fetched.
    pub donor: NodeId,
    /// The missing durable versions to install.
    entries: Vec<LogEntry>,
    /// The view epoch the catch-up is pinned to.
    pub pinned_epoch: u64,
}

impl Cluster {
    /// Spawns `cfg.nodes` node threads plus the delay wheel.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no nodes.
    #[must_use]
    pub fn spawn(cfg: ClusterConfig, model: DdpModel) -> Self {
        Cluster::spawn_observed(cfg, model, Vec::new())
    }

    /// [`Cluster::spawn`] with observability: every node's dispatcher
    /// gets a tracer fanning out to `sinks`, stamped in wall-clock
    /// nanoseconds from one cluster-common epoch (so records from
    /// different node threads compare). Passing no sinks disables
    /// tracing entirely.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no nodes.
    #[must_use]
    pub fn spawn_observed(cfg: ClusterConfig, model: DdpModel, sinks: Vec<SharedSink>) -> Self {
        assert!(cfg.nodes > 0, "cluster needs at least one node");
        let completions: CompletionMap = Arc::new(Mutex::new(HashMap::new()));
        let (failure_tx, failure_rx) = unbounded();

        let channels: Vec<_> = (0..cfg.nodes).map(|_| unbounded::<NodeMsg>()).collect();
        let senders: Vec<_> = channels.iter().map(|(tx, _)| tx.clone()).collect();
        let timer = TimerWheel::spawn(senders.clone());
        let epoch = TraceClock::monotonic();
        let gauges = shared_gauges();

        let nodes = channels
            .into_iter()
            .enumerate()
            .map(|(i, (tx, rx))| {
                let tracer = (!sinks.is_empty())
                    .then(|| Tracer::new(NodeId(i as u16), epoch.clone(), sinks.clone()));
                spawn_node(
                    NodeId(i as u16),
                    cfg.clone(),
                    model,
                    rx,
                    tx,
                    timer.scheduler(),
                    Arc::clone(&completions),
                    failure_tx.clone(),
                    tracer,
                    Arc::clone(&gauges),
                )
            })
            .collect();

        let router = Mutex::new(ShardRouter::new(cfg.placement.clone()));
        let view = Mutex::new(MembershipView::new(cfg.nodes, cfg.failure_timeout_ns, 0));
        Cluster {
            nodes,
            timer: Some(timer),
            completions,
            next_req: AtomicU64::new(1),
            failed: Mutex::new(vec![false; cfg.nodes]),
            failure_rx,
            cfg,
            gauges,
            router,
            view,
            boot: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since spawn — the lease/epoch timebase.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.boot.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The membership view epoch currently in force. Bumps on every
    /// crash detection, completed rejoin, and re-replication cutover.
    #[must_use]
    pub fn view_epoch(&self) -> u64 {
        self.view.lock().epoch()
    }

    /// A snapshot of the membership view (states, leases, epoch).
    #[must_use]
    pub fn membership(&self) -> MembershipView {
        self.view.lock().clone()
    }

    /// The placement map currently in force (re-replication may have
    /// moved it past [`ClusterConfig::placement`]). `None` = unsharded.
    #[must_use]
    pub fn placement(&self) -> Option<ShardMap> {
        self.router.lock().map().cloned()
    }

    /// Snapshots the cluster's resource telemetry: per-node in-flight
    /// ops, lock-table sizes, inbox depths (sampled every 32 dispatches)
    /// and batch fill at each flush (batching clusters only).
    #[must_use]
    pub fn gauges(&self) -> GaugeSet {
        self.gauges.lock().expect("gauge lock").clone()
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    fn fresh_req(&self) -> ReqId {
        ReqId(self.next_req.fetch_add(1, Ordering::Relaxed))
    }

    fn check_alive(&self, node: NodeId) -> Result<()> {
        if *self
            .failed
            .lock()
            .get(node.0 as usize)
            .ok_or(MinosError::UnknownNode(node))?
        {
            return Err(MinosError::NodeFailed(node));
        }
        Ok(())
    }

    /// Admits a request at `node` without blocking on its completion —
    /// the building block the multi-coordinator barriers
    /// ([`Cluster::put_multi`], cross-shard [`Cluster::persist_scope`])
    /// assemble their fan-outs from.
    fn submit_async(
        &self,
        node: NodeId,
        build: impl FnOnce(ReqId) -> Event,
    ) -> Result<(ReqId, Receiver<Outcome>)> {
        self.check_alive(node)?;
        let req = self.fresh_req();
        let (tx, rx) = bounded(1);
        self.completions.lock().insert(req, tx);
        self.nodes[node.0 as usize]
            .tx
            .send(NodeMsg::Ev(build(req), None))
            .map_err(|_| MinosError::Shutdown)?;
        Ok((req, rx))
    }

    fn wait(&self, node: NodeId, req: ReqId, rx: &Receiver<Outcome>) -> Result<Outcome> {
        rx.recv_timeout(OP_TIMEOUT).map_err(|err| {
            self.completions.lock().remove(&req);
            match err {
                // The coordinator crashed with this op in flight and
                // severed the reply channel (see `NodeMsg::Crash`).
                RecvTimeoutError::Disconnected => MinosError::NodeFailed(node),
                RecvTimeoutError::Timeout => MinosError::TimedOut(node),
            }
        })
    }

    fn submit(&self, node: NodeId, build: impl FnOnce(ReqId) -> Event) -> Result<Outcome> {
        let (req, rx) = self.submit_async(node, build)?;
        self.wait(node, req, &rx)
    }

    /// One control-plane round-trip with `node`'s thread: sends the
    /// message `build` makes around a reply channel and waits
    /// ([`OP_TIMEOUT`]) for the answer.
    fn ask<T>(&self, node: NodeId, build: impl FnOnce(Sender<T>) -> NodeMsg) -> Result<T> {
        let nt = self
            .nodes
            .get(node.0 as usize)
            .ok_or(MinosError::UnknownNode(node))?;
        let (tx, rx) = bounded(1);
        nt.tx.send(build(tx)).map_err(|_| MinosError::Shutdown)?;
        rx.recv_timeout(OP_TIMEOUT)
            .map_err(|_| MinosError::Shutdown)
    }

    /// Sends `msg()` to every node thread but `except`'s.
    fn tell_others(&self, except: NodeId, msg: impl Fn() -> NodeMsg) {
        for (i, nt) in self.nodes.iter().enumerate() {
            if i != except.0 as usize {
                let _ = nt.tx.send(msg());
            }
        }
    }

    /// Replays `entries` on crashed `node`, restarts its engine and
    /// re-admits it at every other node.
    fn revive(&self, node: NodeId, entries: Vec<LogEntry>) -> Result<()> {
        self.ask(node, |done| NodeMsg::Revive { entries, done })?;
        self.tell_others(node, || NodeMsg::PeerRecovered { node });
        self.failed.lock()[node.0 as usize] = false;
        Ok(())
    }

    /// The coordinator for a write of `key` submitted at `node` (see
    /// [`Cluster::route_alive`]), recorded against `scope` so the scope's
    /// flush finds it.
    fn route_write(&self, node: NodeId, key: Key, scope: Option<ScopeId>) -> NodeId {
        let mut router = self.router.lock();
        let coord = self.route_alive(router.map(), router.serving(node, key), key);
        if let Some(sc) = scope {
            router.note_scope_route(node, sc, coord);
        }
        coord
    }

    /// Liveness failover for routed ops: when the default coordinator of
    /// `key`'s shard is failed, serve at the first alive replica of the
    /// group instead (§III-E membership: survivors keep serving the
    /// shard). Falls back to `coord` when the whole group is down, so
    /// the caller reports [`MinosError::NodeFailed`] honestly.
    fn route_alive(&self, map: Option<&ShardMap>, coord: NodeId, key: Key) -> NodeId {
        let failed = self.failed.lock();
        if !failed.get(coord.0 as usize).copied().unwrap_or(true) {
            return coord;
        }
        if let Some(map) = map {
            for &r in map.replicas_of_key(key) {
                if !failed.get(r.0 as usize).copied().unwrap_or(true) {
                    return r;
                }
            }
        }
        coord
    }

    /// Writes `value` under `key`, coordinated by `node`; returns the
    /// write's timestamp.
    ///
    /// # Errors
    ///
    /// [`MinosError::NodeFailed`] if `node` is failed;
    /// [`MinosError::Shutdown`] if the cluster is stopping;
    /// [`MinosError::TimedOut`] if the write is still unanswered after
    /// [`OP_TIMEOUT`].
    pub fn put(&self, node: NodeId, key: Key, value: Value) -> Result<Ts> {
        self.put_scoped(node, key, value, None)
    }

    /// [`Cluster::put`] with a scope tag.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::put`].
    pub fn put_scoped(
        &self,
        node: NodeId,
        key: Key,
        value: Value,
        scope: Option<ScopeId>,
    ) -> Result<Ts> {
        self.check_alive(node)?;
        let coord = self.route_write(node, key, scope);
        match self.submit(coord, |req| Event::ClientWrite {
            key,
            value,
            scope,
            req,
        })? {
            Outcome::Write { ts, .. } => Ok(ts),
            _ => Err(MinosError::Shutdown),
        }
    }

    /// Writes every `(key, value)` pair as one multi-key operation
    /// submitted at `node`: each write is routed to its key's serving
    /// replica, all children are admitted before any completion is
    /// awaited, and the call returns only when the last child has
    /// completed (a client-side completion barrier). Timestamps come back
    /// in submission order.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is empty.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::put`]; a failed coordinator fails the whole
    /// barrier.
    pub fn put_multi(
        &self,
        node: NodeId,
        writes: Vec<(Key, Value)>,
        scope: Option<ScopeId>,
    ) -> Result<Vec<Ts>> {
        assert!(!writes.is_empty(), "a multi-write needs at least one key");
        self.check_alive(node)?;
        let mut waits = Vec::with_capacity(writes.len());
        for (key, value) in writes {
            let coord = self.route_write(node, key, scope);
            let (req, rx) = self.submit_async(coord, |req| Event::ClientWrite {
                key,
                value,
                scope,
                req,
            })?;
            waits.push((coord, req, rx));
        }
        let mut out = Vec::with_capacity(waits.len());
        for (coord, req, rx) in waits {
            match self.wait(coord, req, &rx)? {
                Outcome::Write { ts, .. } => out.push(ts),
                _ => return Err(MinosError::Shutdown),
            }
        }
        Ok(out)
    }

    /// Reads `key` at `node` (served locally).
    ///
    /// # Errors
    ///
    /// As for [`Cluster::put`].
    pub fn get(&self, node: NodeId, key: Key) -> Result<Value> {
        self.get_versioned(node, key).map(|(v, _)| v)
    }

    /// Reads `key` and also reports the version (`volatileTS`) observed —
    /// used by linearizability audits.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::put`].
    pub fn get_versioned(&self, node: NodeId, key: Key) -> Result<(Value, Ts)> {
        self.check_alive(node)?;
        let coord = {
            let router = self.router.lock();
            self.route_alive(router.map(), router.serving(node, key), key)
        };
        match self.submit(coord, |req| Event::ClientRead { key, req })? {
            Outcome::Read { value, ts } => Ok((value, ts)),
            _ => Err(MinosError::Shutdown),
        }
    }

    /// Ends scope `scope` with a `[PERSIST]sc` transaction at `node`.
    ///
    /// Sharded clusters fan the flush out to every coordinator the
    /// scope's writes were routed to and return once all of them have
    /// flushed; a scope with no routed writes flushes trivially at the
    /// origin.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::put`].
    pub fn persist_scope(&self, node: NodeId, scope: ScopeId) -> Result<()> {
        self.check_alive(node)?;
        let coords = self.router.lock().scope_coordinators(node, scope);
        let mut waits = Vec::with_capacity(coords.len());
        for c in coords {
            let (req, rx) = self.submit_async(c, |req| Event::ClientPersistScope { scope, req })?;
            waits.push((c, req, rx));
        }
        for (c, req, rx) in waits {
            match self.wait(c, req, &rx)? {
                Outcome::PersistScope { .. } => {}
                _ => return Err(MinosError::Shutdown),
            }
        }
        Ok(())
    }

    /// Crashes `node` (it silently drops all traffic until revived). The
    /// heartbeat detectors on the surviving nodes will notice within the
    /// configured failure timeout; [`Cluster::await_failure_detection`]
    /// blocks until they do.
    pub fn crash_node(&self, node: NodeId) {
        let _ = self.nodes[node.0 as usize].tx.send(NodeMsg::Crash);
        self.failed.lock()[node.0 as usize] = true;
        // View change: the serving set shrank (idempotent; a crash
        // mid-catch-up moves CatchingUp → Down without burning an epoch).
        let _ = self.view.lock().mark_down(node);
    }

    /// Blocks until the heartbeat detectors report `node` failed, then
    /// alerts every survivor to exclude it. Returns false on timeout.
    pub fn await_failure_detection(&self, node: NodeId, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return false;
            }
            match self.failure_rx.recv_timeout(remaining) {
                Ok(n) if n == node => break,
                Ok(_) | Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                Err(_) => return false,
            }
        }
        // "…identify the non-responding node(s) and alert all the other
        // nodes."
        self.tell_others(node, || NodeMsg::PeerFailed { node });
        true
    }

    /// Recovers `node`: ships the durable-log suffix from `donor`, waits
    /// for the replay, then re-admits the node everywhere.
    ///
    /// # Errors
    ///
    /// [`MinosError::Shutdown`] if the donor or rejoiner is unresponsive.
    pub fn recover_node(&self, node: NodeId, donor: NodeId) -> Result<()> {
        // Fetch the donor's committed log, replay it on the rejoiner,
        // re-admit everywhere.
        self.revive(node, self.durable_log(donor)?)?;
        // Best-effort view walk (Down → CatchingUp → Serving); callers
        // using the explicit donor API may not have marked the node down.
        {
            let mut view = self.view.lock();
            let _ = view.begin_rejoin(node);
            let _ = view.complete_rejoin(node, self.now_ns());
        }
        Ok(())
    }

    /// Picks a rejoin donor for `node`: the first alive placement-group
    /// peer (a node that replicates a shard with it), falling back to any
    /// alive other node on an unsharded cluster.
    fn pick_donor(&self, node: NodeId) -> Option<NodeId> {
        let failed = self.failed.lock();
        let alive = |n: NodeId| !failed.get(n.0 as usize).copied().unwrap_or(true);
        if let Some(map) = self.router.lock().map() {
            if let Some(peer) = map.peers_of(node).into_iter().find(|&p| alive(p)) {
                return Some(peer);
            }
        }
        (0..self.nodes.len() as u16)
            .map(NodeId)
            .find(|&n| n != node && alive(n))
    }

    /// Starts a rejoin of a down node: pins the view at `CatchingUp`,
    /// replays the node's own durable log into a per-key version summary
    /// (served from its surviving NVM — the "replay your log" step), and
    /// fetches from a donor exactly the versions the node missed while
    /// down. The node is **not** serving yet; [`Cluster::complete_rejoin`]
    /// performs the cutover. Splitting the two lets tests (and operators)
    /// inject a second crash mid-catch-up.
    ///
    /// # Errors
    ///
    /// [`MinosError::Membership`] if the node is not `Down` or no alive
    /// donor exists; [`MinosError::Shutdown`] on unresponsive threads.
    pub fn begin_rejoin(&self, node: NodeId) -> Result<RejoinTicket> {
        let pinned_epoch = self
            .view
            .lock()
            .begin_rejoin(node)
            .map_err(|e| MinosError::Membership(e.to_string()))?;

        // The rejoiner summarizes its durable state. This is served even
        // while the node is "crashed": NVM contents survive the crash.
        let have = self.ask(node, |reply| NodeMsg::QuerySummary { reply })?;

        let Some(donor) = self.pick_donor(node) else {
            let _ = self.view.lock().abort_rejoin(node);
            return Err(MinosError::Membership(format!(
                "no alive donor for rejoining node {node}"
            )));
        };
        let entries = self.ask(donor, |reply| NodeMsg::ShipDelta { have, reply })?;

        Ok(RejoinTicket {
            node,
            donor,
            entries,
            pinned_epoch,
        })
    }

    /// Completes a rejoin started by [`Cluster::begin_rejoin`]: installs
    /// the donor delta on the rejoiner, re-admits it at every survivor,
    /// and moves the view `CatchingUp → Serving` under a fresh lease.
    /// Returns the new view epoch.
    ///
    /// The `PeerRecovered` broadcast is sent before this method returns,
    /// and each node inbox is FIFO — so any client op submitted after
    /// `complete_rejoin` returns is processed after every peer has
    /// re-admitted the node.
    ///
    /// # Errors
    ///
    /// [`MinosError::Membership`] if the node crashed again mid-catch-up
    /// (the view is no longer `CatchingUp`); [`MinosError::Shutdown`] on
    /// unresponsive threads.
    pub fn complete_rejoin(&self, ticket: RejoinTicket) -> Result<u64> {
        let RejoinTicket { node, entries, .. } = ticket;
        {
            let view = self.view.lock();
            let state = view
                .state(node)
                .map_err(|e| MinosError::Membership(e.to_string()))?;
            if state != minos_types::NodeState::CatchingUp {
                return Err(MinosError::Membership(format!(
                    "cannot complete rejoin of node {node}: state is {state:?}, \
                     not CatchingUp (crashed again mid-catch-up?)"
                )));
            }
        }

        // Install the missed versions, restart the protocol engine and
        // re-admit the node everywhere, then open the gate for client
        // traffic.
        self.revive(node, entries)?;
        self.view
            .lock()
            .complete_rejoin(node, self.now_ns())
            .map_err(|e| MinosError::Membership(e.to_string()))
    }

    /// Rejoins a down node end to end: [`Cluster::begin_rejoin`] (own-log
    /// replay + donor catch-up) followed by [`Cluster::complete_rejoin`]
    /// (cutover). Returns the new view epoch.
    ///
    /// # Errors
    ///
    /// As for the two staged calls.
    pub fn rejoin_node(&self, node: NodeId) -> Result<u64> {
        let ticket = self.begin_rejoin(node)?;
        self.complete_rejoin(ticket)
    }

    /// Re-replicates `shard` onto `new_node`: picks an alive donor from
    /// the shard's current group, background-copies the shard's durable
    /// records to the new replica, then performs the epoch-gated cutover
    /// — the new map (placement epoch bumped by the membership change) is
    /// installed at the new replica first, broadcast to every other node,
    /// and finally adopted by the client-facing router, so no node ever
    /// adopts an older epoch over a newer one. Returns the new placement
    /// epoch.
    ///
    /// # Errors
    ///
    /// [`MinosError::Membership`] if the cluster is unsharded, the group
    /// has no alive donor, or `new_node` already replicates the shard;
    /// [`MinosError::Shutdown`] on unresponsive threads.
    pub fn rereplicate(&self, shard: ShardId, new_node: NodeId) -> Result<u64> {
        let mut new_map = self.router.lock().map().cloned().ok_or_else(|| {
            MinosError::Membership("re-replication needs a sharded cluster".into())
        })?;
        let excluded: Vec<NodeId> = {
            let failed = self.failed.lock();
            failed
                .iter()
                .enumerate()
                .filter(|&(_, &down)| down)
                .map(|(i, _)| NodeId(i as u16))
                .collect()
        };
        let donor = new_map
            .donor_for(shard, &excluded)
            .ok_or_else(|| MinosError::Membership(format!("shard {shard} has no alive donor")))?;

        // Background copy: the donor's durable records for this shard.
        let entries: Vec<LogEntry> = self
            .durable_log(donor)?
            .into_iter()
            .filter(|e| new_map.shard_of(e.key) == shard)
            .collect();

        let epoch = new_map
            .add_replica(shard, new_node)
            .map_err(MinosError::Membership)?;

        // Cutover, epoch-gated at every layer: new replica first (data +
        // map, acknowledged), then the rest of the cluster, then the
        // client-facing router.
        self.ask(new_node, |done| NodeMsg::InstallPlacement {
            map: new_map.clone(),
            entries,
            done: Some(done),
        })?;
        self.tell_others(new_node, || NodeMsg::InstallPlacement {
            map: new_map.clone(),
            entries: Vec::new(),
            done: None,
        });
        self.router.lock().install_map(new_map);
        self.view.lock().adopt_epoch(epoch);
        Ok(epoch)
    }

    /// Snapshots `node`'s durable log — every record persisted to its
    /// emulated NVM, in LSN order. Works on *crashed* nodes too (the log
    /// survives the crash), which is what lets the conformance checkers
    /// audit post-crash durability without recovering the node first.
    ///
    /// # Errors
    ///
    /// [`MinosError::UnknownNode`] for an out-of-range node;
    /// [`MinosError::Shutdown`] if the node thread is gone.
    pub fn durable_log(&self, node: NodeId) -> Result<Vec<LogEntry>> {
        self.ask(node, |reply| NodeMsg::ShipLog { reply })
    }

    /// The configuration this cluster runs with.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Snapshots `node`'s dispatch statistics and transport counters.
    ///
    /// The dispatch statistics count protocol actions (and are therefore
    /// invariant under the batching/broadcast toggles); the transport
    /// counters count physical enqueues, which the Fig. 12 NIC
    /// capabilities shrink.
    ///
    /// # Errors
    ///
    /// [`MinosError::UnknownNode`] for an out-of-range node;
    /// [`MinosError::Shutdown`] if the node is unresponsive (e.g. crashed).
    pub fn dispatch_stats(&self, node: NodeId) -> Result<(DispatchStats, TransportCounters)> {
        self.ask(node, |reply| NodeMsg::QueryStats { reply })
    }

    /// Aggregated [`Cluster::dispatch_stats`] over all live nodes.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::dispatch_stats`].
    pub fn dispatch_stats_total(&self) -> Result<(DispatchStats, TransportCounters)> {
        let mut stats = DispatchStats::default();
        let mut counters = TransportCounters::default();
        for i in 0..self.nodes.len() {
            if self.failed.lock()[i] {
                continue;
            }
            let (s, c) = self.dispatch_stats(NodeId(i as u16))?;
            stats.merge(&s);
            counters.merge(&c);
        }
        Ok((stats, counters))
    }

    /// Stops every node thread and the delay wheel.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for nt in &self.nodes {
            let _ = nt.tx.send(NodeMsg::Shutdown);
        }
        for nt in &mut self.nodes {
            if let Some(h) = nt.handle.take() {
                let _ = h.join();
            }
        }
        if let Some(t) = self.timer.take() {
            t.shutdown();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
