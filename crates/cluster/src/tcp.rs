//! A real-socket MINOS-B runtime: nodes as independent processes (or
//! threads) exchanging protocol messages over TCP, with a framed client
//! protocol. Sockets and codec only.
//!
//! This is the genuine multi-node deployment path: `minos-noded` runs one
//! node per process; [`TcpClient`] connects to any node and issues
//! puts/gets/`[PERSIST]sc`. Protocol messages travel in the hand-rolled
//! wire format of [`minos_types::wire`] (the approved dependency set has
//! no serializer, so the codec is part of this workspace).
//!
//! ## Frames
//!
//! Everything on the wire is `[u32 little-endian length][body]`.
//!
//! * **peer → peer**: a peer frame from [`minos_types::wire`]
//!   (`[u16 from][u16 count]` then `count` length-prefixed messages) —
//!   the same codec the batching middleware coalesces into, so a frame
//!   carries one message without batching and a whole dispatch's worth
//!   with it
//! * **client → node**: `[u8 op][u64 client-req][op payload]` where op is
//!   1=put `[key][scope_opt][value]`, 2=get `[key]`, 3=persist `[scope]`,
//!   4=dump-durable (no payload; audit surface, served off the protocol
//!   path), 5=rejoin catch-up `[u32 count]{[key][ts]}` (a per-key version
//!   summary; the reply is the donor's missing-version delta), 6=peer
//!   status `[u16 peer][u8 up]` (the membership admin surface — the
//!   control plane's failure detector marks peers down/recovered here)
//! * **node → client**: `[u64 client-req][u8 status][payload]` — status
//!   1=write-done `[ts]`, 2=read-done `[ts][value]`, 3=persist-done,
//!   4=durable-log dump `[u32 count]` + entries, 5=catch-up delta (same
//!   encoding as 4), 6=peer-status ack, 0=error: not a replica of the
//!   op's key `[UTF-8 reason]` (the op was refused and had no effect;
//!   [`ShardedTcpClient`] routes so that this never happens)
//! * **log entries** (statuses 4 and 5): `[u64 lsn][u64 key][u32
//!   ts_version][u16 ts_node][u32 len][value]`. Op 4 is an audit of which
//!   versions are durable, so its entries carry `len` = 0 and no value: a
//!   dump is exactly `4 + 26·n` bytes, however large the values, and
//!   never outgrows the 64 MiB frame cap. Op 5 ships the values, since a
//!   rejoining node installs them.
//!
//! Every socket — outbound and accepted peer connections, accepted
//! client connections, [`TcpClient`] — runs with `TCP_NODELAY`, and every
//! frame leaves in one `write`, its length prefix built into the same
//! buffer as its body. (A frame split over two writes without
//! `TCP_NODELAY` makes Nagle's algorithm hold the second until the peer's
//! delayed ACK: about 44 ms per exchange on Linux loopback.) Readers
//! decode through one buffered reader per connection, so a frame
//! usually costs one `read`.
//!
//! This module is the home of these formats; the node behind the sockets
//! — engine, dispatch stack, recovery — is the `NodeCore` it shares with
//! the threaded runtime (`node.rs`), reached through a socket `Port`.

use crate::cluster::{Outcome, OP_TIMEOUT};
use crate::node::{NodeCore, Port};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use minos_core::obs::{
    self, GaugeKind, GaugeSet, HistogramSet, JsonlWriter, MetricsSink, TraceClock, Tracer,
};
use minos_core::runtime::FrameTransport;
use minos_core::{Event, ReqId};
use minos_nvm::{decode_entries, encode_entries, DecodeOutcome, LogEntry};
use minos_types::wire::{append_peer_frame_ctx, decode_peer_frame_ctx, TraceCtx, CLIENT_CTX_FLAG};
use minos_types::{
    ChaosSpec, ClusterConfig, DdpModel, FaultSpec, Key, Message, NodeId, ScopeId, ShardMap, Ts,
    Value,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of one TCP node.
#[derive(Debug, Clone)]
pub struct TcpNodeConfig {
    /// This node's id.
    pub node: NodeId,
    /// DDP model to run.
    pub model: DdpModel,
    /// Peer-protocol addresses, indexed by node id (including this
    /// node's own listen address).
    pub peers: Vec<SocketAddr>,
    /// Address serving the client protocol.
    pub client_addr: SocketAddr,
    /// Emulated NVM persist latency (ns per KB).
    pub persist_ns_per_kb: u64,
    /// Transport-level message batching (Fig. 12 `batching`): messages
    /// emitted while handling one event travel in one peer frame per
    /// destination.
    pub batching: bool,
    /// Transport-level broadcast (Fig. 12 `broadcast`): a fan-out frame
    /// is encoded once and the same bytes are written to every
    /// destination socket.
    pub broadcast: bool,
    /// When set, every protocol-event boundary is appended to this file
    /// as JSONL trace records (`minos-trace` replays them).
    pub trace_out: Option<PathBuf>,
    /// When set, per-op latency histograms plus resource gauges are
    /// dumped to this file in Prometheus text exposition format, every
    /// [`TcpNodeConfig::metrics_interval`] and at shutdown (the
    /// `minos-noded --metrics-out` flag).
    pub metrics_out: Option<PathBuf>,
    /// Cadence of the periodic metrics dump and of the resource-gauge
    /// sampling tick (the `minos-noded --metrics-interval` flag).
    /// Clamped to at least 1 ms.
    pub metrics_interval: Duration,
    /// Deterministic message-level chaos schedule applied to this node's
    /// outbound protocol traffic (`None` = no chaos). Torture schedules
    /// for the TCP runtime stick to delay/reorder — a dropped message is
    /// permanent here and the client protocol has no retry.
    pub chaos: Option<ChaosSpec>,
    /// Deliberate protocol bug to arm (`None` = correct protocol). Only
    /// honored when built with the `fault-injection` feature; silently
    /// ignored otherwise.
    pub fault: Option<FaultSpec>,
    /// Key-space placement (`None` = the paper's single fully replicated
    /// group). Every process of a sharded deployment must be handed the
    /// *same* map (`minos-noded --shards`/`--placement`); the node then
    /// replicates only its shards and expects clients to contact a
    /// replica of each key's shard ([`ShardedTcpClient`] does this).
    pub placement: Option<ShardMap>,
    /// On-disk NVM log (`minos-noded --nvm-log`). Every persist is
    /// appended to this file in the [`minos_nvm`] entry codec; on
    /// startup the file is decoded and replayed — the "replay your own
    /// durable log" half of a node rejoin. A truncated tail (torn final
    /// append from a crash) is discarded, matching the codec's
    /// crash-consistency contract. `None` keeps the log in memory only.
    pub nvm_log: Option<PathBuf>,
    /// Client-protocol address of a rejoin donor (`minos-noded
    /// --rejoin-donor`). When set, the node completes its startup rejoin
    /// before [`TcpNode::serve`] returns: after replaying its own log it
    /// sends the donor a per-key version summary and installs the donor's
    /// catch-up delta — exactly the versions it missed while down.
    /// `None` = fresh start.
    pub rejoin_donor: Option<SocketAddr>,
}

enum In {
    Peer(NodeId, Vec<Message>, Option<TraceCtx>),
    Client {
        conn: u64,
        creq: u64,
        op: ClientOp,
        ctx: Option<TraceCtx>,
    },
    /// An event this node scheduled for itself: a deferred dispatch hop
    /// (`due` = `None`), or a persist completing at `due`, once the
    /// emulated device latency has passed.
    Local {
        event: Event,
        ctx: Option<TraceCtx>,
        due: Option<Instant>,
    },
    Shutdown,
}

enum ClientOp {
    Put {
        key: Key,
        scope: Option<ScopeId>,
        value: Value,
    },
    Get {
        key: Key,
    },
    Persist {
        scope: ScopeId,
    },
    /// Durability audit: dump the node's NVM log (op 4). Served directly
    /// by the node loop, off the protocol path — the wire analogue of the
    /// threaded cluster's log-shipping snapshot.
    DumpDurable,
    /// Rejoin catch-up (op 5): the caller is a rejoining node shipping
    /// its per-key durable version summary; the response is the donor's
    /// delta — durable records strictly newer than (or absent from) the
    /// summary. Served off the protocol path, like `DumpDurable`.
    Delta {
        have: Vec<(Key, Ts)>,
    },
    /// Membership notification (op 6): the control plane (the torture
    /// harness, or an operator's failure detector) tells this node that
    /// a peer went down or came back. The TCP runtime carries no
    /// heartbeats of its own — frames to a dead peer are just lost — so
    /// view changes arrive over this admin surface.
    PeerStatus {
        peer: NodeId,
        up: bool,
    },
}

/// Write-halves of the established client connections, by connection id.
type Writers = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// Handle to a running TCP node (its threads stop on [`TcpNode::shutdown`]
/// or drop).
pub struct TcpNode {
    tx: Sender<In>,
    engine_thread: Option<JoinHandle<()>>,
    accept_threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    peer_addr: SocketAddr,
    client_addr: SocketAddr,
    /// Shared with the engine's response path. Closed on shutdown so
    /// blocked client reads observe the crash (a real dead process RSTs
    /// its sockets).
    client_writers: Writers,
    /// Established inbound peer connections, closed on shutdown for the
    /// same reason (and to release their reader threads).
    peer_conns: Arc<Mutex<Vec<TcpStream>>>,
}

/// The largest frame body a reader accepts.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// What [`read_frame`] reserves for a body before any of it has arrived:
/// a 4-byte prefix alone must not cost [`MAX_FRAME`] bytes of memory.
const FRAME_RESERVE: usize = 64 * 1024;

/// Reads one length-prefixed frame. The body buffer grows as bytes
/// arrive, so a declared length is only paid for once it is delivered.
fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::other("frame too large"));
    }
    let mut body = Vec::with_capacity(n.min(FRAME_RESERVE));
    r.take(n as u64).read_to_end(&mut body)?;
    if body.len() < n {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

/// A frame under construction: its 4-byte length prefix reserved, the
/// body to be appended behind it.
fn new_frame() -> Vec<u8> {
    vec![0; 4]
}

/// Fills in the length prefix of `frame` (begun by [`new_frame`]) and
/// sends prefix and body in one `write`.
fn write_frame(stream: &mut TcpStream, frame: &mut [u8]) -> std::io::Result<()> {
    let len =
        u32::try_from(frame.len() - 4).map_err(|_| std::io::Error::other("frame too large"))?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    stream.write_all(frame)
}

/// Spawns an acceptor thread handing every inbound connection, set to
/// `TCP_NODELAY`, to `on_conn`. The loop exits (dropping the listener,
/// freeing the port) when `stop` is raised and a wake-up connection
/// arrives — so a shut-down node can be re-served on the same address,
/// which is what a rejoin after a process "crash" looks like in-process.
fn spawn_acceptor(
    name: String,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    mut on_conn: impl FnMut(TcpStream) + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(move || {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                if stream.set_nodelay(true).is_ok() {
                    on_conn(stream);
                }
            }
        }
    })
}

impl TcpNode {
    /// Binds the peer and client listeners, runs the node's start-up
    /// (own-log replay, donor catch-up) and spawns its engine thread.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn serve(cfg: TcpNodeConfig) -> std::io::Result<TcpNode> {
        let peer_listener = TcpListener::bind(cfg.peers[cfg.node.0 as usize])?;
        let client_listener = TcpListener::bind(cfg.client_addr)?;
        let peer_addr = peer_listener.local_addr()?;
        let client_addr = client_listener.local_addr()?;

        let (tx, rx) = unbounded::<In>();
        let stop = Arc::new(AtomicBool::new(false));

        // Peer acceptor: one reader thread per inbound peer connection.
        let peer_conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let (inbox, conns) = (tx.clone(), Arc::clone(&peer_conns));
        let peer_acceptor = spawn_acceptor(
            format!("minos-tcp-peer-accept-{}", cfg.node),
            peer_listener,
            Arc::clone(&stop),
            move |stream| {
                if let Ok(c) = stream.try_clone() {
                    conns.lock().push(c);
                }
                let inbox = inbox.clone();
                std::thread::spawn(move || {
                    let mut stream = BufReader::new(stream);
                    while let Ok(frame) = read_frame(&mut stream) {
                        let Ok((from, msgs, ctx)) = decode_peer_frame_ctx(&frame) else {
                            break;
                        };
                        if inbox.send(In::Peer(from, msgs, ctx)).is_err() {
                            break;
                        }
                    }
                });
            },
        )?;

        // Client acceptor: per-connection reader + shared writer handle.
        let client_writers: Writers = Arc::new(Mutex::new(HashMap::new()));
        let (inbox, writers) = (tx.clone(), Arc::clone(&client_writers));
        let mut next_conn = 1u64;
        let client_acceptor = spawn_acceptor(
            format!("minos-tcp-client-accept-{}", cfg.node),
            client_listener,
            Arc::clone(&stop),
            move |stream| {
                let conn = next_conn;
                next_conn += 1;
                let Ok(w) = stream.try_clone() else { return };
                writers.lock().insert(conn, w);
                let (inbox, writers) = (inbox.clone(), Arc::clone(&writers));
                std::thread::spawn(move || {
                    let mut stream = BufReader::new(stream);
                    while let Ok(frame) = read_frame(&mut stream) {
                        let Some((creq, op, ctx)) = parse_client_request(&frame) else {
                            break;
                        };
                        let input = In::Client {
                            conn,
                            creq,
                            op,
                            ctx,
                        };
                        if inbox.send(input).is_err() {
                            break;
                        }
                    }
                    writers.lock().remove(&conn);
                });
            },
        )?;

        let port = TcpPort {
            node: cfg.node,
            ctx: None,
            peer_addrs: cfg.peers.clone(),
            peers: HashMap::new(),
            log_file: None,
            engine_tx: tx.clone(),
            writers: Arc::clone(&client_writers),
            pending: HashMap::new(),
            frame_buf: Vec::new(),
        };
        // Start-up completes before `serve` returns, so a caller that
        // goes on to crash the donor cannot cut a catch-up short. Inputs
        // arriving meanwhile queue in the inbox.
        let engine = EngineLoop::start(&cfg, port, rx);
        let engine_thread = std::thread::Builder::new()
            .name(format!("minos-tcp-engine-{}", cfg.node))
            .spawn(move || engine.run())?;

        Ok(TcpNode {
            tx,
            engine_thread: Some(engine_thread),
            accept_threads: vec![peer_acceptor, client_acceptor],
            stop,
            peer_addr,
            client_addr,
            client_writers,
            peer_conns,
        })
    }

    /// The bound peer-protocol address.
    #[must_use]
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer_addr
    }

    /// The bound client-protocol address.
    #[must_use]
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// Stops the engine thread and both acceptor threads, releasing the
    /// listening ports — so the node can later be re-served on the same
    /// addresses ([`TcpNode::serve`] with `nvm_log`/`rejoin_donor` set),
    /// which is what a crash → rejoin cycle looks like in-process.
    ///
    /// Every *established* connection is closed too, exactly as a dead
    /// process's sockets would be: a client blocked on a response to an
    /// op the node admitted but never finished gets an immediate error
    /// (its write stays pending — the conformance checkers treat it as
    /// such), and peers see dead sockets, i.e. frame loss — a crashed
    /// node's signature.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(In::Shutdown);
        self.stop.store(true, Ordering::SeqCst);
        // Wake both acceptors so they observe the stop flag and drop
        // their listeners.
        let _ = TcpStream::connect(self.peer_addr);
        let _ = TcpStream::connect(self.client_addr);
        for h in self.accept_threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.engine_thread.take() {
            let _ = h.join();
        }
        // Sever established connections (the acceptors are gone, so no
        // new ones can race in). `Shutdown::Both` reaches the underlying
        // socket shared with the per-connection reader threads, waking
        // them and the remote ends.
        for (_, s) in self.client_writers.lock().drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for s in self.peer_conns.lock().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Blocks forever serving (used by the `minos-noded` binary).
    pub fn join(mut self) {
        if let Some(h) = self.engine_thread.take() {
            let _ = h.join();
        }
    }
}

/// The engine thread: one [`NodeCore`] fed from the socket readers'
/// inbox through a [`TcpPort`], plus the metrics exporter.
struct EngineLoop {
    core: NodeCore,
    port: TcpPort,
    rx: Receiver<In>,
    next_req: u64,
    /// Where and what `--metrics-out` dumps (`None` = no exporter).
    metrics: Option<(PathBuf, Arc<std::sync::Mutex<HistogramSet>>)>,
    gauges: GaugeSet,
    dump_every: Duration,
    next_dump: Instant,
}

impl EngineLoop {
    /// Builds the node and completes its start-up rejoin, so the first
    /// client op is admitted against the recovered state.
    fn start(cfg: &TcpNodeConfig, mut port: TcpPort, rx: Receiver<In>) -> EngineLoop {
        // Observability: JSONL trace + per-op latency histograms,
        // stamped from this process's monotonic epoch.
        let mut sinks: Vec<obs::SharedSink> = Vec::new();
        if let Some(path) = cfg.trace_out.as_ref() {
            match JsonlWriter::create(path) {
                Ok(w) => sinks.push(obs::shared(w)),
                Err(e) => eprintln!("minos-tcp: cannot open trace file {}: {e}", path.display()),
            }
        }
        let metrics = cfg.metrics_out.clone().map(|path| {
            let (sink, set) = MetricsSink::new(cfg.model.persistency);
            sinks.push(obs::shared(sink));
            (path, set)
        });
        let tracer =
            (!sinks.is_empty()).then(|| Tracer::new(cfg.node, TraceClock::monotonic(), sinks));
        let as_cluster = ClusterConfig {
            nodes: cfg.peers.len(),
            nvm_persist_ns_per_kb: cfg.persist_ns_per_kb,
            batching: cfg.batching,
            broadcast: cfg.broadcast,
            chaos: cfg.chaos.clone(),
            fault: cfg.fault,
            placement: cfg.placement.clone(),
            ..ClusterConfig::cloudlab()
        };
        let mut core = NodeCore::new(cfg.node, cfg.model, &as_cluster, tracer);

        // ---- Startup rejoin ----
        // Step 1, replay your own durable log: decode the on-disk NVM
        // file (surviving state from before the crash). A torn final
        // append is truncated away, per the codec contract.
        if let Some(path) = cfg.nvm_log.as_ref() {
            if let Ok(bytes) = std::fs::read(path) {
                let (entries, outcome) = decode_entries(&bytes);
                if let DecodeOutcome::Truncated { valid_bytes } = outcome {
                    eprintln!(
                        "minos-tcp: NVM log {} has a torn tail; truncating to {valid_bytes} bytes",
                        path.display()
                    );
                    if let Ok(f) = std::fs::OpenOptions::new().write(true).open(path) {
                        let _ = f.set_len(valid_bytes as u64);
                    }
                }
                core.recover(&entries, false);
            }
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                Ok(f) => port.log_file = Some(f),
                Err(e) => eprintln!("minos-tcp: cannot open NVM log {}: {e}", path.display()),
            }
        }
        // Step 2, donor catch-up: ship the per-key version summary to the
        // donor and install exactly the versions this node missed while
        // down — appended to the on-disk log so they survive a second
        // crash.
        if let Some(donor) = cfg.rejoin_donor {
            match TcpClient::connect(donor).and_then(|mut c| c.fetch_delta(&core.durable.summary()))
            {
                Ok(delta) => {
                    core.recover(&delta, false);
                    port.mirror(&delta);
                }
                Err(e) => eprintln!("minos-tcp: rejoin catch-up from {donor} failed: {e}"),
            }
        }

        let dump_every = cfg.metrics_interval.max(Duration::from_millis(1));
        EngineLoop {
            core,
            port,
            rx,
            next_req: 1,
            metrics,
            gauges: GaugeSet::new(),
            dump_every,
            next_dump: Instant::now() + dump_every,
        }
    }

    fn run(mut self) {
        loop {
            let tick = self.dump_every.min(Duration::from_millis(200));
            match self.rx.recv_timeout(tick) {
                Ok(In::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {}
                Ok(In::Peer(from, msgs, ctx)) => {
                    // One inbound frame may carry a whole batch.
                    for msg in msgs {
                        self.dispatch(Event::Message { from, msg }, ctx);
                    }
                }
                Ok(In::Local { event, ctx, due }) => {
                    if let Some(due) = due {
                        wait_until(due);
                    }
                    self.dispatch(event, ctx);
                }
                Ok(In::Client {
                    conn,
                    creq,
                    op,
                    ctx,
                }) => self.client_op(conn, creq, op, ctx),
            }
            // Keep trace shards on disk current: a killed (not shut
            // down) process must still leave an assemblable shard
            // behind, so the JSONL sink may not sit on a buffered tail
            // across input batches.
            if let Some(tr) = self.core.dispatcher.tracer_mut() {
                tr.flush_sinks();
            }
            if Instant::now() >= self.next_dump {
                self.export_metrics();
            }
        }
        // Final dump so short-lived runs still export.
        self.export_metrics();
    }

    fn dispatch(&mut self, ev: Event, ctx: Option<TraceCtx>) {
        if let Some(fill) = self.core.dispatch(ev, ctx, &mut self.port) {
            let node = u32::from(self.port.node.0);
            self.gauges.observe(GaugeKind::BatchFill, node, fill);
        }
    }

    fn client_op(&mut self, conn: u64, creq: u64, op: ClientOp, ctx: Option<TraceCtx>) {
        let req = ReqId(self.next_req);
        let ev = match op {
            ClientOp::DumpDurable => {
                let mut frame = reply_head(creq, 4);
                encode_log_dump(&self.core.durable.entries_since(0), false, &mut frame);
                return self.port.reply(conn, &mut frame);
            }
            ClientOp::Delta { have } => {
                // Donor side of a rejoin: ship the versions the caller's
                // summary is missing.
                let mut frame = reply_head(creq, 5);
                encode_log_dump(&self.core.durable.delta_against(&have), true, &mut frame);
                return self.port.reply(conn, &mut frame);
            }
            ClientOp::PeerStatus { peer, up } => {
                if peer != self.port.node {
                    // Drop the cached connection either way: a down
                    // peer's socket is dead, and a rejoined peer listens
                    // on a *new* socket — a write into the half-closed
                    // old one would succeed at the TCP level and silently
                    // swallow the frame.
                    self.port.peers.remove(&peer);
                    self.core.view_change(peer, up, &mut self.port);
                }
                return self.port.reply(conn, &mut reply_head(creq, 6));
            }
            ClientOp::Put { key, scope, value } => Event::ClientWrite {
                key,
                value,
                scope,
                req,
            },
            ClientOp::Get { key } => Event::ClientRead { key, req },
            ClientOp::Persist { scope } => Event::ClientPersistScope { scope, req },
        };
        self.next_req += 1;
        self.port.pending.insert(req, (conn, creq));
        self.dispatch(ev, ctx);
    }

    /// The metrics tick: samples the node-level resource gauges (here and
    /// not per event, so the O(records) lock scan stays off the hot
    /// path) and rewrites the `--metrics-out` file.
    fn export_metrics(&mut self) {
        let inflight = self.port.pending.values().map(|_| None);
        self.core.sample(&mut self.gauges, inflight, self.rx.len());
        if let Some((path, hists)) = self.metrics.as_ref() {
            let mut text = hists.lock().expect("histogram lock").render_prometheus();
            text.push_str(&self.gauges.render_prometheus());
            let _ = std::fs::write(path, text);
        }
        self.next_dump = Instant::now() + self.dump_every;
    }
}

/// Waits out what is left of an emulated device latency. The inbox is
/// FIFO, so by the time the engine reaches a persist completion most or
/// all of its latency has usually passed; a short remainder is spun,
/// since a sleep would overshoot it by the OS timer slack.
fn wait_until(due: Instant) {
    const SPIN_LIMIT: Duration = Duration::from_micros(100);
    let left = due.saturating_duration_since(Instant::now());
    if left > SPIN_LIMIT {
        std::thread::sleep(left);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The socket runtime's [`Port`]: peer frames are encoded with the
/// shared wire codec and written straight to peer sockets, scheduled
/// events go back into the engine's own inbox (a persist completion
/// stamped with the instant it is due), completions are written back to
/// the client connection.
struct TcpPort {
    node: NodeId,
    /// The current dispatch's trace context, carried on every peer frame
    /// and locally rescheduled event it emits.
    ctx: Option<TraceCtx>,
    peer_addrs: Vec<SocketAddr>,
    peers: HashMap<NodeId, TcpStream>,
    /// Open on-disk NVM log (None = memory-only durability emulation).
    log_file: Option<std::fs::File>,
    engine_tx: Sender<In>,
    writers: Writers,
    /// Client request bookkeeping: engine ReqId → (conn, creq).
    pending: HashMap<ReqId, (u64, u64)>,
    /// Peer-frame encode scratch (length prefix included), reused across
    /// dispatches.
    frame_buf: Vec<u8>,
}

impl TcpPort {
    /// Encodes `msgs` once (into the reused scratch) and writes the same
    /// bytes to every destination, reconnecting once per destination on
    /// a stale connection. An unreachable peer loses the frame, which is
    /// exactly what a crashed node looks like.
    fn send_frame(&mut self, dests: &[NodeId], msgs: &[Message]) {
        let mut frame = std::mem::take(&mut self.frame_buf);
        frame.clear();
        frame.resize(4, 0); // the length prefix, filled in by `write_frame`
        append_peer_frame_ctx(self.node, msgs, self.ctx, &mut frame);
        for &to in dests {
            for _attempt in 0..2 {
                if !self.peers.contains_key(&to) {
                    let addr = self.peer_addrs[to.0 as usize];
                    match TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s)) {
                        Ok(s) => {
                            self.peers.insert(to, s);
                        }
                        Err(_) => break, // peer down: message lost
                    }
                }
                if let Some(s) = self.peers.get_mut(&to) {
                    if write_frame(s, &mut frame).is_ok() {
                        break;
                    }
                    self.peers.remove(&to); // stale connection: retry
                }
            }
        }
        self.frame_buf = frame;
    }

    /// Writes one reply frame (begun by [`reply_head`]) to client
    /// connection `conn`, forgetting the connection if it is gone.
    fn reply(&self, conn: u64, frame: &mut [u8]) {
        let mut writers = self.writers.lock();
        if let Some(s) = writers.get_mut(&conn) {
            if write_frame(s, frame).is_err() {
                writers.remove(&conn);
            }
        }
    }
}

impl FrameTransport for TcpPort {
    fn deposit(&mut self, to: NodeId, msgs: Vec<Message>) {
        self.send_frame(&[to], &msgs);
    }

    fn deposit_all(&mut self, dests: &[NodeId], msgs: Vec<Message>) {
        self.send_frame(dests, &msgs);
    }

    fn set_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.ctx = ctx;
    }
}

impl Port for TcpPort {
    fn after(&mut self, ns: u64, event: Event) {
        let due = (ns > 0).then(|| Instant::now() + Duration::from_nanos(ns));
        let _ = self.engine_tx.send(In::Local {
            event,
            ctx: self.ctx,
            due,
        });
    }

    fn complete(&mut self, req: ReqId, outcome: Outcome) {
        if let Some((conn, creq)) = self.pending.remove(&req) {
            self.reply(conn, &mut encode_reply(creq, &outcome));
        }
    }

    fn redirect(&mut self, to: NodeId, event: Event) {
        // Client-op routing happens at the client ([`ShardedTcpClient`]),
        // so a correctly routed deployment never redirects. An op that
        // reaches a non-replica anyway is refused (status 0), naming a
        // node that would have taken it.
        let (Event::ClientWrite { req, .. }
        | Event::ClientRead { req, .. }
        | Event::ClientPersistScope { req, .. }) = event
        else {
            return;
        };
        if let Some((conn, creq)) = self.pending.remove(&req) {
            let mut frame = reply_head(creq, 0);
            frame.extend_from_slice(format!("not a replica of the key; try {to}").as_bytes());
            self.reply(conn, &mut frame);
        }
    }

    /// Appends to the on-disk log, so the entries survive a real process
    /// restart (the rejoin path replays this file).
    fn mirror(&mut self, entries: &[LogEntry]) {
        if let Some(f) = self.log_file.as_mut() {
            let _ = f.write_all(&encode_entries(entries));
        }
    }
}

/// A reply frame begun with the `[u64 client-req][u8 status]` every
/// reply body starts with.
fn reply_head(creq: u64, status: u8) -> Vec<u8> {
    let mut b = new_frame();
    b.extend_from_slice(&creq.to_le_bytes());
    b.push(status);
    b
}

/// Encodes the reply frame to a completed client op (statuses 1–3 of
/// the module docs).
fn encode_reply(creq: u64, outcome: &Outcome) -> Vec<u8> {
    match outcome {
        Outcome::Write { ts, .. } => {
            let mut b = reply_head(creq, 1);
            put_ts(&mut b, *ts);
            b
        }
        Outcome::Read { value, ts } => {
            let mut b = reply_head(creq, 2);
            put_ts(&mut b, *ts);
            b.extend_from_slice(value);
            b
        }
        Outcome::PersistScope { .. } => reply_head(creq, 3),
    }
}

fn put_ts(b: &mut Vec<u8>, ts: Ts) {
    b.extend_from_slice(&ts.version.to_le_bytes());
    b.extend_from_slice(&ts.node.0.to_le_bytes());
}

/// Reads the `[u32 version][u16 node]` [`put_ts`] wrote at the head of `b`.
fn get_ts(b: &[u8]) -> Option<Ts> {
    let version = u32::from_le_bytes(b.get(..4)?.try_into().ok()?);
    let node = NodeId(u16::from_le_bytes(b.get(4..6)?.try_into().ok()?));
    Some(Ts { version, node })
}

fn parse_client_request(frame: &[u8]) -> Option<(u64, ClientOp, Option<TraceCtx>)> {
    if frame.len() < 9 {
        return None;
    }
    // A set CLIENT_CTX_FLAG bit means a trace context follows the
    // client-req field; the low bits are the op code either way.
    let op = frame[0] & !CLIENT_CTX_FLAG;
    let creq = u64::from_le_bytes(frame[1..9].try_into().ok()?);
    let (ctx, rest) = if frame[0] & CLIENT_CTX_FLAG != 0 {
        let c = TraceCtx::decode(frame.get(9..)?).ok()?;
        (
            Some(c).filter(|c| !c.is_empty()),
            &frame[9 + TraceCtx::WIRE_LEN..],
        )
    } else {
        (None, &frame[9..])
    };
    let parsed = match op {
        1 => {
            // [key u64][scope flag u8 (+u32)][value...]
            if rest.len() < 9 {
                return None;
            }
            let key = Key(u64::from_le_bytes(rest[..8].try_into().ok()?));
            let (scope, off) = if rest[8] == 1 {
                if rest.len() < 13 {
                    return None;
                }
                (
                    Some(ScopeId(u32::from_le_bytes(rest[9..13].try_into().ok()?))),
                    13,
                )
            } else {
                (None, 9)
            };
            ClientOp::Put {
                key,
                scope,
                value: Value::copy_from_slice(&rest[off..]),
            }
        }
        2 => {
            if rest.len() != 8 {
                return None;
            }
            ClientOp::Get {
                key: Key(u64::from_le_bytes(rest.try_into().ok()?)),
            }
        }
        3 => {
            if rest.len() != 4 {
                return None;
            }
            ClientOp::Persist {
                scope: ScopeId(u32::from_le_bytes(rest.try_into().ok()?)),
            }
        }
        4 => {
            if !rest.is_empty() {
                return None;
            }
            ClientOp::DumpDurable
        }
        5 => {
            // [u32 count]{[u64 key][u32 ts_version][u16 ts_node]}
            let count = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
            let mut rest = &rest[4..];
            let mut have = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let key = Key(u64::from_le_bytes(rest.get(..8)?.try_into().ok()?));
                have.push((key, get_ts(&rest[8..])?));
                rest = &rest[14..];
            }
            if !rest.is_empty() {
                return None;
            }
            ClientOp::Delta { have }
        }
        6 => {
            // [u16 peer][u8 up]
            if rest.len() != 3 {
                return None;
            }
            ClientOp::PeerStatus {
                peer: NodeId(u16::from_le_bytes(rest[..2].try_into().ok()?)),
                up: rest[2] == 1,
            }
        }
        _ => return None,
    };
    Some((creq, parsed, ctx))
}

/// Encodes a durable-log dump: `[u32 count]` then, per entry,
/// `[u64 lsn][u64 key][u32 ts_version][u16 ts_node][u32 len][value]` —
/// with `len` = 0 and no value bytes unless `values` is set.
fn encode_log_dump(entries: &[LogEntry], values: bool, body: &mut Vec<u8>) {
    body.extend_from_slice(
        &u32::try_from(entries.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    for e in entries {
        let value: &[u8] = if values { &e.value } else { &[] };
        body.extend_from_slice(&e.lsn.to_le_bytes());
        body.extend_from_slice(&e.key.0.to_le_bytes());
        put_ts(body, e.ts);
        body.extend_from_slice(&u32::try_from(value.len()).unwrap_or(u32::MAX).to_le_bytes());
        body.extend_from_slice(value);
    }
}

/// Decodes [`encode_log_dump`] output; `None` on malformed payloads.
fn decode_log_dump(mut rest: &[u8]) -> Option<Vec<LogEntry>> {
    let count = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
    rest = &rest[4..];
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let lsn = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
        let key = Key(u64::from_le_bytes(rest.get(8..16)?.try_into().ok()?));
        let ts = get_ts(&rest[16..])?;
        let len = u32::from_le_bytes(rest.get(22..26)?.try_into().ok()?) as usize;
        let value = Value::copy_from_slice(rest.get(26..26 + len)?);
        rest = &rest[26 + len..];
        entries.push(LogEntry {
            lsn,
            key,
            ts,
            value,
        });
    }
    Some(entries)
}

/// A synchronous client for the TCP node protocol. Socket reads and
/// writes give up after [`OP_TIMEOUT`], so a node that never answers
/// costs its client one bounded wait, not a hang.
pub struct TcpClient {
    stream: TcpStream,
    next_req: u64,
    trace_ctx: Option<TraceCtx>,
    /// An exchange failed and the socket was shut down; every further
    /// call fails at once.
    failed: bool,
}

impl TcpClient {
    /// Connects to a node's client port.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        stream.set_write_timeout(Some(OP_TIMEOUT))?;
        Ok(TcpClient {
            stream,
            next_req: 1,
            trace_ctx: None,
            failed: false,
        })
    }

    /// Sets the trace context stamped on every subsequent request
    /// (`None` reverts to untraced requests). A stamped request makes
    /// the server adopt the client's trace id instead of minting one,
    /// and the context's `origin_ns` gives the assembler a client-side
    /// send timestamp for the client-to-server hop.
    pub fn set_trace_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.trace_ctx = ctx.filter(|c| !c.is_empty());
    }

    /// One request/response exchange: sends `[op][creq][payload]`
    /// (trace-stamped when a context is set) and returns the reply frame
    /// — `[creq][status][payload]` — once its status says `op` was done.
    ///
    /// A request can be abandoned (timeout, socket error), and its reply
    /// may still arrive later: the reply must echo this request's `creq`,
    /// and a failed exchange shuts the socket down, so a late reply can
    /// never answer the next request.
    fn call(&mut self, op: u8, payload: &[u8]) -> std::io::Result<Vec<u8>> {
        let creq = self.next_req;
        self.next_req += 1;
        let mut frame = new_frame();
        frame.push(op);
        frame.extend_from_slice(&creq.to_le_bytes());
        if let Some(ctx) = self.trace_ctx {
            // The context rides between the fixed [op][creq] prefix all
            // requests share and the op's payload.
            frame[4] |= CLIENT_CTX_FLAG;
            frame.extend_from_slice(&ctx.encode());
        }
        frame.extend_from_slice(payload);
        let resp = self.exchange(creq, &mut frame).inspect_err(|_| {
            self.failed = true;
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        })?;
        match resp[8] {
            status if status == op => Ok(resp),
            0 => Err(std::io::Error::other(format!(
                "node refused op {op}: {}",
                String::from_utf8_lossy(&resp[9..])
            ))),
            status => Err(std::io::Error::other(format!(
                "unexpected status {status} in response to op {op}"
            ))),
        }
    }

    /// One frame out, one frame in; the reply must be the one to `creq`.
    fn exchange(&mut self, creq: u64, frame: &mut [u8]) -> std::io::Result<Vec<u8>> {
        write_frame(&mut self.stream, frame)?;
        let resp = read_frame(&mut self.stream)?;
        if resp.len() < 9 {
            return Err(std::io::Error::other("short response"));
        }
        if resp[..8] != creq.to_le_bytes() {
            return Err(std::io::Error::other(format!(
                "reply answers request {}, not {creq}",
                u64::from_le_bytes(resp[..8].try_into().expect("8 bytes"))
            )));
        }
        Ok(resp)
    }

    /// Writes `value` under `key`; returns the write's timestamp.
    ///
    /// # Errors
    ///
    /// Propagates socket errors, refusals (a node that does not
    /// replicate `key`) and malformed responses.
    pub fn put(&mut self, key: Key, value: &[u8], scope: Option<ScopeId>) -> std::io::Result<Ts> {
        let mut payload = key.0.to_le_bytes().to_vec();
        match scope {
            Some(sc) => {
                payload.push(1);
                payload.extend_from_slice(&sc.0.to_le_bytes());
            }
            None => payload.push(0),
        }
        payload.extend_from_slice(value);
        let resp = self.call(1, &payload)?;
        get_ts(&resp[9..]).ok_or_else(|| std::io::Error::other("malformed put response"))
    }

    /// Reads `key` from the connected node.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn get(&mut self, key: Key) -> std::io::Result<Vec<u8>> {
        self.get_versioned(key).map(|(v, _)| v)
    }

    /// Reads `key` and also reports the version (`volatileTS`) observed —
    /// what the linearizability checkers need from a TCP history.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn get_versioned(&mut self, key: Key) -> std::io::Result<(Vec<u8>, Ts)> {
        let resp = self.call(2, &key.0.to_le_bytes())?;
        let ts =
            get_ts(&resp[9..]).ok_or_else(|| std::io::Error::other("malformed get response"))?;
        Ok((resp[15..].to_vec(), ts))
    }

    /// Dumps which versions the connected node's durable log holds, in
    /// append order (op 4) — the post-crash durability audit surface of
    /// the TCP runtime.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn dump_durable(&mut self) -> std::io::Result<Vec<(Key, Ts)>> {
        let resp = self.call(4, &[])?;
        let entries = decode_log_dump(&resp[9..])
            .ok_or_else(|| std::io::Error::other("malformed log dump"))?;
        Ok(entries.into_iter().map(|e| (e.key, e.ts)).collect())
    }

    /// Fetches a rejoin catch-up delta (op 5): ships `have` — this
    /// node's per-key durable version summary — and returns the donor's
    /// durable records strictly newer than (or absent from) it. Called
    /// by a restarting node against its donor before it starts serving.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn fetch_delta(&mut self, have: &[(Key, Ts)]) -> std::io::Result<Vec<LogEntry>> {
        let mut payload = u32::try_from(have.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes()
            .to_vec();
        for (key, ts) in have {
            payload.extend_from_slice(&key.0.to_le_bytes());
            put_ts(&mut payload, *ts);
        }
        let resp = self.call(5, &payload)?;
        decode_log_dump(&resp[9..]).ok_or_else(|| std::io::Error::other("malformed delta"))
    }

    /// Notifies the connected node that `peer` went down (`up = false`)
    /// or rejoined (`up = true`) — op 6, the membership admin surface.
    /// The TCP runtime has no in-band failure detector; the control
    /// plane (an operator, or the torture harness) drives view changes
    /// through this call so survivors shrink their replication quorum.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn set_peer_status(&mut self, peer: NodeId, up: bool) -> std::io::Result<()> {
        let [lo, hi] = peer.0.to_le_bytes();
        self.call(6, &[lo, hi, u8::from(up)]).map(drop)
    }

    /// Issues a `[PERSIST]sc` for `scope`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn persist_scope(&mut self, scope: ScopeId) -> std::io::Result<()> {
        self.call(3, &scope.0.to_le_bytes()).map(drop)
    }
}

/// A placement-aware TCP client: holds (lazy) connections to every
/// node's client port and routes each operation to a replica of its
/// key's shard — the wire-protocol counterpart of the facade routing the
/// in-process harnesses get from
/// [`ShardRouter`](minos_core::runtime::ShardRouter).
///
/// `origin` plays the role the submit node plays in the threaded
/// cluster: ops on keys it replicates stay local, everything else goes
/// to the shard's home node. Scoped writes record their coordinator so
/// [`ShardedTcpClient::persist_scope`] can fan the flush out to exactly
/// the touched shards.
pub struct ShardedTcpClient {
    map: ShardMap,
    origin: NodeId,
    client_addrs: Vec<SocketAddr>,
    conns: HashMap<NodeId, TcpClient>,
    /// Coordinators each open scope's writes were routed to.
    scopes: HashMap<ScopeId, Vec<NodeId>>,
}

impl ShardedTcpClient {
    /// A client attached at `origin`, routing over `map`. `client_addrs`
    /// lists every node's client-protocol address, indexed by node id;
    /// connections are opened on first use.
    #[must_use]
    pub fn new(map: ShardMap, origin: NodeId, client_addrs: Vec<SocketAddr>) -> ShardedTcpClient {
        assert_eq!(
            map.n_nodes(),
            client_addrs.len(),
            "placement map and client address list disagree on cluster size"
        );
        ShardedTcpClient {
            map,
            origin,
            client_addrs,
            conns: HashMap::new(),
            scopes: HashMap::new(),
        }
    }

    fn conn(&mut self, node: NodeId) -> std::io::Result<&mut TcpClient> {
        // A connection whose exchange failed is shut down: replace it.
        if self.conns.get(&node).is_none_or(|c| c.failed) {
            let c = TcpClient::connect(self.client_addrs[node.0 as usize])?;
            self.conns.insert(node, c);
        }
        Ok(self.conns.get_mut(&node).expect("connection just inserted"))
    }

    /// Routes and issues a put; returns the write's timestamp.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn put(&mut self, key: Key, value: &[u8], scope: Option<ScopeId>) -> std::io::Result<Ts> {
        let coord = self.map.serving(self.origin, key);
        if let Some(sc) = scope {
            let coords = self.scopes.entry(sc).or_default();
            if !coords.contains(&coord) {
                coords.push(coord);
            }
        }
        self.conn(coord)?.put(key, value, scope)
    }

    /// Routes and issues a get.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn get(&mut self, key: Key) -> std::io::Result<Vec<u8>> {
        let coord = self.map.serving(self.origin, key);
        self.conn(coord)?.get(key)
    }

    /// Flushes `scope` at every coordinator its writes were routed to
    /// (consuming the record); a scope with no routed writes flushes
    /// trivially at the origin.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn persist_scope(&mut self, scope: ScopeId) -> std::io::Result<()> {
        let coords = match self.scopes.remove(&scope) {
            Some(c) if !c.is_empty() => c,
            _ => vec![self.origin],
        };
        for c in coords {
            self.conn(c)?.persist_scope(scope)?;
        }
        Ok(())
    }

    /// Dumps which versions `node`'s durable log holds (the audit
    /// surface, unrouted).
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn dump_durable(&mut self, node: NodeId) -> std::io::Result<Vec<(Key, Ts)>> {
        self.conn(node)?.dump_durable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client connected to a one-connection server running `serve`.
    fn client_of(serve: impl FnOnce(TcpStream) + Send + 'static) -> (TcpClient, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(listener.local_addr().unwrap()).unwrap();
        let server = std::thread::spawn(move || serve(listener.accept().unwrap().0));
        (client, server)
    }

    #[test]
    fn silent_node_costs_one_timeout_then_the_client_fails_fast() {
        // The server holds the connection open and never answers.
        let (release, held) = std::sync::mpsc::channel::<()>();
        let (mut client, server) = client_of(move |_stream| {
            let _ = held.recv();
        });
        assert_eq!(client.stream.read_timeout().unwrap(), Some(OP_TIMEOUT));
        assert_eq!(client.stream.write_timeout().unwrap(), Some(OP_TIMEOUT));

        let short = Duration::from_millis(50);
        client.stream.set_read_timeout(Some(short)).unwrap();
        let err = client.get(Key(1)).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{err}"
        );

        // The abandoned exchange shut the socket down: the next call does
        // not wait out a second timeout.
        client.stream.set_read_timeout(Some(OP_TIMEOUT)).unwrap();
        let began = Instant::now();
        assert!(client.get(Key(1)).is_err());
        assert!(began.elapsed() < OP_TIMEOUT / 2);

        drop(release);
        server.join().unwrap();
    }

    #[test]
    fn reply_to_another_request_is_refused() {
        // What a late reply to an abandoned request would look like: a
        // well-formed read-done answering a different `creq`.
        let (mut client, server) = client_of(|mut stream| {
            let req = read_frame(&mut stream).unwrap();
            let creq = u64::from_le_bytes(req[1..9].try_into().unwrap());
            let mut reply = reply_head(creq + 7, 2);
            put_ts(&mut reply, Ts::new(NodeId(0), 1));
            write_frame(&mut stream, &mut reply).unwrap();
            // Hold the socket until the client gives it up.
            let _ = read_frame(&mut stream);
        });
        let err = client.get_versioned(Key(1)).unwrap_err();
        assert!(
            err.to_string().contains("answers request 8, not 1"),
            "{err}"
        );
        assert!(client.failed);
        assert!(client.get(Key(1)).is_err());
        server.join().unwrap();
    }

    #[test]
    fn client_and_accepted_sockets_run_with_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let on_conn = move |s: TcpStream| tx.send(s.nodelay().unwrap()).unwrap();
        let acceptor =
            spawn_acceptor("nodelay-test".into(), listener, Arc::clone(&stop), on_conn).unwrap();
        let client = TcpClient::connect(addr).unwrap();
        assert!(client.stream.nodelay().unwrap());
        assert!(rx.recv().unwrap(), "accepted socket without TCP_NODELAY");
        stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(addr));
        acceptor.join().unwrap();
    }

    /// A reader serving `bytes` that remembers the largest buffer it was
    /// handed to fill.
    struct Recording<'a> {
        bytes: &'a [u8],
        largest_buf: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_buf = self.largest_buf.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn read_frame_refuses_a_prefix_over_the_cap() {
        let mut wire = u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes().to_vec();
        wire.extend_from_slice(&[7; 16]);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.to_string(), "frame too large");
    }

    #[test]
    fn read_frame_pays_only_for_bytes_that_arrive() {
        // A prefix declaring the largest legal frame, then 10 bytes and
        // EOF: the truncated body is an error, and the buffer never grew
        // toward the declared 64 MiB.
        let mut wire = u32::try_from(MAX_FRAME).unwrap().to_le_bytes().to_vec();
        wire.extend_from_slice(&[7; 10]);
        let mut r = Recording {
            bytes: &wire,
            largest_buf: 0,
        };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(r.largest_buf <= FRAME_RESERVE, "{} bytes", r.largest_buf);

        // A whole frame reads back exactly.
        let mut frame = new_frame();
        frame.extend_from_slice(b"body");
        let n = u32::try_from(frame.len() - 4).unwrap();
        frame[..4].copy_from_slice(&n.to_le_bytes());
        assert_eq!(read_frame(&mut frame.as_slice()).unwrap(), b"body");
    }

    #[test]
    fn durable_dump_is_26_bytes_per_entry_whatever_the_value_size() {
        let peers = vec!["127.0.0.1:0".parse().unwrap()];
        let node = TcpNode::serve(TcpNodeConfig {
            node: NodeId(0),
            model: DdpModel::lin(minos_types::PersistencyModel::Synchronous),
            peers,
            client_addr: "127.0.0.1:0".parse().unwrap(),
            persist_ns_per_kb: 1295,
            batching: false,
            broadcast: false,
            trace_out: None,
            metrics_out: None,
            metrics_interval: Duration::from_secs(1),
            chaos: None,
            fault: None,
            placement: None,
            nvm_log: None,
            rejoin_donor: None,
        })
        .unwrap();
        let mut client = TcpClient::connect(node.client_addr()).unwrap();
        let sizes = [0usize, 1, 1024, 64 * 1024];
        for (k, &size) in sizes.iter().enumerate() {
            client.put(Key(k as u64), &vec![b'v'; size], None).unwrap();
        }
        let reply = client.call(4, &[]).unwrap();
        assert_eq!(reply.len() - 9, 4 + 26 * sizes.len());
        let dumped = client.dump_durable().unwrap();
        let keys: Vec<Key> = dumped.iter().map(|&(key, _)| key).collect();
        assert_eq!(keys, (0..sizes.len() as u64).map(Key).collect::<Vec<_>>());

        // The rejoin delta (op 5) still ships the values.
        let delta = client.fetch_delta(&[]).unwrap();
        let lens: Vec<usize> = delta.iter().map(|e| e.value.len()).collect();
        assert_eq!(lens, sizes);
        node.shutdown();
    }
}
