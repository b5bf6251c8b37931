//! The four live workloads: closed-loop clients against a fresh 3-node
//! cluster (TCP processes or the threaded runtime), one repeat at a time.
//!
//! A repeat is: set the cluster up with all 10 000 records, warm up,
//! measure for the window, drain, then audit every node's durable log.
//! An op belongs to the window when its reply arrives inside it.

use crate::ops::{self, SessionView, RECORDS};
use crate::proc::{self, ProcSample};
use crate::tcp::{Conn, TcpCluster, NODES};
use minos_cluster::Cluster;
use minos_types::{ClusterConfig, DdpModel, Key, NodeId, PersistencyModel, Ts, Value};
use minos_workload::Op;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Client threads (= connections). MINOS clients are application threads
/// co-located with a node that block on each op; two of them is all a
/// 2-core box can drive without the load generator competing with itself.
pub const CLIENTS: u32 = 2;
pub const WARMUP: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Runtime {
    Tcp,
    Threaded,
}

#[derive(Clone, Copy, Debug)]
pub struct LiveSpec {
    pub runtime: Runtime,
    pub write_fraction: f64,
    /// Ops each connection keeps in flight (1 = blocking client).
    pub outstanding: usize,
}

/// Everything measured in one repeat.
#[derive(Default)]
pub struct Repeat {
    pub setup_s: f64,
    /// Correct ops whose reply arrived inside the window.
    pub window_ops: u64,
    /// Throughput over the window: per client, replies after the first ÷
    /// time from the first reply to the last, summed over clients. Unlike
    /// a count over the window it does not jump by a whole op when a
    /// reply lands just inside or outside the window's edge.
    pub ops_per_s: f64,
    /// Latencies (ns, send → reply) of those ops, sorted.
    pub reads_ns: Vec<u64>,
    pub writes_ns: Vec<u64>,
    /// Whole repeat, warm-up and probe included.
    pub attempted: u64,
    pub failed: u64,
    pub puts_acked: u64,
    /// Acked puts not durable at ≥ their `Ts` on some node afterwards.
    pub not_durable: u64,
    /// Server-side resource use across the window (TCP: the three node
    /// processes; threaded: this process, clients included).
    pub cpu_us: f64,
    pub ctxsw: u64,
    pub threads: u64,
    pub rss_kb_growth: f64,
    pub window_puts: u64,
    /// Growth of the three on-disk logs over the whole repeat.
    pub log_bytes: u64,
    /// Size of the three `--trace-out` files (traced repeats only).
    pub trace_bytes: u64,
}

/// What one client thread brings back.
struct ClientLog {
    view: SessionView,
    reads_ns: Vec<u64>,
    writes_ns: Vec<u64>,
    window_ops: u64,
    window_puts: u64,
    /// First and last reply inside the window.
    window_span: Option<(Instant, Instant)>,
    attempted: u64,
    failed: u64,
    puts_acked: u64,
}

/// The three instants that split a repeat: warm-up ends at `start`, the
/// window at `end`; on a read-only workload a put-only probe then runs
/// until `probe_end` so the row still has a write latency.
#[derive(Clone, Copy)]
struct Phases {
    start: Instant,
    end: Instant,
    probe_end: Instant,
}

struct Pending {
    creq: u64,
    key: Key,
    put: bool,
    floor: Ts,
    sent: Instant,
}

impl ClientLog {
    fn new() -> Self {
        ClientLog {
            view: SessionView::new(),
            reads_ns: Vec::with_capacity(1 << 19),
            writes_ns: Vec::with_capacity(1 << 19),
            window_ops: 0,
            window_puts: 0,
            window_span: None,
            attempted: 0,
            failed: 0,
            puts_acked: 0,
        }
    }

    /// Books one reply: `ok` is whether the runtime answered with a valid
    /// value; session order is checked here.
    fn complete(&mut self, phases: &Phases, p: &Pending, done: Instant, ts: Ts, ok: bool) {
        if !(ok && self.view.observe(p.key, p.put, p.floor, ts)) {
            self.failed += 1;
            return;
        }
        self.puts_acked += u64::from(p.put);
        let ns = (done - p.sent).as_nanos() as u64;
        if done >= phases.start && done < phases.end {
            self.window_ops += 1;
            self.window_puts += u64::from(p.put);
            self.window_span = Some((self.window_span.map_or(done, |(first, _)| first), done));
            if p.put {
                self.writes_ns.push(ns);
            } else {
                self.reads_ns.push(ns);
            }
        } else if done >= phases.end && p.put && phases.probe_end > phases.end {
            self.writes_ns.push(ns);
        }
    }

    fn ops_per_s(&self, window: Duration) -> f64 {
        match self.window_span {
            Some((first, last)) if last > first => {
                (self.window_ops - 1) as f64 / (last - first).as_secs_f64()
            }
            _ => self.window_ops as f64 / window.as_secs_f64(),
        }
    }
}

/// Draws the next op for `now`, or `None` once the repeat is over.
struct OpSource {
    mix: minos_workload::RequestStream,
    puts_only: minos_workload::RequestStream,
    client: u32,
    seq: u64,
    value: Vec<u8>,
}

impl OpSource {
    fn new(seed: u64, client: u32, write_fraction: f64) -> Self {
        OpSource {
            mix: ops::client_stream(seed, client, write_fraction),
            puts_only: ops::client_stream(!seed, client, 1.0),
            client,
            seq: 0,
            value: Vec::with_capacity(ops::VALUE_BYTES),
        }
    }

    /// `(key, is_put)`; for a put, `self.value` holds the stamped value.
    fn next(&mut self, now: Instant, phases: &Phases) -> Option<(Key, bool)> {
        let op = if now < phases.end {
            self.mix.next_op()
        } else if now < phases.probe_end {
            self.puts_only.next_op()
        } else {
            return None;
        };
        let key = op.key();
        let put = matches!(op, Op::Write { .. });
        if put {
            self.seq += 1;
            ops::stamp_into(key.0, self.client, self.seq, &mut self.value);
        }
        Some((key, put))
    }
}

fn tcp_client(
    mut conn: Conn,
    mut src: OpSource,
    outstanding: usize,
    phases: Phases,
) -> io::Result<ClientLog> {
    let mut log = ClientLog::new();
    let mut pending: Vec<Pending> = Vec::with_capacity(outstanding);
    let mut creq = 0u64;
    loop {
        while pending.len() < outstanding {
            let now = Instant::now();
            let Some((key, put)) = src.next(now, &phases) else {
                break;
            };
            creq += 1;
            log.attempted += 1;
            let floor = log.view.floor(key);
            let sent = Instant::now();
            if put {
                conn.send_put(creq, key.0, &src.value)?;
            } else {
                conn.send_get(creq, key.0)?;
            }
            pending.push(Pending {
                creq,
                key,
                put,
                floor,
                sent,
            });
        }
        if pending.is_empty() {
            return Ok(log);
        }
        let reply = match conn.recv() {
            Ok(r) => r,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Timed out: everything in flight is lost with the
                // connection's framing, so the client stops here.
                log.failed += pending.len() as u64;
                return Ok(log);
            }
            Err(e) => return Err(e),
        };
        let done = Instant::now();
        let Some(at) = pending.iter().position(|p| p.creq == reply.creq) else {
            log.failed += 1;
            continue;
        };
        let p = pending.swap_remove(at);
        let ok = if p.put {
            reply.status == 1
        } else {
            reply.status == 2 && ops::is_valid_value(reply.value(), p.key.0, CLIENTS)
        };
        log.complete(&phases, &p, done, reply.ts, ok);
    }
}

fn threaded_client(
    cluster: &Cluster,
    node: NodeId,
    mut src: OpSource,
    phases: Phases,
) -> ClientLog {
    let mut log = ClientLog::new();
    while let Some((key, put)) = src.next(Instant::now(), &phases) {
        log.attempted += 1;
        let value = put.then(|| Value::from(src.value.clone()));
        let p = Pending {
            creq: 0,
            key,
            put,
            floor: log.view.floor(key),
            sent: Instant::now(),
        };
        let (ts, ok) = match value {
            Some(value) => match cluster.put(node, key, value) {
                Ok(ts) => (ts, true),
                Err(_) => (Ts::default(), false),
            },
            None => match cluster.get_versioned(node, key) {
                Ok((v, ts)) => (ts, ops::is_valid_value(&v, key.0, CLIENTS)),
                Err(_) => (Ts::default(), false),
            },
        };
        log.complete(&phases, &p, Instant::now(), ts, ok);
    }
    log
}

/// Sleeps until `start`, samples, sleeps until `end`, samples again.
fn sample_window(pids: &[u32], phases: &Phases) -> (Vec<ProcSample>, Vec<ProcSample>) {
    let take = || pids.iter().map(|&p| proc::sample(p)).collect::<Vec<_>>();
    std::thread::sleep(phases.start.saturating_duration_since(Instant::now()));
    let before = take();
    std::thread::sleep(phases.end.saturating_duration_since(Instant::now()));
    (before, take())
}

fn phases_from(now: Instant, window: Duration, spec: &LiveSpec) -> Phases {
    let start = now + WARMUP;
    let end = start + window;
    // A quarter of a window of puts is enough for a median and keeps a
    // read-only repeat from running much longer than the others.
    let probe = if spec.write_fraction == 0.0 {
        window / 4
    } else {
        Duration::ZERO
    };
    Phases {
        start,
        end,
        probe_end: end + probe,
    }
}

/// Folds the client logs and the post-run audit into a [`Repeat`].
fn reduce(
    mut rep: Repeat,
    logs: Vec<ClientLog>,
    window: Duration,
    durable: &[Vec<(Key, Ts)>],
    procs: (Vec<ProcSample>, Vec<ProcSample>),
) -> Repeat {
    let mut acked = vec![Ts::default(); RECORDS as usize];
    for log in logs {
        rep.ops_per_s += log.ops_per_s(window);
        rep.window_ops += log.window_ops;
        rep.window_puts += log.window_puts;
        rep.attempted += log.attempted;
        rep.failed += log.failed;
        rep.puts_acked += log.puts_acked;
        rep.reads_ns.extend_from_slice(&log.reads_ns);
        rep.writes_ns.extend_from_slice(&log.writes_ns);
        for (a, b) in acked.iter_mut().zip(&log.view.acked) {
            *a = (*a).max(*b);
        }
    }
    rep.reads_ns.sort_unstable();
    rep.writes_ns.sort_unstable();
    // <Lin, Synch>: an acked put is durable on every node, at its Ts or a
    // newer one for the same key.
    for node_log in durable {
        let mut newest = vec![Ts::default(); RECORDS as usize];
        for &(key, ts) in node_log {
            if let Some(slot) = newest.get_mut(key.0 as usize) {
                *slot = (*slot).max(ts);
            }
        }
        rep.not_durable += acked
            .iter()
            .zip(&newest)
            .filter(|(a, n)| **a > Ts::default() && n < a)
            .count() as u64;
    }
    rep.failed += rep.not_durable;
    let (before, after) = procs;
    for (b, a) in before.iter().zip(&after) {
        rep.cpu_us += a.cpu_us - b.cpu_us;
        rep.ctxsw += a.ctxsw.saturating_sub(b.ctxsw);
        rep.rss_kb_growth += a.rss_kb as f64 - b.rss_kb as f64;
    }
    rep.threads = after.first().map_or(0, |s| s.threads);
    rep
}

/// One repeat against three fresh `minos-noded` processes. `dir` is
/// emptied of this repeat's files before returning.
pub fn tcp_repeat(
    spec: &LiveSpec,
    seed: u64,
    window: Duration,
    noded: &Path,
    dir: &Path,
    image: &[u8],
    traced: bool,
) -> io::Result<Repeat> {
    let t0 = Instant::now();
    let cluster = TcpCluster::start(noded, dir, image, traced)?;
    let conns = (0..CLIENTS as usize)
        .map(|c| Conn::connect(cluster.client_addrs[c]))
        .collect::<io::Result<Vec<_>>>()?;
    let mut rep = Repeat {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Repeat::default()
    };
    let log_size = |c: &TcpCluster| -> u64 {
        c.log_paths
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    };
    let log_before = log_size(&cluster);

    let phases = phases_from(Instant::now(), window, spec);
    let pids = cluster.pids();
    let (logs, procs) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let src = OpSource::new(seed, c as u32, spec.write_fraction);
                s.spawn(move || tcp_client(conn, src, spec.outstanding, phases))
            })
            .collect();
        let procs = sample_window(&pids, &phases);
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<io::Result<Vec<_>>>();
        (logs, procs)
    });
    let logs = logs?;

    let mut durable = Vec::with_capacity(NODES);
    for addr in &cluster.client_addrs {
        durable.push(Conn::connect(*addr)?.dump_durable()?);
    }
    rep.log_bytes = log_size(&cluster) - log_before;
    if traced {
        rep.trace_bytes = cluster
            .trace_paths
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum();
    }
    drop(cluster);
    for entry in std::fs::read_dir(dir)? {
        std::fs::remove_file(entry?.path())?;
    }
    Ok(reduce(rep, logs, window, &durable, procs))
}

/// One repeat against a fresh threaded cluster, loaded by puts.
pub fn threaded_repeat(spec: &LiveSpec, seed: u64, window: Duration) -> Repeat {
    let t0 = Instant::now();
    let cluster = Cluster::spawn(
        ClusterConfig::cloudlab().with_nodes(NODES),
        DdpModel::lin(PersistencyModel::Synchronous),
    );
    let load_failed: u64 = std::thread::scope(|s| {
        let cluster = &cluster;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    (u64::from(c)..RECORDS)
                        .step_by(CLIENTS as usize)
                        .filter(|&key| {
                            let v = Value::from(ops::stamp(key, ops::PRELOAD_CLIENT, 0));
                            cluster.put(NodeId(c as u16), Key(key), v).is_err()
                        })
                        .count() as u64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loader")).sum()
    });
    let rep = Repeat {
        setup_s: t0.elapsed().as_secs_f64(),
        failed: load_failed,
        ..Repeat::default()
    };

    let phases = phases_from(Instant::now(), window, spec);
    let (logs, procs) = std::thread::scope(|s| {
        let cluster = &cluster;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let src = OpSource::new(seed, c, spec.write_fraction);
                s.spawn(move || threaded_client(cluster, NodeId(c as u16), src, phases))
            })
            .collect();
        let procs = sample_window(&[std::process::id()], &phases);
        let logs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (logs, procs)
    });

    let durable: Vec<Vec<(Key, Ts)>> = (0..NODES)
        .map(|n| {
            cluster
                .durable_log(NodeId(n as u16))
                .map(|log| log.iter().map(|e| (e.key, e.ts)).collect())
                .unwrap_or_default()
        })
        .collect();
    cluster.shutdown();
    reduce(rep, logs, window, &durable, procs)
}
