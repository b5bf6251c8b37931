//! The TCP runtime from outside: three `minos-noded` child processes and
//! the benchmark's own client for ops 1 (put), 2 (get) and 4 (dump
//! durable log) of the documented wire protocol.
//!
//! The client is not `minos_cluster::tcp::TcpClient`: it sends each
//! request with one `write`, sets `TCP_NODELAY`, and keeps send and
//! receive apart so a connection can hold several ops in flight. What
//! is measured is therefore the server's half of every exchange.

use crate::ops::{self, preload_ts};
use minos_nvm::encode_entries;
use minos_types::{Key, NodeId, Ts};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const NODES: usize = 3;
/// A reply later than this counts as a failed op.
const OP_TIMEOUT: Duration = Duration::from_secs(5);
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

/// A decoded reply; `ts` and `value` are meaningful for put (status 1)
/// and get (status 2) replies, `body` is everything after the status.
pub struct Reply<'a> {
    pub creq: u64,
    pub status: u8,
    pub ts: Ts,
    pub body: &'a [u8],
}

impl Reply<'_> {
    pub fn value(&self) -> &[u8] {
        self.body.get(6..).unwrap_or(&[])
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        Ok(Conn {
            stream,
            wbuf: Vec::with_capacity(ops::VALUE_BYTES + 64),
            rbuf: Vec::new(),
        })
    }

    fn send(&mut self, op: u8, creq: u64, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.wbuf.clear();
        self.wbuf.extend_from_slice(&[0; 4]);
        self.wbuf.push(op);
        self.wbuf.extend_from_slice(&creq.to_le_bytes());
        fill(&mut self.wbuf);
        let len = (self.wbuf.len() - 4) as u32;
        self.wbuf[..4].copy_from_slice(&len.to_le_bytes());
        self.stream.write_all(&self.wbuf)
    }

    pub fn send_put(&mut self, creq: u64, key: u64, value: &[u8]) -> io::Result<()> {
        self.send(1, creq, |b| {
            b.extend_from_slice(&key.to_le_bytes());
            b.push(0); // no scope
            b.extend_from_slice(value);
        })
    }

    pub fn send_get(&mut self, creq: u64, key: u64) -> io::Result<()> {
        self.send(2, creq, |b| b.extend_from_slice(&key.to_le_bytes()))
    }

    pub fn recv(&mut self) -> io::Result<Reply<'_>> {
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if !(9..=64 << 20).contains(&len) {
            return Err(io::Error::other(format!("reply frame of {len} bytes")));
        }
        self.rbuf.resize(len, 0);
        self.stream.read_exact(&mut self.rbuf)?;
        let creq = u64::from_le_bytes(self.rbuf[..8].try_into().unwrap());
        let status = self.rbuf[8];
        let body = &self.rbuf[9..];
        let ts = match (status, body) {
            (1 | 2, [v0, v1, v2, v3, n0, n1, ..]) => Ts::new(
                NodeId(u16::from_le_bytes([*n0, *n1])),
                u32::from_le_bytes([*v0, *v1, *v2, *v3]),
            ),
            (1 | 2, _) => return Err(io::Error::other("short put/get reply")),
            _ => Ts::default(),
        };
        Ok(Reply {
            creq,
            status,
            ts,
            body,
        })
    }

    /// Op 4: the node's durable log as `(key, ts)` pairs.
    pub fn dump_durable(&mut self) -> io::Result<Vec<(Key, Ts)>> {
        self.send(4, u64::MAX, |_| {})?;
        let reply = self.recv()?;
        if reply.status != 4 {
            return Err(io::Error::other("unexpected dump reply"));
        }
        // [u32 count] then [lsn u64][key u64][version u32][node u16][len u32][value].
        let malformed = || io::Error::other("malformed log dump");
        let mut rest = reply.body;
        let count = u32::from_le_bytes(rest.get(..4).ok_or_else(malformed)?.try_into().unwrap());
        rest = &rest[4..];
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let head = rest.get(..26).ok_or_else(malformed)?;
            let key = Key(u64::from_le_bytes(head[8..16].try_into().unwrap()));
            let version = u32::from_le_bytes(head[16..20].try_into().unwrap());
            let node = NodeId(u16::from_le_bytes(head[20..22].try_into().unwrap()));
            let len = u32::from_le_bytes(head[22..26].try_into().unwrap()) as usize;
            rest = rest.get(26 + len..).ok_or_else(malformed)?;
            out.push((key, Ts::new(node, version)));
        }
        Ok(out)
    }
}

/// The bulk load as an on-disk NVM log in the `minos_nvm` entry codec.
/// `minos-noded --nvm-log` replays it at start, which is the only load
/// path that does not go through 10 000 puts.
pub fn preload_image() -> Vec<u8> {
    encode_entries(&ops::preload_entries())
}

/// Three `minos-noded` processes on loopback. Dropping the value kills
/// and reaps them, on every exit path including a panic.
pub struct TcpCluster {
    children: Vec<Child>,
    pub client_addrs: Vec<SocketAddr>,
    pub log_paths: Vec<PathBuf>,
    pub trace_paths: Vec<PathBuf>,
}

/// Picks free loopback ports by binding port 0 and releasing it.
fn free_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    listeners.iter().map(TcpListener::local_addr).collect()
}

impl TcpCluster {
    /// Writes each node's preloaded log under `dir`, starts the nodes and
    /// returns once every node has answered a get — that is, after it has
    /// replayed its log. `traced` adds `--trace-out --metrics-out`.
    pub fn start(noded: &Path, dir: &Path, image: &[u8], traced: bool) -> io::Result<TcpCluster> {
        let addrs = free_addrs(2 * NODES)?;
        let (peer_addrs, client_addrs) = addrs.split_at(NODES);
        let file = |i: usize, ext: &str| dir.join(format!("n{i}.{ext}"));
        let mut cluster = TcpCluster {
            children: Vec::with_capacity(NODES),
            client_addrs: client_addrs.to_vec(),
            log_paths: (0..NODES).map(|i| file(i, "log")).collect(),
            trace_paths: (0..NODES).map(|i| file(i, "trace")).collect(),
        };
        for (i, client_addr) in client_addrs.iter().enumerate() {
            std::fs::write(file(i, "log"), image)?;
            let mut cmd = Command::new(noded);
            if traced {
                cmd.arg("--trace-out").arg(file(i, "trace"));
                cmd.arg("--metrics-out").arg(file(i, "prom"));
            }
            cmd.arg("--nvm-log").arg(file(i, "log"));
            cmd.arg(i.to_string()).arg("synch");
            cmd.arg(client_addr.to_string());
            cmd.args(peer_addrs.iter().map(SocketAddr::to_string));
            cmd.stdin(Stdio::null()).stdout(Stdio::null());
            cmd.stderr(std::fs::File::create(file(i, "err"))?);
            cluster.children.push(cmd.spawn()?);
        }
        let deadline = Instant::now() + START_TIMEOUT;
        for i in 0..NODES {
            let mut conn = loop {
                if let Some(status) = cluster.children[i].try_wait()? {
                    let err = std::fs::read_to_string(file(i, "err"));
                    return Err(io::Error::other(format!(
                        "minos-noded {i} exited at start ({status}): {}",
                        err.unwrap_or_default().trim()
                    )));
                }
                match Conn::connect(cluster.client_addrs[i]) {
                    Ok(c) => break c,
                    Err(e) if Instant::now() > deadline => return Err(e),
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            };
            conn.stream
                .set_read_timeout(Some(deadline.saturating_duration_since(Instant::now())))?;
            conn.send_get(0, 0)?;
            let reply = conn.recv()?;
            if reply.status != 2 || reply.ts != preload_ts() {
                return Err(io::Error::other(format!("node {i} did not replay its log")));
            }
        }
        Ok(cluster)
    }

    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
    }
}
