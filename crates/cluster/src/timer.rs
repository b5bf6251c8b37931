//! The delay wheel: delivers messages to node threads after a wire or
//! device latency. The threaded runtime's (`NodeMsg`); the TCP runtime
//! has no wire latency to emulate and completes persists on its engine
//! thread instead.
//!
//! One heap entry can carry deliveries to *several* destinations
//! ([`Scheduler::send_after_many`]): that is the broadcast capability of
//! the transport layer — a fan-out costs its sender a single enqueue and
//! is expanded to every destination inside the wheel at expiry.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use minos_types::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request to perform `deliveries` at `due`.
struct Pending<M> {
    due: Instant,
    seq: u64,
    deliveries: Vec<(NodeId, M)>,
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

enum WheelMsg<M> {
    Schedule(Pending<M>),
    Shutdown,
}

/// A background thread that holds messages for their latency and then
/// forwards them to the destination node's channel.
pub(crate) struct TimerWheel<M: Send + 'static> {
    tx: Sender<WheelMsg<M>>,
    handle: Option<JoinHandle<()>>,
}

impl<M: Send + 'static> TimerWheel<M> {
    /// Spawns the wheel, forwarding to `nodes[i]` for `NodeId(i)`.
    pub(crate) fn spawn(nodes: Vec<Sender<M>>) -> Self {
        let (tx, rx): (Sender<WheelMsg<M>>, Receiver<WheelMsg<M>>) = unbounded();
        let handle = std::thread::Builder::new()
            .name("minos-timer".into())
            .spawn(move || {
                let mut heap: BinaryHeap<Reverse<Pending<M>>> = BinaryHeap::new();
                loop {
                    // Fire everything due.
                    let now = Instant::now();
                    while heap.peek().is_some_and(|Reverse(p)| p.due <= now) {
                        let Reverse(p) = heap.pop().expect("peeked");
                        for (dest, msg) in p.deliveries {
                            // A closed node channel means the node shut
                            // down; in-flight messages to it are simply
                            // lost (which is exactly what a crashed node
                            // looks like).
                            let _ = nodes[dest.0 as usize].send(msg);
                        }
                    }
                    // Sleep until the next deadline or a new request.
                    let wait = heap
                        .peek()
                        .map(|Reverse(p)| p.due.saturating_duration_since(Instant::now()))
                        .unwrap_or(Duration::from_millis(50));
                    match rx.recv_timeout(wait) {
                        Ok(WheelMsg::Schedule(p)) => heap.push(Reverse(p)),
                        Ok(WheelMsg::Shutdown) => break,
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            })
            .expect("spawn timer thread");
        TimerWheel {
            tx,
            handle: Some(handle),
        }
    }

    /// Returns a cheap handle node threads use to schedule deliveries.
    pub(crate) fn scheduler(&self) -> Scheduler<M> {
        Scheduler {
            tx: self.tx.clone(),
        }
    }

    /// Stops the wheel (in-flight messages are dropped).
    pub(crate) fn shutdown(mut self) {
        let _ = self.tx.send(WheelMsg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Cloneable scheduling handle.
pub(crate) struct Scheduler<M> {
    tx: Sender<WheelMsg<M>>,
}

impl<M> Clone for Scheduler<M> {
    fn clone(&self) -> Self {
        Scheduler {
            tx: self.tx.clone(),
        }
    }
}

impl<M> Scheduler<M> {
    /// Delivers `msg` to `dest` after `delay_ns`.
    pub(crate) fn send_after(&self, delay_ns: u64, dest: NodeId, msg: M) {
        self.send_after_many(delay_ns, vec![(dest, msg)]);
    }

    /// Performs all of `deliveries` after `delay_ns`, from one wheel
    /// entry — the sender pays a single enqueue however many
    /// destinations there are.
    pub(crate) fn send_after_many(&self, delay_ns: u64, deliveries: Vec<(NodeId, M)>) {
        if deliveries.is_empty() {
            return;
        }
        let seq = NEXT_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let _ = self.tx.send(WheelMsg::Schedule(Pending {
            due: Instant::now() + Duration::from_nanos(delay_ns),
            seq,
            deliveries,
        }));
    }
}

static NEXT_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
