//! The one trace model: per-op [`Timeline`]s tiled into the paper's
//! Fig. 4 latency categories.
//!
//! A timeline is one client operation seen from its coordinator: the
//! `[admit, complete]` window, the wire hops it crossed, and the window
//! cut into consecutive [`Category`] segments by one tiler. Because the
//! segments tile the window exactly, the category totals sum to the
//! measured end-to-end latency by construction. Two entry points build
//! timelines; they differ only in their *selection rule* — which records
//! count as an op's markers (`DESIGN.md` §4.4 records where the two
//! disagree):
//!
//! * [`analyze`] — **by request**, on one clock: the coordinator's records
//!   between the op's admission and completion that name its key or no
//!   key at all. It feeds the `minos-trace` report, the Perfetto export
//!   and every bench `critical_path` cell.
//! * [`assemble`] — **by trace**, on fitted clocks: the coordinator's
//!   records stamped with the op's trace id, across per-process shards.
//!   It feeds `minos-trace --assemble`, `--stats` and `--check-causal`.
//!
//! Every process of a live cluster stamps its trace records with its
//! *own* clock epoch ([`TraceClock::monotonic`](super::TraceClock) starts
//! at process launch), so raw `at_ns` values from different shards are
//! not comparable. What *is* comparable: each ctx-stamped `MsgReceived`
//! record carries the sender's local clock at emission
//! ([`TraceMeta::remote_ns`](super::TraceMeta)). Each matched send/recv
//! pair therefore measures `delay + (offset_sender − offset_receiver)`,
//! and with traffic in both directions the offset difference separates
//! from the (nonnegative) network delay.
//!
//! The fit ([`ClockFit::fit`]) works in two phases:
//!
//! 1. **Feasible start.** Every observed pair `(A→B)` yields the
//!    difference constraint `θ_A − θ_B ≤ min(d_AB)` (corrected send must
//!    not exceed corrected recv). Bellman–Ford shortest paths from a
//!    reference node over these edges produce offsets satisfying every
//!    constraint — causality holds by construction.
//! 2. **Median refinement.** The feasible point sits on constraint
//!    boundaries (it assumes some hop had zero delay). `K` sweeps move
//!    each node toward the median of its neighbor estimates
//!    `θ_A − (med(d_AB) − med(d_BA))/2` — which cancels symmetric path
//!    delay — *clamped* to the causality bounds, followed by a final
//!    relaxation pass so the refined offsets still satisfy every
//!    constraint exactly.
//!
//! [`assemble`] then corrects every timestamp onto the fit and extracts
//! hops (a `MsgReceived` whose [`parent`](super::TraceMeta::parent) names
//! the sending dispatch). [`format_report`], [`format_assembly`] and
//! [`format_hop_stats`] render the human-readable reports behind
//! `minos-trace`, `--assemble` and `--stats`.

use super::hist::OpKind;
use super::{TraceEvent, TraceRecord};
use crate::event::ReqId;
use minos_types::{Key, MessageKind, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The Fig. 4 latency-breakdown categories an op's time is attributed
/// to. `DESIGN.md` §4.4 documents the event → category mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Local scheduling hops (client admission → write body).
    Dispatch,
    /// Protocol computation: message handling, metadata updates.
    Computation,
    /// Waiting on the network: fan-outs, unicasts, batch flushes, PCIe.
    Communication,
    /// Waiting on a critical-path NVM persist.
    Persist,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 4] = [
        Category::Dispatch,
        Category::Computation,
        Category::Communication,
        Category::Persist,
    ];

    /// Short display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Category::Dispatch => "dispatch",
            Category::Computation => "computation",
            Category::Communication => "communication",
            Category::Persist => "persist",
        }
    }

    /// Stable position of this category in a `[u64; 4]` breakdown (the
    /// order of [`Category::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Category::Dispatch => 0,
            Category::Computation => 1,
            Category::Communication => 2,
            Category::Persist => 3,
        }
    }

    /// Per-category totals of `segments`, indexed as [`Category::ALL`].
    /// Sum one op's segments for its breakdown, or many ops' for an
    /// aggregate.
    #[must_use]
    pub fn totals<'a>(segments: impl IntoIterator<Item = &'a (Category, u64)>) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (cat, ns) in segments {
            out[cat.index()] += ns;
        }
        out
    }
}

/// Which category the time *after* `event` (until the next marker) is
/// attributed to; `None` for events that own no time (background
/// persists, completions).
fn category_after(event: &TraceEvent) -> Option<Category> {
    match event {
        TraceEvent::OpAdmitted { .. } => Some(Category::Dispatch),
        TraceEvent::WriteStarted { .. }
        | TraceEvent::MsgReceived { .. }
        | TraceEvent::PersistCompleted { .. }
        | TraceEvent::FifoDrained { .. }
        | TraceEvent::CoherenceTransfer { .. } => Some(Category::Computation),
        TraceEvent::MsgSent { .. }
        | TraceEvent::FanOut { .. }
        | TraceEvent::BatchFlushed { .. }
        | TraceEvent::PcieCrossing { .. } => Some(Category::Communication),
        TraceEvent::PersistStarted { key: _, background } => {
            (!background).then_some(Category::Persist)
        }
        TraceEvent::FifoEnqueued { durable, .. } => Some(if *durable {
            Category::Persist
        } else {
            Category::Computation
        }),
        TraceEvent::OpCompleted { .. } => None,
    }
}

/// The Fig. 4 tiler. Clamps every marker into `[start_ns, end_ns]` (a
/// guard against cross-thread timestamp skew), orders them by time, and
/// gives each the gap up to the next marker — or to `end_ns` for the
/// last. A marker without a category ends the gap before it and owns
/// none itself.
fn tile(
    start_ns: u64,
    end_ns: u64,
    mut markers: Vec<(u64, Option<Category>)>,
) -> Vec<(Category, u64)> {
    for (t, _) in &mut markers {
        *t = (*t).clamp(start_ns, end_ns);
    }
    markers.sort_by_key(|&(t, _)| t);
    let next = |i: usize| markers.get(i + 1).map_or(end_ns, |&(t, _)| t);
    (0..markers.len())
        .filter_map(|i| Some((markers[i].1?, next(i) - markers[i].0)))
        .collect()
}

/// One wire hop of an assembled trace: a message leaving one dispatch
/// and entering another, with both endpoints on the corrected clock.
#[derive(Debug, Clone)]
pub struct Hop {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Message discriminant.
    pub kind: MessageKind,
    /// Sending dispatch's span id.
    pub send_span: u64,
    /// Receiving dispatch's span id.
    pub recv_span: u64,
    /// Emission time, corrected onto the reference clock.
    pub send_ns: i64,
    /// Receipt time, corrected onto the reference clock.
    pub recv_ns: i64,
}

impl Hop {
    /// Corrected network delay. Nonnegative whenever the fit satisfied
    /// its causality constraints.
    #[must_use]
    pub fn delay_ns(&self) -> i64 {
        self.recv_ns - self.send_ns
    }
}

/// One client operation reconstructed from a trace: the coordinator's
/// `[admit, complete]` window, every wire hop the op crossed, and the
/// window tiled into Fig. 4 category segments.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// End-to-end trace identity (0 for an untraced op).
    pub trace_id: u64,
    /// Coordinating node (where the op was admitted).
    pub coordinator: NodeId,
    /// Request id (unique per coordinator in a trace).
    pub req: ReqId,
    /// Operation class.
    pub op: OpKind,
    /// Target record, if the op names one.
    pub key: Option<Key>,
    /// Admission, corrected onto the reference clock.
    pub admit_ns: i64,
    /// Completion, corrected onto the reference clock. `None` while the
    /// op never completed inside the captured records.
    pub complete_ns: Option<i64>,
    /// Write cut short as obsolete.
    pub obsolete: bool,
    /// Wire hops the trace crossed, in corrected send order (only
    /// [`assemble`] extracts hops).
    pub hops: Vec<Hop>,
    /// Consecutive category segments tiling `[admit, complete]` (empty
    /// for incomplete ops).
    pub segments: Vec<(Category, u64)>,
    /// Records the selection rule picked for this op, on any node (for
    /// [`assemble`]: every record carrying its trace id).
    pub records: usize,
}

impl Timeline {
    /// The timeline of the op `admit` opened and `complete` (if present)
    /// closed, on `fit`'s clock. Of the `picked` records, the
    /// coordinator's mark the window for the tiler; hops are left empty.
    fn build<'a>(
        admit: &TraceRecord,
        complete: Option<&TraceRecord>,
        picked: impl IntoIterator<Item = &'a TraceRecord>,
        fit: &ClockFit,
    ) -> Timeline {
        let TraceEvent::OpAdmitted { op, req, key, .. } = admit.event else {
            unreachable!("a timeline opens at an admission")
        };
        let mut records = 0;
        let mut markers = vec![(admit.at_ns, Some(Category::Dispatch))];
        for r in picked {
            records += 1;
            if r.node == admit.node && !matches!(r.event, TraceEvent::OpAdmitted { .. }) {
                if let Some(cat) = category_after(&r.event) {
                    markers.push((r.at_ns, Some(cat)));
                }
            }
        }
        Timeline {
            trace_id: admit.meta.trace_id,
            coordinator: admit.node,
            req,
            op,
            key,
            admit_ns: fit.correct(admit.node, admit.at_ns),
            complete_ns: complete.map(|c| fit.correct(c.node, c.at_ns)),
            obsolete: complete
                .is_some_and(|c| matches!(c.event, TraceEvent::OpCompleted { obsolete: true, .. })),
            hops: Vec::new(),
            segments: complete.map_or_else(Vec::new, |c| tile(admit.at_ns, c.at_ns, markers)),
            records,
        }
    }

    /// End-to-end latency (0 while the op is incomplete). The segments
    /// sum to it by construction.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.complete_ns
            .map_or(0, |c| u64::try_from(c - self.admit_ns).unwrap_or(0))
    }

    /// Per-category totals, indexed as [`Category::ALL`].
    #[must_use]
    pub fn breakdown(&self) -> [u64; 4] {
        Category::totals(&self.segments)
    }

    /// Hops whose corrected receive precedes their corrected send —
    /// zero whenever the clock fit is feasible.
    #[must_use]
    pub fn causal_violations(&self) -> usize {
        self.hops.iter().filter(|h| h.delay_ns() < 0).count()
    }
}

// ------------------------------------------------------------------
// The two selection rules.

/// The **by-request** rule's filter: whether `event` belongs on the
/// timeline of an op over `op_key`.
///
/// Keyed events must match the op's key. Key-less events (batch flushes,
/// PCIe crossings) match any open op on the node. A scope flush
/// (`op_key == None`) additionally claims the scope sub-protocol's
/// persist traffic regardless of record key.
fn relevant(event: &TraceEvent, op_key: Option<Key>) -> bool {
    let scope_kinds = [
        MessageKind::Persist,
        MessageKind::PersistAckP,
        MessageKind::PersistValP,
    ];
    match (event.key(), op_key) {
        (None, _) => true,
        (Some(k), Some(ok)) => k == ok,
        (Some(_), None) => match event {
            TraceEvent::MsgReceived { kind, .. }
            | TraceEvent::MsgSent { kind, .. }
            | TraceEvent::FanOut { kind, .. } => scope_kinds.contains(kind),
            TraceEvent::PersistStarted { .. } | TraceEvent::PersistCompleted { .. } => true,
            _ => false,
        },
    }
}

/// Reconstructs the completed ops of a single-clock trace **by
/// request**: an op is an `(node, req)` admission/completion pair, and
/// its markers are the coordinator's records in between that name the
/// op's key or none (a scope flush also claims its scope's persist
/// traffic). Returns the ops in completion order.
///
/// Concurrent ops on the *same* node share key-less events, so category
/// totals are sharpest for closed-loop (one-op-per-node) workloads —
/// which is how the paper measures Fig. 4.
#[must_use]
pub fn analyze(records: &[TraceRecord]) -> Vec<Timeline> {
    let fit = ClockFit::identity();
    let mut open: Vec<((NodeId, ReqId), usize)> = Vec::new();
    let mut done = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        match rec.event {
            TraceEvent::OpAdmitted { req, .. } => open.push(((rec.node, req), i)),
            TraceEvent::OpCompleted { req, .. } => {
                if let Some(pos) = open.iter().position(|&(id, _)| id == (rec.node, req)) {
                    let (_, at) = open.swap_remove(pos);
                    let key = records[at].event.key();
                    let picked = records[at..=i].iter().filter(|r| relevant(&r.event, key));
                    done.push(Timeline::build(&records[at], Some(rec), picked, &fit));
                }
            }
            _ => {}
        }
    }
    done
}

/// A full cross-shard assembly: the clock fit plus one [`Timeline`] per
/// trace id observed.
#[derive(Debug, Clone)]
pub struct Assembly {
    /// The fitted per-node clock corrections.
    pub fit: ClockFit,
    /// Assembled operations, ordered by corrected admission time.
    pub timelines: Vec<Timeline>,
    /// Ctx-stamped `MsgReceived` records whose parent span never matched
    /// a sending dispatch (sender shard missing from the input).
    pub unmatched_hops: usize,
}

impl Assembly {
    /// Total corrected-causality violations across every timeline.
    #[must_use]
    pub fn causal_violations(&self) -> usize {
        self.timelines.iter().map(Timeline::causal_violations).sum()
    }
}

/// Assembles merged multi-shard `records` into per-op timelines on one
/// skew-corrected clock **by trace**: an op is a trace id with an
/// admission, and its markers are the coordinator's records stamped with
/// that id. Untraced records (zero meta) contribute nothing here —
/// [`analyze`] still covers them per shard.
#[must_use]
pub fn assemble(records: &[TraceRecord]) -> Assembly {
    let fit = ClockFit::fit(records);

    // Spans that emitted wire traffic, for hop matching: a receiving
    // record names its sender's dispatch via meta.parent.
    let send_spans: BTreeSet<u64> = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::MsgSent { .. } | TraceEvent::FanOut { .. }
            )
        })
        .map(|r| r.meta.span)
        .filter(|&span| span != 0)
        .collect();

    let mut by_trace: BTreeMap<u64, Vec<&TraceRecord>> = BTreeMap::new();
    for rec in records.iter().filter(|r| r.meta.trace_id != 0) {
        by_trace.entry(rec.meta.trace_id).or_default().push(rec);
    }

    let mut unmatched_hops = 0usize;
    let mut timelines: Vec<Timeline> = Vec::new();
    for recs in by_trace.values() {
        let Some(admit) = recs
            .iter()
            .find(|r| matches!(r.event, TraceEvent::OpAdmitted { .. }))
        else {
            // A forwarded fragment without its admission (coordinator
            // shard missing); nothing to anchor a timeline on.
            continue;
        };
        let complete = recs
            .iter()
            .find(|r| r.node == admit.node && matches!(r.event, TraceEvent::OpCompleted { .. }));

        // Hops: every receipt that names its sending dispatch.
        let mut hops: Vec<Hop> = Vec::new();
        for rec in recs {
            let TraceEvent::MsgReceived { from, kind, .. } = rec.event else {
                continue;
            };
            if rec.meta.parent == 0 {
                continue;
            }
            if !send_spans.contains(&rec.meta.parent) {
                unmatched_hops += 1;
                continue;
            }
            let send_ns = if rec.meta.remote_ns != 0 {
                fit.correct(from, rec.meta.remote_ns)
            } else {
                fit.correct(rec.node, rec.at_ns)
            };
            hops.push(Hop {
                from,
                to: rec.node,
                kind,
                send_span: rec.meta.parent,
                recv_span: rec.meta.span,
                send_ns,
                recv_ns: fit.correct(rec.node, rec.at_ns),
            });
        }
        hops.sort_by_key(|h| h.send_ns);

        timelines.push(Timeline {
            hops,
            ..Timeline::build(admit, complete.copied(), recs.iter().copied(), &fit)
        });
    }
    timelines.sort_by_key(|t| t.admit_ns);

    Assembly {
        fit,
        timelines,
        unmatched_hops,
    }
}

// ------------------------------------------------------------------
// Clock fit.

/// Refinement sweeps after the feasible start (cheap; converges fast).
const REFINE_SWEEPS: usize = 8;

/// Median of a sorted slice, averaging the middle pair for even lengths
/// (picking one side would bias every even-sample fit upward).
fn median_of(sorted: &[i64]) -> i64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// Per-node clock offsets fitted from matched send/receive pairs.
///
/// `corrected(node, t) = t + offset(node)`, with the reference node
/// (lowest node id that appears) pinned at offset 0.
#[derive(Debug, Clone)]
pub struct ClockFit {
    /// Node whose clock the corrected timeline is expressed in.
    pub reference: NodeId,
    /// Additive correction per node, nanoseconds.
    pub offsets: BTreeMap<u16, i64>,
    /// Matched send/receive samples the fit consumed.
    pub samples: usize,
}

impl ClockFit {
    /// An identity fit (no correction) — what a single-shard trace gets.
    #[must_use]
    pub fn identity() -> Self {
        ClockFit {
            reference: NodeId(0),
            offsets: BTreeMap::new(),
            samples: 0,
        }
    }

    /// The additive correction for `node` (0 when the node never
    /// exchanged a traced message).
    #[must_use]
    pub fn offset(&self, node: NodeId) -> i64 {
        self.offsets.get(&node.0).copied().unwrap_or(0)
    }

    /// `node`'s local timestamp mapped onto the reference clock.
    #[must_use]
    pub fn correct(&self, node: NodeId, at_ns: u64) -> i64 {
        i64::try_from(at_ns).unwrap_or(i64::MAX) + self.offset(node)
    }

    /// Fits per-node offsets from every ctx-stamped `MsgReceived` in
    /// `records`. Nodes that never exchanged a traced message with the
    /// reference component keep offset 0.
    #[must_use]
    pub fn fit(records: &[TraceRecord]) -> Self {
        // Delay samples per directed pair: d = recv(local B) − send(local A).
        let mut pair: BTreeMap<(u16, u16), Vec<i64>> = BTreeMap::new();
        for rec in records {
            if let TraceEvent::MsgReceived { from, .. } = rec.event {
                if rec.meta.remote_ns != 0 && from != rec.node {
                    let d = i64::try_from(rec.at_ns).unwrap_or(i64::MAX)
                        - i64::try_from(rec.meta.remote_ns).unwrap_or(i64::MAX);
                    pair.entry((from.0, rec.node.0)).or_default().push(d);
                }
            }
        }
        if pair.is_empty() {
            return ClockFit::identity();
        }
        let samples = pair.values().map(Vec::len).sum();
        let mut nodes: Vec<u16> = pair.keys().flat_map(|&(a, b)| [a, b]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let reference = NodeId(nodes[0]);

        // Tightest bound and median per directed pair.
        let mut ub: BTreeMap<(u16, u16), i64> = BTreeMap::new();
        let mut med: BTreeMap<(u16, u16), i64> = BTreeMap::new();
        for (k, ds) in &mut pair {
            ds.sort_unstable();
            ub.insert(*k, ds[0]);
            med.insert(*k, median_of(ds));
        }

        // Phase 1: Bellman–Ford shortest paths from the reference.
        // Constraint θ_A − θ_B ≤ ub_AB is the relaxation edge B→A with
        // weight ub_AB (θ_A ≤ θ_B + ub_AB).
        let mut theta: BTreeMap<u16, i64> = nodes.iter().map(|&n| (n, i64::MAX)).collect();
        theta.insert(reference.0, 0);
        for _ in 0..nodes.len() {
            let mut changed = false;
            for (&(a, b), &w) in &ub {
                let tb = theta[&b];
                if tb != i64::MAX && theta[&a] > tb.saturating_add(w) {
                    theta.insert(a, tb.saturating_add(w));
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // A disconnected component never relaxes; pin it at 0.
        for v in theta.values_mut() {
            if *v == i64::MAX {
                *v = 0;
            }
        }

        // Phase 2: clamped median refinement.
        for _ in 0..REFINE_SWEEPS {
            for &b in &nodes {
                if b == reference.0 {
                    continue;
                }
                let mut cands: Vec<i64> = Vec::new();
                let mut lo = i64::MIN;
                let mut hi = i64::MAX;
                for &a in &nodes {
                    if a == b {
                        continue;
                    }
                    let fwd = med.get(&(a, b)); // A sent to B
                    let rev = med.get(&(b, a)); // B sent to A
                    match (fwd, rev) {
                        (Some(&mab), Some(&mba)) => {
                            // Symmetric-delay estimate of θ_A − θ_B.
                            cands.push(theta[&a] - (mab - mba) / 2);
                        }
                        (Some(&mab), None) => cands.push(theta[&a] - mab),
                        (None, Some(&mba)) => cands.push(theta[&a] + mba),
                        (None, None) => continue,
                    }
                    if let Some(&u) = ub.get(&(a, b)) {
                        lo = lo.max(theta[&a] - u); // θ_B ≥ θ_A − ub_AB
                    }
                    if let Some(&u) = ub.get(&(b, a)) {
                        hi = hi.min(theta[&a] + u); // θ_B ≤ θ_A + ub_BA
                    }
                }
                if cands.is_empty() {
                    continue;
                }
                cands.sort_unstable();
                let target = median_of(&cands);
                let clamped = if lo <= hi { target.clamp(lo, hi) } else { lo };
                theta.insert(b, clamped);
            }
        }

        // Final repair: sweeping per-node clamps chase moving targets, so
        // re-relax until every constraint holds exactly.
        for _ in 0..nodes.len() {
            let mut changed = false;
            for (&(a, b), &w) in &ub {
                if theta[&a] - theta[&b] > w {
                    theta.insert(a, theta[&b].saturating_add(w));
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Re-pin the reference at 0 (repair may have moved it).
        let shift = theta[&reference.0];
        for v in theta.values_mut() {
            *v -= shift;
        }

        ClockFit {
            reference,
            offsets: theta,
            samples,
        }
    }
}

// ------------------------------------------------------------------
// Reports.

/// Renders the per-op timelines and the aggregate Fig. 4-style breakdown
/// as the human-readable report `minos-trace` prints. At most `max_ops`
/// individual timelines are listed; aggregates cover every op.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn format_report(ops: &[Timeline], max_ops: usize) -> String {
    let mut out = String::new();
    if ops.is_empty() {
        out.push_str("no completed operations found in trace\n");
        return out;
    }

    let _ = writeln!(out, "== per-op critical path ({} ops) ==", ops.len());
    for o in ops.iter().take(max_ops) {
        let key = o
            .key
            .map_or_else(|| "-".to_string(), |k| format!("{}", k.0));
        let _ = write!(
            out,
            "node={} req={} op={} key={} total={}ns",
            o.coordinator.0,
            o.req.0,
            o.op,
            key,
            o.total_ns()
        );
        if o.obsolete {
            out.push_str(" (obsolete)");
        }
        let bd = o.breakdown();
        for (cat, ns) in Category::ALL.iter().zip(bd) {
            let _ = write!(out, " {}={}ns", cat.label(), ns);
        }
        out.push('\n');
    }
    if ops.len() > max_ops {
        let _ = writeln!(out, "... {} more ops elided", ops.len() - max_ops);
    }

    out.push_str("\n== aggregate breakdown (Fig. 4 categories) ==\n");
    for kind in OpKind::ALL {
        let of_kind: Vec<&Timeline> = ops.iter().filter(|o| o.op == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        let n = of_kind.len() as f64;
        let total: u64 = of_kind.iter().map(|o| o.total_ns()).sum();
        let cat_totals = Category::totals(of_kind.iter().flat_map(|o| &o.segments));
        let _ = writeln!(
            out,
            "{}: n={} mean={:.0}ns",
            kind,
            of_kind.len(),
            total as f64 / n
        );
        for (cat, ns) in Category::ALL.iter().zip(cat_totals) {
            let share = if total > 0 {
                100.0 * ns as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<14} {:>12.0}ns mean  {share:>5.1}%",
                cat.label(),
                ns as f64 / n
            );
        }
        // The paper folds persist waits and dispatch hops into
        // "computation"; report that two-way split too.
        let comm = cat_totals[Category::Communication.index()];
        let comp: u64 = total - comm;
        if total > 0 {
            let _ = writeln!(
                out,
                "  fig4 split: communication {:.1}% / computation {:.1}%",
                100.0 * comm as f64 / total as f64,
                100.0 * comp as f64 / total as f64
            );
        }
    }
    out
}

fn percentile(sorted: &[i64], p: f64) -> i64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Renders the assembly report behind `minos-trace --assemble`: the
/// clock fit, then one line per timeline with its hop chain.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn format_assembly(asm: &Assembly, max_ops: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== clock fit (reference node {}, {} send/recv samples) ==",
        asm.fit.reference.0, asm.fit.samples
    );
    for (node, off) in &asm.fit.offsets {
        let _ = writeln!(out, "  node {node}: offset {off:+}ns");
    }
    if asm.fit.offsets.is_empty() {
        out.push_str("  (no cross-node samples; raw timestamps kept)\n");
    }

    let complete = asm.timelines.iter().filter(|t| t.complete_ns.is_some());
    let _ = writeln!(
        out,
        "\n== assembled timelines ({} traces, {} unmatched hops) ==",
        asm.timelines.len(),
        asm.unmatched_hops
    );
    for t in complete.take(max_ops) {
        let key = t
            .key
            .map_or_else(|| "-".to_string(), |k| format!("{}", k.0));
        let _ = writeln!(
            out,
            "trace {:#x} op={} key={} coord={} total={}ns hops={} records={}",
            t.trace_id,
            t.op,
            key,
            t.coordinator.0,
            t.total_ns(),
            t.hops.len(),
            t.records
        );
        for h in &t.hops {
            let _ = writeln!(
                out,
                "  {} -> {} {:?}: delay {}ns (send {} recv {})",
                h.from.0,
                h.to.0,
                h.kind,
                h.delay_ns(),
                h.send_ns,
                h.recv_ns
            );
        }
        for (cat, ns) in &t.segments {
            let _ = writeln!(out, "  [{}] {}ns", cat.label(), ns);
        }
    }
    out
}

/// Renders the per-hop latency table behind `minos-trace --stats`:
/// corrected network-delay percentiles per directed node pair, then
/// per-node per-category service time from the dispatch spans.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn format_hop_stats(asm: &Assembly, records: &[TraceRecord]) -> String {
    let mut out = String::new();

    // Network delay per directed pair, over every assembled hop.
    let mut per_pair: BTreeMap<(u16, u16), Vec<i64>> = BTreeMap::new();
    for t in &asm.timelines {
        for h in &t.hops {
            per_pair
                .entry((h.from.0, h.to.0))
                .or_default()
                .push(h.delay_ns());
        }
    }
    out.push_str("== per-hop network delay (skew-corrected) ==\n");
    if per_pair.is_empty() {
        out.push_str("  (no assembled hops)\n");
    }
    for ((from, to), mut ds) in per_pair {
        ds.sort_unstable();
        let mean = ds.iter().sum::<i64>() as f64 / ds.len() as f64;
        let _ = writeln!(
            out,
            "  {from} -> {to}: n={} mean={mean:.0}ns p50={}ns p95={}ns p99={}ns",
            ds.len(),
            percentile(&ds, 0.50),
            percentile(&ds, 0.95),
            percentile(&ds, 0.99),
        );
    }

    // Service time per node per category: tile each dispatch span's
    // records (first to last) with the same tiler as the per-op timelines.
    let mut spans: BTreeMap<(u16, u64), Vec<&TraceRecord>> = BTreeMap::new();
    for rec in records {
        if rec.meta.span != 0 {
            spans
                .entry((rec.node.0, rec.meta.span))
                .or_default()
                .push(rec);
        }
    }
    let mut per_node: BTreeMap<u16, (Vec<(Category, u64)>, usize)> = BTreeMap::new();
    for ((node, _), mut recs) in spans {
        recs.sort_by_key(|r| r.at_ns);
        let (first, last) = (recs[0].at_ns, recs[recs.len() - 1].at_ns);
        let markers = recs.iter().map(|r| (r.at_ns, category_after(&r.event)));
        let entry = per_node.entry(node).or_default();
        entry.0.extend(tile(first, last, markers.collect()));
        entry.1 += 1;
    }
    out.push_str("\n== per-node service time (per dispatch span) ==\n");
    if per_node.is_empty() {
        out.push_str("  (no ctx-stamped spans)\n");
    }
    for (node, (segments, n)) in per_node {
        let _ = write!(out, "  node {node}: spans={n}");
        for (cat, ns) in Category::ALL.iter().zip(Category::totals(&segments)) {
            let _ = write!(out, " {}={:.0}ns", cat.label(), ns as f64 / n as f64);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::sinks::{encode_json, parse_jsonl_line};
    use super::super::TraceMeta;
    use super::*;
    use minos_types::{ScopeId, Ts};
    use proptest::prelude::*;

    fn rec(at_ns: u64, node: u16, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at_ns,
            node: NodeId(node),
            event,
            meta: TraceMeta::default(),
        }
    }

    #[test]
    fn meta_fields_roundtrip_through_jsonl() {
        let mut r = rec(
            3,
            1,
            TraceEvent::MsgReceived {
                from: NodeId(0),
                kind: MessageKind::Inv,
                key: Some(Key(9)),
            },
        );
        r.meta = TraceMeta {
            trace_id: 77,
            span: 88,
            parent: 99,
            remote_ns: 1234,
        };
        let line = encode_json(&r);
        assert_eq!(parse_jsonl_line(&line), Some(r));
    }

    /// Ids as node 63 mints them (`(63 + 1) << 48 | seq`, past 2^53 —
    /// where an `f64` reader rounds) and a sender clock just as wide.
    fn node63_meta(seq: u64) -> TraceMeta {
        let id = |n: u64| (64u64 << 48) | n;
        TraceMeta {
            trace_id: id(3 * seq + 7),
            span: id(3 * seq + 8),
            parent: id(3 * seq + 9),
            remote_ns: (1u64 << 60) | seq,
        }
    }

    #[test]
    fn jsonl_roundtrips_every_variant() {
        let probes = vec![
            rec(
                1,
                63,
                TraceEvent::OpAdmitted {
                    op: OpKind::PersistScope,
                    req: ReqId(9),
                    key: None,
                    scope: Some(ScopeId(3)),
                },
            ),
            rec(2, 63, TraceEvent::WriteStarted { key: Key(4) }),
            rec(
                3,
                63,
                TraceEvent::MsgSent {
                    to: NodeId(2),
                    kind: MessageKind::ValP,
                    key: Some(Key(4)),
                },
            ),
            rec(
                4,
                63,
                TraceEvent::MsgReceived {
                    from: NodeId(0),
                    kind: MessageKind::PersistAckP,
                    key: None,
                },
            ),
            rec(
                5,
                63,
                TraceEvent::FanOut {
                    dests: 4,
                    kind: MessageKind::Inv,
                    key: Some(Key(1)),
                },
            ),
            rec(
                6,
                63,
                TraceEvent::PersistStarted {
                    key: Key(1),
                    background: true,
                },
            ),
            rec(7, 63, TraceEvent::PersistCompleted { key: Key(1) }),
            rec(8, 63, TraceEvent::BatchFlushed { sends: 3 }),
            rec(
                9,
                63,
                TraceEvent::OpCompleted {
                    op: OpKind::Write,
                    req: ReqId(1),
                    key: Some(Key(1)),
                    obsolete: true,
                    ts: Some(Ts::new(NodeId(2), 40)),
                },
            ),
            rec(
                10,
                63,
                TraceEvent::PcieCrossing {
                    from: crate::offload::Side::Snic,
                },
            ),
            rec(
                11,
                63,
                TraceEvent::FifoEnqueued {
                    durable: true,
                    key: Key(2),
                },
            ),
            rec(
                12,
                63,
                TraceEvent::FifoDrained {
                    durable: false,
                    key: Key(2),
                },
            ),
            rec(13, 63, TraceEvent::CoherenceTransfer { key: Key(3) }),
        ];
        for (seq, mut p) in (0u64..).zip(probes) {
            p.meta = node63_meta(seq);
            let line = encode_json(&p);
            let back = parse_jsonl_line(&line).unwrap_or_else(|| panic!("unparsed: {line}"));
            assert_eq!(back, p, "line: {line}");
            // A node killed mid-buffer leaves a cut last line: every
            // strict prefix must be skipped, never misread.
            for cut in 0..line.len() {
                assert_eq!(
                    parse_jsonl_line(&line[..cut]),
                    None,
                    "torn: {}",
                    &line[..cut]
                );
            }
        }
    }

    fn write_trace() -> Vec<TraceRecord> {
        vec![
            rec(
                0,
                0,
                TraceEvent::OpAdmitted {
                    op: OpKind::Write,
                    req: ReqId(1),
                    key: Some(Key(7)),
                    scope: None,
                },
            ),
            rec(100, 0, TraceEvent::WriteStarted { key: Key(7) }),
            rec(
                150,
                0,
                TraceEvent::FanOut {
                    dests: 2,
                    kind: MessageKind::Inv,
                    key: Some(Key(7)),
                },
            ),
            rec(160, 0, TraceEvent::BatchFlushed { sends: 1 }),
            rec(
                900,
                0,
                TraceEvent::MsgReceived {
                    from: NodeId(1),
                    kind: MessageKind::Ack,
                    key: Some(Key(7)),
                },
            ),
            rec(
                950,
                0,
                TraceEvent::PersistStarted {
                    key: Key(7),
                    background: false,
                },
            ),
            rec(1400, 0, TraceEvent::PersistCompleted { key: Key(7) }),
            rec(
                1500,
                0,
                TraceEvent::OpCompleted {
                    op: OpKind::Write,
                    req: ReqId(1),
                    key: Some(Key(7)),
                    obsolete: false,
                    ts: Some(Ts::new(NodeId(0), 1)),
                },
            ),
        ]
    }

    #[test]
    fn categories_tile_the_op_interval() {
        let ops = analyze(&write_trace());
        assert_eq!(ops.len(), 1);
        let o = &ops[0];
        assert_eq!(o.total_ns(), 1500);
        assert_eq!(o.breakdown().iter().sum::<u64>(), o.total_ns());
        let bd = o.breakdown();
        assert_eq!(bd[Category::Dispatch.index()], 100);
        // flush(160)→ack(900) waits on the network; fanout(150)→flush(160)
        // is also communication.
        assert_eq!(bd[Category::Communication.index()], 750);
        assert_eq!(bd[Category::Persist.index()], 450);
        assert_eq!(bd[Category::Computation.index()], 200);
    }

    #[test]
    fn background_persists_do_not_open_a_persist_segment() {
        let mut t = write_trace();
        if let TraceEvent::PersistStarted { background, .. } = &mut t[5].event {
            *background = true;
        }
        let ops = analyze(&t);
        let bd = ops[0].breakdown();
        assert_eq!(bd[Category::Persist.index()], 0);
        assert_eq!(bd.iter().sum::<u64>(), ops[0].total_ns());
    }

    #[test]
    fn unrelated_keys_are_not_attributed() {
        let mut t = write_trace();
        t.insert(
            4,
            rec(
                500,
                0,
                TraceEvent::PersistStarted {
                    key: Key(99),
                    background: false,
                },
            ),
        );
        let ops = analyze(&t);
        assert_eq!(ops[0].breakdown()[Category::Persist.index()], 450);
    }

    #[test]
    fn report_mentions_categories_and_sums() {
        let ops = analyze(&write_trace());
        let report = format_report(&ops, 10);
        assert!(report.contains("total=1500ns"));
        assert!(report.contains("communication"));
        assert!(report.contains("fig4 split"));
    }

    /// Local clock of `node`: global time minus the node's true offset.
    fn local(global: u64, offset: i64) -> u64 {
        u64::try_from(i64::try_from(global).unwrap() - offset).unwrap()
    }

    #[allow(clippy::too_many_arguments)]
    fn recv_rec(
        at_global: u64,
        from: u16,
        to: u16,
        offs: &[i64],
        send_global: u64,
        tid: u64,
        span: u64,
        parent: u64,
    ) -> TraceRecord {
        TraceRecord {
            at_ns: local(at_global, offs[to as usize]),
            node: NodeId(to),
            event: TraceEvent::MsgReceived {
                from: NodeId(from),
                kind: MessageKind::Inv,
                key: Some(Key(1)),
            },
            meta: TraceMeta {
                trace_id: tid,
                span,
                parent,
                remote_ns: local(send_global, offs[from as usize]),
            },
        }
    }

    fn sent_rec(at_global: u64, node: u16, offs: &[i64], tid: u64, span: u64) -> TraceRecord {
        TraceRecord {
            at_ns: local(at_global, offs[node as usize]),
            node: NodeId(node),
            event: TraceEvent::FanOut {
                dests: 2,
                kind: MessageKind::Inv,
                key: Some(Key(1)),
            },
            meta: TraceMeta {
                trace_id: tid,
                span,
                parent: 0,
                remote_ns: 0,
            },
        }
    }

    /// Mesh traffic among 3 skewed nodes; the fit must recover the
    /// pairwise offset differences and keep every hop causal.
    #[test]
    fn fit_recovers_known_skew() {
        let offs = [0i64, 3_000_000, -2_000_000]; // ±ms skews
        let mut recs = Vec::new();
        let mut t = 10_000_000u64;
        let mut span = 100u64;
        for round in 0..40 {
            for a in 0..3u16 {
                for b in 0..3u16 {
                    if a == b {
                        continue;
                    }
                    let delay = 40_000 + 10_000 * u64::from((round + a + b) % 5);
                    recs.push(sent_rec(t, a, &offs, 1, span));
                    recs.push(recv_rec(t + delay, a, b, &offs, t, 1, span + 1, span));
                    span += 2;
                    t += 130_000;
                }
            }
        }
        let fit = ClockFit::fit(&recs);
        assert_eq!(fit.reference, NodeId(0));
        // Recovered within the delay spread (delays span 40–80µs).
        for n in 0..3u16 {
            let err = (fit.offset(NodeId(n)) - (offs[n as usize] - offs[0])).abs();
            assert!(err <= 80_000, "node {n} offset err {err}ns");
        }
        // And every constraint holds exactly.
        for r in &recs {
            if let TraceEvent::MsgReceived { from, .. } = r.event {
                assert!(fit.correct(from, r.meta.remote_ns) <= fit.correct(r.node, r.at_ns));
            }
        }
    }

    #[test]
    fn no_samples_is_identity() {
        let fit = ClockFit::fit(&[]);
        assert_eq!(fit.samples, 0);
        assert_eq!(fit.offset(NodeId(5)), 0);
    }

    /// A full mini-trace across two shards: admit on node 0, INV hop to
    /// node 1, ACK hop back, complete on node 0. The assembly must
    /// produce one timeline whose segments tile [admit, complete].
    #[test]
    fn assembles_cross_shard_timeline() {
        let offs = [0i64, 5_000_000];
        let tid = (1u64 << 48) | 7;
        let s_admit = (1u64 << 48) | 1;
        let s_remote = (2u64 << 48) | 1;
        let s_done = (1u64 << 48) | 2;
        let meta = |span, parent, rns| TraceMeta {
            trace_id: tid,
            span,
            parent,
            remote_ns: rns,
        };
        let mk = |at: u64, node: u16, event, meta| TraceRecord {
            at_ns: local(at, offs[node as usize]),
            node: NodeId(node),
            event,
            meta,
        };
        let recs = vec![
            mk(
                10_001_000,
                0,
                TraceEvent::OpAdmitted {
                    op: OpKind::Write,
                    req: crate::ReqId(1),
                    key: Some(Key(3)),
                    scope: None,
                },
                meta(s_admit, 0, 0),
            ),
            mk(
                10_001_100,
                0,
                TraceEvent::FanOut {
                    dests: 1,
                    kind: MessageKind::Inv,
                    key: Some(Key(3)),
                },
                meta(s_admit, 0, 0),
            ),
            mk(
                10_001_500,
                1,
                TraceEvent::MsgReceived {
                    from: NodeId(0),
                    kind: MessageKind::Inv,
                    key: Some(Key(3)),
                },
                meta(s_remote, s_admit, local(10_001_100, offs[0])),
            ),
            mk(
                10_001_600,
                1,
                TraceEvent::MsgSent {
                    to: NodeId(0),
                    kind: MessageKind::Ack,
                    key: Some(Key(3)),
                },
                meta(s_remote, s_admit, 0),
            ),
            mk(
                10_002_000,
                0,
                TraceEvent::MsgReceived {
                    from: NodeId(1),
                    kind: MessageKind::Ack,
                    key: Some(Key(3)),
                },
                meta(s_done, s_remote, local(10_001_600, offs[1])),
            ),
            mk(
                10_002_400,
                0,
                TraceEvent::OpCompleted {
                    op: OpKind::Write,
                    req: crate::ReqId(1),
                    key: Some(Key(3)),
                    obsolete: false,
                    ts: None,
                },
                meta(s_done, s_remote, 0),
            ),
        ];
        let asm = assemble(&recs);
        assert_eq!(asm.timelines.len(), 1);
        assert_eq!(asm.causal_violations(), 0);
        let t = &asm.timelines[0];
        assert_eq!(t.coordinator, NodeId(0));
        assert_eq!(t.hops.len(), 2);
        assert_eq!((t.hops[0].from, t.hops[0].to), (NodeId(0), NodeId(1)));
        assert_eq!((t.hops[1].from, t.hops[1].to), (NodeId(1), NodeId(0)));
        // Segments tile [admit, complete] exactly.
        let total: u64 = t.segments.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(total, t.total_ns());
        assert_eq!(t.total_ns(), 1_400);
        // Reports render without panicking and mention the trace.
        let rep = format_assembly(&asm, 10);
        assert!(rep.contains("trace 0x"));
        let stats = format_hop_stats(&asm, &recs);
        assert!(stats.contains("0 -> 1"));
        assert!(stats.contains("1 -> 0"));
    }

    proptest! {
        /// Random ±5ms per-node skews with jittered delays: the
        /// estimator recovers every pairwise offset within the delay
        /// spread, and corrected hops always stay causal.
        #[test]
        fn prop_fit_recovers_injected_skew(
            o1 in -5_000_000i64..5_000_000,
            o2 in -5_000_000i64..5_000_000,
            base in 20_000u64..200_000,
            jitter in proptest::collection::vec(0u64..60_000, 24),
        ) {
            let offs = [0i64, o1, o2];
            let mut recs = Vec::new();
            let mut t = 20_000_000u64;
            let mut span = 1u64;
            let mut ji = 0usize;
            for _round in 0..10 {
                for a in 0..3u16 {
                    for b in 0..3u16 {
                        if a == b { continue; }
                        let delay = base + jitter[ji % jitter.len()];
                        ji += 1;
                        recs.push(sent_rec(t, a, &offs, 1, span));
                        recs.push(recv_rec(t + delay, a, b, &offs, t, 1, span + 1, span));
                        span += 2;
                        t += 250_000;
                    }
                }
            }
            let fit = ClockFit::fit(&recs);
            // Tolerance: jitter-median asymmetry can compound across
            // neighbor estimates; 100us is still 50x under the skew.
            let tol = 100_000i64;
            for n in 1..3u16 {
                let err = (fit.offset(NodeId(n)) - offs[n as usize]).abs();
                prop_assert!(err <= tol, "node {} err {}ns tol {}ns", n, err, tol);
            }
            for r in &recs {
                if let TraceEvent::MsgReceived { from, .. } = r.event {
                    prop_assert!(
                        fit.correct(from, r.meta.remote_ns) <= fit.correct(r.node, r.at_ns)
                    );
                }
            }
        }
    }
}
