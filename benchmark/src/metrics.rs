//! The metric names this benchmark fixes, with unit, direction and — for
//! end-to-end metrics — the regression bound. `BENCHMARK.json` carries the
//! same table; a unit test below checks the two agree.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: share of the baseline's median the metric may worsen
    /// by. Per-layer metrics have no bound.
    pub bound: f64,
    /// Per-layer: a count or virtual-time figure that must repeat exactly
    /// for the same seed; `--compare` treats any difference as a change.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Sized for CPU-bound rows: on the 2-core VM this was built on, CPU
/// speed itself drifts by ±10 % and more over minutes. Today's `tcp-*`
/// rows are timer-bound and repeat to 0.2 % (p99s to 9 %), far inside
/// these bounds, but the first data-plane fix makes them CPU-bound too.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.10),
    e2e("read_p50_us", "us", Lower, 0.10),
    e2e("write_p50_us", "us", Lower, 0.10),
    e2e("read_p99_us", "us", Lower, 0.25),
    e2e("write_p99_us", "us", Lower, 0.25),
];

pub const PER_LAYER: &[Metric] = &[
    // minos-cluster, from /proc of the node processes.
    layer("cluster.cpu_us_per_op", "us", Lower),
    layer("cluster.ctxsw_per_op", "count", Lower),
    layer("cluster.threads", "count", Lower),
    layer("cluster.rss_kb_per_write", "kB", Lower),
    // An exact count, but not a repeatable one: concurrent puts to a hot
    // key cut each other short, and an obsolete put skips its persists.
    layer("cluster.nvm_log_bytes_per_write", "B", Lower),
    // minos-types::wire, from the walk.
    layer("wire.encode_inv_ns", "ns", Lower),
    layer("wire.decode_inv_ns", "ns", Lower),
    layer("wire.encode_ack_ns", "ns", Lower),
    layer("wire.decode_ack_ns", "ns", Lower),
    exact("wire.frames_per_write", "count", Lower),
    exact("wire.bytes_per_write", "B", Lower),
    // minos-core B engine, from the walk.
    layer("engine.on_event_ns", "ns", Lower),
    exact("engine.events_per_write", "count", Lower),
    exact("engine.actions_per_write", "count", Lower),
    layer("engine.coord_ns_per_write", "ns", Lower),
    layer("engine.foll_ns_per_write", "ns", Lower),
    layer("engine.read_ns", "ns", Lower),
    // minos-nvm and minos-kv, from the walk and micro loops.
    layer("nvm.log_append_ns", "ns", Lower),
    layer("nvm.encode_entry_ns", "ns", Lower),
    layer("nvm.decode_entry_ns", "ns", Lower),
    exact("nvm.persists_per_write", "count", Lower),
    layer("kv.persist_ns", "ns", Lower),
    layer("kv.replay_ns_per_entry", "ns", Lower),
    // Walk totals.
    layer("walk.cpu_ns_per_write", "ns", Lower),
    layer("walk.cpu_ns_per_read", "ns", Lower),
    layer("walk.critical_ns_per_write", "ns", Lower),
    layer("walk.residual_share.tcp", "share", Lower),
    layer("walk.residual_share.threaded", "share", Lower),
    layer("walk.span_overhead_ns", "ns", Lower),
    // minos-sim, micro loops.
    layer("sim.queue_hold_ns", "ns", Lower),
    layer("sim.queue_far_ns", "ns", Lower),
    // minos-net, from the DES replays.
    exact("net.events_per_op", "count", Lower),
    layer("net.ns_per_event", "ns", Lower),
    layer("net.telemetry_overhead_x", "x", Lower),
    layer("net.trace_overhead_x", "x", Lower),
    exact("vt_ops_per_s", "1/s", Higher),
    exact("vt_read_p50_ns", "ns", Lower),
    exact("vt_write_p50_ns", "ns", Lower),
    exact("vt_write_p99_ns", "ns", Lower),
    // minos-core::obs.
    layer("obs.hist_record_ns", "ns", Lower),
    layer("obs.trace_overhead_share", "share", Lower),
    layer("obs.trace_bytes_per_op", "B", Lower),
    // minos-workload, micro loops.
    layer("workload.stream_next_op_ns", "ns", Lower),
    layer("workload.schedule_ns_per_arrival", "ns", Lower),
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so run and gated by the driver. The
    /// CPU-bound rows are not: their run-to-run spread on the VM this was
    /// sized on (6–26 %) does not fit under any bound the contract allows.
    pub gated: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tcp-ycsb-a",
        why: "3 noded processes, 2 blocking connections, 50/50 get/put: the whole client-to-NVM-log path with nothing overlapping, so latency is the sum of its steps",
        gated: true,
    },
    Workload {
        name: "tcp-ycsb-c",
        why: "same cluster, 100% get: reads are node-local, so peer-path, codec and NVM changes must not move it",
        gated: true,
    },
    Workload {
        name: "tcp-pipe-ycsb-a",
        why: "same connections with 16 ops in flight each: capacity at concurrency 32, where engine thread and per-frame syscalls saturate",
        gated: true,
    },
    Workload {
        name: "threaded-ycsb-a",
        why: "same engines and dispatcher over channels instead of sockets: a socket or codec gain must leave it flat",
        gated: false,
    },
    Workload {
        name: "des-b-ycsb-a",
        why: "300 K-op open-loop replays on the MINOS-B DES kernel: host speed of calendar queue, BSim and B engine",
        gated: false,
    },
    Workload {
        name: "des-o-ycsb-a",
        why: "same replay on the MINOS-O offload kernel: a B-only or O-only change must leave the other row alone",
        gated: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect()
        };
        let table = |ms: &[Metric]| -> Vec<(String, String, String)> {
            ms.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.label().into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(END_TO_END));
        assert_eq!(listed("per_layer"), table(PER_LAYER));
        for (j, m) in doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, ours);
    }
}
