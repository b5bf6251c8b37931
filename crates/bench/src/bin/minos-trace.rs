//! Replays a JSONL protocol trace into a per-op timeline and a Fig. 4
//! style critical-path breakdown.
//!
//! ```text
//! minos-trace [--ops N] [--perfetto out.json] [--assemble] [--stats] \
//!             [--check-causal] <trace.jsonl> [more.jsonl ...]
//! ```
//!
//! The input is whatever a [`minos_core::obs::JsonlWriter`] sink wrote —
//! from the threaded cluster (`Cluster::spawn_observed`), a TCP node
//! (`minos-noded --trace-out`), or the simulators. Multiple files (one
//! per node process) are merged before analysis; a torn last line (a
//! node killed mid-write) is skipped. `--ops N` caps how many individual
//! op timelines are printed (default 10); the aggregate breakdown always
//! covers every completed op.
//!
//! Every mode renders the same per-op [`Timeline`](minos_core::obs::Timeline)s
//! tiled by the same Fig. 4 tiler; the default report and `--perfetto`
//! pick each op's records *by request*, `--assemble` and `--stats` *by
//! trace*. `DESIGN.md` §4.4 defines the tiling and both rules, and
//! records where they disagree.
//!
//! `--perfetto <out.json>` additionally converts the merged trace to
//! Chrome Trace Format JSON — per-op spans with nested Fig. 4
//! critical-path slices, coordinator→follower flow arrows, and
//! vFIFO/dFIFO counter tracks — loadable in <https://ui.perfetto.dev>
//! or `chrome://tracing`.
//!
//! The cross-shard modes consume the ctx-stamped records a traced
//! multi-process cluster writes (one JSONL shard per node process, each
//! on its own clock epoch):
//!
//! * `--assemble` fits per-node clock offsets from matched send/receive
//!   pairs and prints one skew-corrected end-to-end timeline per trace
//!   id, with per-hop network delay and the coordinator's Fig. 4 tiling;
//! * `--stats` prints the per-hop latency table — corrected network
//!   delay p50/p95/p99 per directed node pair plus per-node per-category
//!   service time;
//! * `--check-causal` exits nonzero unless every assembled hop is
//!   causally ordered after correction (corrected send ≤ corrected
//!   receive) — the CI gate for the tracing pipeline.

use minos_core::obs::{
    analyze, assemble, format_assembly, format_hop_stats, format_report, parse_jsonl, perfetto,
};

fn usage() -> ! {
    eprintln!(
        "usage: minos-trace [--ops N] [--perfetto out.json] [--assemble] [--stats] \
       [--check-causal] <trace.jsonl> [more.jsonl ...]"
    );
    std::process::exit(2);
}

fn main() {
    let mut max_ops = 10usize;
    let mut perfetto_out: Option<String> = None;
    let mut do_assemble = false;
    let mut do_stats = false;
    let mut do_check = false;
    let mut paths: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ops" => {
                i += 1;
                max_ops = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--perfetto" => {
                i += 1;
                perfetto_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--assemble" => do_assemble = true,
            "--stats" => do_stats = true,
            "--check-causal" => do_check = true,
            "--help" | "-h" => usage(),
            p => paths.push(p.to_string()),
        }
        i += 1;
    }
    if paths.is_empty() {
        usage();
    }

    let mut records = Vec::new();
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(text) => records.extend(parse_jsonl(&text)),
            Err(e) => {
                eprintln!("minos-trace: cannot read {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    // Merging per-node files can interleave timestamps out of order;
    // analysis expects the global record stream sorted by time.
    records.sort_by_key(|r| r.at_ns);

    if let Some(out) = &perfetto_out {
        let json = perfetto::export(&records);
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("minos-trace: cannot write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "minos-trace: wrote Perfetto trace ({} records) to {out}",
            records.len()
        );
    }

    if do_assemble || do_stats || do_check {
        let asm = assemble(&records);
        if do_assemble {
            print!("{}", format_assembly(&asm, max_ops));
        }
        if do_stats {
            print!("{}", format_hop_stats(&asm, &records));
        }
        if do_check {
            let hops: usize = asm.timelines.iter().map(|t| t.hops.len()).sum();
            let bad = asm.causal_violations();
            if bad > 0 {
                eprintln!("minos-trace: causality FAILED: {bad} of {hops} hops reversed");
                std::process::exit(1);
            }
            if asm.timelines.is_empty() {
                eprintln!("minos-trace: causality check found no assembled traces");
                std::process::exit(1);
            }
            println!(
                "causal order OK: {} traces, {hops} hops, {} offset samples",
                asm.timelines.len(),
                asm.fit.samples
            );
        }
        return;
    }

    let ops = analyze(&records);
    if ops.is_empty() {
        eprintln!(
            "minos-trace: {} records parsed, no completed ops found",
            records.len()
        );
        std::process::exit(1);
    }
    print!("{}", format_report(&ops, max_ops));
}
