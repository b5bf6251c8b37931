//! `minos-benchmark`: wall-clock end-to-end cells for the live TCP and
//! threaded runtimes and both DES kernels, plus a per-layer walk that
//! says where an op's time goes. See `benchmark/README.md`.
//!
//! ```text
//! minos-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1|both]
//!                 [--repeats K] [--out FILE] [--noded PATH] [--smoke]
//! minos-benchmark --compare A.json B.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 0
//! only when every output was correct.

mod compare;
mod des;
mod json;
mod live;
mod metrics;
mod micro;
mod ops;
mod proc;
mod report;
mod tcp;
mod walk;

use json::Json;
use live::{LiveSpec, Repeat, Runtime};
use metrics::WORKLOADS;
use minos_net::Arch;
use report::{push_percentile, Stat, WorkloadReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// "MINOS" in ASCII.
const DEFAULT_SEED: u64 = 0x4D_494E_4F53;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Trace {
    /// End-to-end metrics only, nothing sampled or traced inside windows.
    Off,
    /// Per-layer metrics only: one sampled repeat, the traced runs, the
    /// walk and the micro loops.
    On,
    Both,
}

impl Trace {
    fn end_to_end(self) -> bool {
        self != Trace::On
    }

    fn per_layer(self) -> bool {
        self != Trace::Off
    }
}

struct Opts {
    workload: String,
    seed: u64,
    /// Total measured seconds per workload, split over the repeats.
    seconds: f64,
    trace: Trace,
    repeats: usize,
    out: Option<PathBuf>,
    noded: Option<PathBuf>,
    /// Ops per DES replay.
    des_ops: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: minos-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1|both] \
         [--repeats K] [--out FILE] [--noded PATH] [--smoke]\n       \
         minos-benchmark --compare A.json B.json\nworkloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Opts {
    let mut o = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: Trace::Off,
        repeats: 3,
        out: None,
        noded: std::env::var_os("MINOS_NODED").map(PathBuf::from),
        des_ops: des::FULL_OPS,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => o.workload = value().to_string(),
            "--seed" => o.seed = parse_u64(value()).unwrap_or_else(|| usage()),
            "--seconds" => o.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--repeats" => o.repeats = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                o.trace = match value() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    "both" => Trace::Both,
                    _ => usage(),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value())),
            "--noded" => o.noded = Some(PathBuf::from(value())),
            // Every workload, layer walk and traced run at a 0.5 s window:
            // fails fast when a refactor breaks the bound surface.
            "--smoke" => {
                o.workload = "all".to_string();
                o.trace = Trace::Both;
                o.repeats = 1;
                o.seconds = 0.5;
                o.des_ops = des::OVERHEAD_OPS;
            }
            _ => usage(),
        }
    }
    if o.repeats == 0 || !o.seconds.is_finite() || o.seconds <= 0.0 {
        usage();
    }
    o
}

/// Scratch directory beside the executable — inside the build directory,
/// so inside the checkout — removed when the run ends, panic included.
struct TmpDir(PathBuf);

impl TmpDir {
    fn create() -> std::io::Result<TmpDir> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("minos-benchmark-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the TCP workloads need beyond [`Opts`].
struct TcpEnv {
    noded: PathBuf,
    tmp: TmpDir,
    image: Vec<u8>,
}

impl TcpEnv {
    fn create(opts: &Opts) -> Result<TcpEnv, String> {
        // `run.sh` builds `minos-noded` into the same directory as this
        // executable.
        let noded = match &opts.noded {
            Some(p) => p.clone(),
            None => std::env::current_exe()
                .map_err(|e| e.to_string())?
                .with_file_name("minos-noded"),
        };
        if !noded.is_file() {
            return Err(format!(
                "{} not found: build it with benchmark/run.sh, or pass --noded",
                noded.display()
            ));
        }
        Ok(TcpEnv {
            noded,
            tmp: TmpDir::create().map_err(|e| format!("cannot create scratch directory: {e}"))?,
            image: tcp::preload_image(),
        })
    }
}

fn live_spec(name: &str) -> Option<LiveSpec> {
    let (runtime, write_fraction, outstanding) = match name {
        "tcp-ycsb-a" => (Runtime::Tcp, 0.5, 1),
        "tcp-ycsb-c" => (Runtime::Tcp, 0.0, 1),
        "tcp-pipe-ycsb-a" => (Runtime::Tcp, 0.5, 16),
        "threaded-ycsb-a" => (Runtime::Threaded, 0.5, 1),
        _ => return None,
    };
    Some(LiveSpec {
        runtime,
        write_fraction,
        outstanding,
    })
}

fn des_arch(name: &str) -> Option<Arch> {
    match name {
        "des-b-ycsb-a" => Some(Arch::baseline()),
        "des-o-ycsb-a" => Some(Arch::minos_o()),
        _ => None,
    }
}

fn live_repeat(
    spec: &LiveSpec,
    opts: &Opts,
    env: Option<&TcpEnv>,
    window: Duration,
    traced: bool,
) -> Result<Repeat, String> {
    match spec.runtime {
        Runtime::Threaded => Ok(live::threaded_repeat(spec, opts.seed, window)),
        Runtime::Tcp => {
            let env = env.expect("tcp workloads get a TcpEnv");
            live::tcp_repeat(
                spec, opts.seed, window, &env.noded, &env.tmp.0, &env.image, traced,
            )
            .map_err(|e| format!("tcp repeat failed: {e}"))
        }
    }
}

fn book(report: &mut WorkloadReport, rep: &Repeat) {
    report.attempted += rep.attempted;
    report.failed += rep.failed;
    if rep.failed > 0 {
        report.notes.push(format!(
            "{} of {} ops failed, timed out or broke session order; {} acked puts not durable",
            rep.failed - rep.not_durable,
            rep.attempted,
            rep.not_durable
        ));
    }
}

fn run_live(name: &'static str, spec: LiveSpec, opts: &Opts) -> Result<WorkloadReport, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if (live::CLIENTS as usize) > nproc {
        return Err(format!(
            "{name} drives {} client threads but this machine has {nproc} cores",
            live::CLIENTS
        ));
    }
    let env = match spec.runtime {
        Runtime::Tcp => Some(TcpEnv::create(opts)?),
        Runtime::Threaded => None,
    };
    let window = Duration::from_secs_f64(opts.seconds / opts.repeats as f64);
    let mut report = WorkloadReport {
        name,
        load: format!(
            "closed loop, {} clients x {} outstanding, {:?} runtime, 3 nodes, <Lin, Synch>, \
             1 KB values, {} records, zipfian 0.99, warm-up {:.1} s, window {:.2} s",
            live::CLIENTS,
            spec.outstanding,
            spec.runtime,
            ops::RECORDS,
            live::WARMUP.as_secs_f64(),
            window.as_secs_f64()
        ),
        digest: (0..live::CLIENTS)
            .map(|c| {
                ops::stream_digest(
                    &ops::client_stream(opts.seed, c, spec.write_fraction),
                    walk::WALK_OPS,
                )
            })
            .fold(0, |acc, d| ops::splitmix64(acc ^ d)),
        repeats: opts.repeats,
        window_s: window.as_secs_f64(),
        ..WorkloadReport::default()
    };

    let mut write_p50_us = 0.0;
    if opts.trace.end_to_end() {
        let mut stats = vec![Stat::default(); metrics::END_TO_END.len()];
        for _ in 0..opts.repeats {
            let rep = live_repeat(&spec, opts, env.as_ref(), window, false)?;
            book(&mut report, &rep);
            stats[0].push(rep.setup_s, 1);
            stats[1].push(rep.ops_per_s, rep.window_ops);
            push_percentile(&mut stats[2], &rep.reads_ns, 0.50);
            push_percentile(&mut stats[3], &rep.writes_ns, 0.50);
            push_percentile(&mut stats[4], &rep.reads_ns, 0.99);
            push_percentile(&mut stats[5], &rep.writes_ns, 0.99);
        }
        write_p50_us = stats[3].median();
        report.e2e = stats;
    }
    if opts.trace.per_layer() {
        // One more repeat, untraced, for the process-boundary view.
        let rep = live_repeat(&spec, opts, env.as_ref(), window, false)?;
        book(&mut report, &rep);
        let ops_done = rep.window_ops.max(1) as f64;
        report.set_layer("cluster.cpu_us_per_op", rep.cpu_us / ops_done);
        report.set_layer("cluster.ctxsw_per_op", rep.ctxsw as f64 / ops_done);
        report.set_layer("cluster.threads", rep.threads as f64);
        report.set_layer(
            "cluster.rss_kb_per_write",
            rep.rss_kb_growth / rep.window_puts.max(1) as f64,
        );
        report.set_layer(
            "cluster.nvm_log_bytes_per_write",
            rep.log_bytes as f64 / (tcp::NODES as u64 * rep.puts_acked.max(1)) as f64,
        );
        if !opts.trace.end_to_end() {
            write_p50_us = report::percentile(&rep.writes_ns, 0.50) as f64 / 1e3;
        }
        if spec.runtime == Runtime::Tcp {
            // The same repeat with --trace-out --metrics-out on every node.
            let traced = live_repeat(&spec, opts, env.as_ref(), window, true)?;
            book(&mut report, &traced);
            report.set_layer(
                "obs.trace_overhead_share",
                1.0 - traced.ops_per_s / rep.ops_per_s.max(f64::MIN_POSITIVE),
            );
            report.set_layer(
                "obs.trace_bytes_per_op",
                traced.trace_bytes as f64 / traced.attempted.max(1) as f64,
            );
        }
        let walk = add_walk_and_micros(&mut report, opts.seed);
        let residual = 1.0 - walk.critical_ns_per_write / (write_p50_us * 1e3);
        let residual_name = match spec.runtime {
            Runtime::Tcp => "walk.residual_share.tcp",
            Runtime::Threaded => "walk.residual_share.threaded",
        };
        report.set_layer(residual_name, residual);
        report
            .detail
            .set("residual_against_write_p50_us", write_p50_us);
    }
    Ok(report)
}

/// Runs the layer walk and the micro loops — the same for every workload
/// — and files their metrics. Returns the walk for the residual shares.
fn add_walk_and_micros(report: &mut WorkloadReport, seed: u64) -> walk::WalkResult {
    let w = walk::run(seed);
    report.attempted += walk::WALK_OPS as u64;
    report.failed += w.incorrect;
    if w.incorrect > 0 {
        report
            .notes
            .push(format!("layer walk: {} incorrect outcomes", w.incorrect));
    }
    for (name, value) in [
        ("wire.encode_inv_ns", w.encode_inv_ns),
        ("wire.decode_inv_ns", w.decode_inv_ns),
        ("wire.encode_ack_ns", w.encode_ack_ns),
        ("wire.decode_ack_ns", w.decode_ack_ns),
        ("wire.frames_per_write", w.frames_per_write),
        ("wire.bytes_per_write", w.bytes_per_write),
        ("engine.on_event_ns", w.on_event_ns),
        ("engine.events_per_write", w.events_per_write),
        ("engine.actions_per_write", w.actions_per_write),
        ("engine.coord_ns_per_write", w.coord_ns_per_write),
        ("engine.foll_ns_per_write", w.foll_ns_per_write),
        ("engine.read_ns", w.read_ns),
        ("nvm.encode_entry_ns", w.nvm_encode_entry_ns),
        ("nvm.persists_per_write", w.persists_per_write),
        ("kv.persist_ns", w.kv_persist_ns),
        ("walk.cpu_ns_per_write", w.cpu_ns_per_write),
        ("walk.cpu_ns_per_read", w.cpu_ns_per_read),
        ("walk.critical_ns_per_write", w.critical_ns_per_write),
        ("walk.span_overhead_ns", w.span_overhead_ns),
    ] {
        report.set_layer(name, value);
    }
    let m = micro::run(seed);
    for (name, value) in [
        ("sim.queue_hold_ns", m.queue_hold_ns),
        ("sim.queue_far_ns", m.queue_far_ns),
        ("obs.hist_record_ns", m.hist_record_ns),
        ("workload.stream_next_op_ns", m.stream_next_op_ns),
        (
            "workload.schedule_ns_per_arrival",
            m.schedule_ns_per_arrival,
        ),
        ("nvm.log_append_ns", m.log_append_ns),
        ("nvm.decode_entry_ns", m.decode_entry_ns),
        ("kv.replay_ns_per_entry", m.replay_ns_per_entry),
    ] {
        report.set_layer(name, value);
    }

    let mut detail = Json::obj();
    detail
        .set("walk_ops", walk::WALK_OPS)
        .set("walk_writes", w.writes)
        .set("walk_reads", w.reads)
        .set("layer_sum_ns_per_write", w.layer_sum_ns_per_write)
        .set(
            "tile_error",
            w.layer_sum_ns_per_write / w.cpu_ns_per_write - 1.0,
        )
        .set("untraced_share_of_loop", w.untraced_share);
    let mut table = Json::obj();
    for (layer, ns) in &w.self_ns_per_write {
        table.set(layer, *ns);
    }
    detail.set("self_ns_per_write", table);
    report.detail = detail;
    report.notes.push(format!(
        "layer walk: layer self times sum to {:.0} ns per write against {:.0} ns for a write \
         traced at the root only ({:+.1}%)",
        w.layer_sum_ns_per_write,
        w.cpu_ns_per_write,
        (w.layer_sum_ns_per_write / w.cpu_ns_per_write - 1.0) * 100.0
    ));
    w
}

fn run_des(name: &'static str, arch: Arch, opts: &Opts) -> WorkloadReport {
    let ops = opts.des_ops;
    let mut report = WorkloadReport {
        name,
        load: format!(
            "open loop, Poisson arrivals at {:.0} ops/s virtual, {ops} YCSB-A ops over 100000 \
             records and 10000 sessions, 5 nodes, <Lin, Synch>, telemetry tick off, one host thread",
            des::OFFERED_OPS_PER_S
        ),
        repeats: 0,
        window_s: opts.seconds,
        ..WorkloadReport::default()
    };
    let mut first: Option<des::Virtual> = None;
    let mut check = |report: &mut WorkloadReport, vt: des::Virtual| {
        report.attempted += vt.submitted;
        report.failed += vt.submitted - vt.completed;
        match first {
            None => first = Some(vt),
            // The simulation is a function of (arch, spec, seed): a
            // second replay that differs is a nondeterminism bug.
            Some(f) if f != vt => {
                report.failed += 1;
                report.notes.push(format!(
                    "virtual-time results differ between replays: {f:?} vs {vt:?}"
                ));
            }
            Some(_) => {}
        }
    };

    if opts.trace.end_to_end() {
        // A DES has no per-op wall-clock latency: set-up and throughput
        // only. Virtual-time latencies are the per-layer `vt_*` metrics.
        let mut stats = vec![Stat::default(); 2];
        let mut spent = 0.0;
        // Whole replays until the measured seconds are used up; stop when
        // another one would overshoot by more than half its length.
        loop {
            let (setup_s, digest) = des::timed_schedule(ops, opts.seed);
            report.digest = digest;
            let r = des::replay(arch, ops, opts.seed, 0);
            check(&mut report, r.vt);
            spent += r.wall_s;
            report.repeats += 1;
            let ops_per_s = r.vt.completed as f64 / r.wall_s;
            stats[0].push(setup_s, 1);
            stats[1].push(ops_per_s, r.vt.completed);
            if spent + r.wall_s / 2.0 >= opts.seconds {
                break;
            }
        }
        report.e2e = stats;
    }
    if opts.trace.per_layer() {
        let (_, digest) = des::timed_schedule(ops, opts.seed);
        report.digest = digest;
        let r = des::replay(arch, ops, opts.seed, 0);
        check(&mut report, r.vt);
        report.set_layer(
            "net.events_per_op",
            r.vt.events as f64 / r.vt.submitted as f64,
        );
        report.set_layer("net.ns_per_event", r.wall_s * 1e9 / r.vt.events as f64);
        report.set_layer("vt_ops_per_s", r.vt.ops_per_s);
        report.set_layer("vt_read_p50_ns", r.vt.read_p50_ns as f64);
        report.set_layer("vt_write_p50_ns", r.vt.write_p50_ns as f64);
        report.set_layer("vt_write_p99_ns", r.vt.write_p99_ns as f64);

        // The DES "traced run": what sampling and tracing cost, on a prefix.
        let prefix = des::OVERHEAD_OPS.min(ops);
        let plain = des::replay(arch, prefix, opts.seed, 0);
        let ticking = des::replay(arch, prefix, opts.seed, 1_000);
        let (traced_wall_s, records) = des::traced_replay_wall_s(arch, prefix, opts.seed);
        report.attempted += 2 * prefix;
        report.failed += 2 * prefix - plain.vt.completed - ticking.vt.completed;
        report.set_layer("net.telemetry_overhead_x", ticking.wall_s / plain.wall_s);
        report.set_layer("net.trace_overhead_x", traced_wall_s / plain.wall_s);

        add_walk_and_micros(&mut report, opts.seed);
        report
            .detail
            .set("overhead_prefix_ops", prefix)
            .set("trace_records_on_prefix", records)
            .set("vt_read_p99_ns", r.vt.read_p99_ns);
    }
    report
}

fn run_workload(w: &metrics::Workload, opts: &Opts) -> Result<WorkloadReport, String> {
    let mut report = if let Some(spec) = live_spec(w.name) {
        run_live(w.name, spec, opts)?
    } else if let Some(arch) = des_arch(w.name) {
        run_des(w.name, arch, opts)
    } else {
        unreachable!("{} is in WORKLOADS but has no runner", w.name)
    };
    report.why = w.why;
    report.gated = w.gated;
    Ok(report)
}

fn environment(opts: &Opts) -> Json {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .ok()
    };
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let mut env = Json::obj();
    env.set(
        "nproc",
        std::thread::available_parallelism().map_or(1, usize::from),
    )
    .set(
        "kernel",
        read("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
    )
    .set("commit", commit.unwrap_or_else(|| "unknown".into()))
    .set("seed", format!("{:#x}", opts.seed))
    .set("seconds", opts.seconds)
    .set("repeats", opts.repeats)
    .set(
        "trace",
        match opts.trace {
            Trace::Off => "0",
            Trace::On => "1",
            Trace::Both => "both",
        },
    );
    env
}

fn run(opts: &Opts) -> Result<bool, String> {
    let selected: Vec<&metrics::Workload> = WORKLOADS
        .iter()
        .filter(|w| opts.workload == "all" || opts.workload == w.name)
        .collect();
    if selected.is_empty() {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    let t0 = Instant::now();
    let mut reports = Vec::with_capacity(selected.len());
    for w in selected {
        let report = run_workload(w, opts)?;
        report.print();
        reports.push(report);
    }

    if let Some(out) = &opts.out {
        let mut doc = Json::obj();
        doc.set("benchmark", "minos-benchmark")
            .set("claim", Json::Null)
            .set("environment", environment(opts))
            .set("total_wall_s", t0.elapsed().as_secs_f64())
            .set(
                "workloads",
                reports
                    .iter()
                    .map(WorkloadReport::to_json)
                    .collect::<Vec<_>>(),
            );
        std::fs::write(out, doc.pretty())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }

    let correct = reports.iter().all(WorkloadReport::correct);
    let mut metrics = Json::obj();
    for r in &reports {
        let prefix = if reports.len() > 1 {
            format!("{}/", r.name)
        } else {
            String::new()
        };
        r.contract_metrics(&prefix, &mut metrics);
    }
    let mut line = Json::obj();
    line.set("correct", correct)
        .set(
            "attempted",
            reports.iter().map(|r| r.attempted).sum::<u64>(),
        )
        .set("failed", reports.iter().map(|r| r.failed).sum::<u64>())
        .set("metrics", metrics);
    println!("{}", line.compact());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args.as_slice() else { usage() };
        return match compare::run(Path::new(a), Path::new(b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("minos-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = parse_args(&args);
    if opts.workload.is_empty() {
        usage();
    }
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("minos-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
