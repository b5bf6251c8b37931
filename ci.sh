#!/usr/bin/env bash
# Repository gate: formatting, lints, and the tier-1 verify (ROADMAP.md).
# Run from the repository root. Fails fast on the first broken stage.
#
#   ./ci.sh          — the standard gate
#   ./ci.sh --chaos  — additionally runs the seeded-torture block:
#                      mutation smoke (both protocol faults must be found
#                      and shrunk; output includes the reproducing seed),
#                      clean chaos sweeps on the threaded runtime
#                      (fully replicated and 4-shard × 3-replica sharded)
#                      and the TCP runtime, scenario sweeps (YCSB A/E/F,
#                      compose, skew, geo as torture workloads under all
#                      five models), then the crash/rejoin block:
#                      250 seeds per runtime (50 × all 5 models) with up
#                      to two crash→rejoin points per schedule — rolling
#                      restarts under load, audited by the epoch-aware
#                      oracles. Every block terminates by construction:
#                      a client call on either runtime gives up after
#                      OP_TIMEOUT (10 s), and an op left unanswered by a
#                      coordinator that stayed up fails its seed with a
#                      `liveness:` violation instead of hanging the
#                      sweep. The nightly block (500 seeds per model
#                      per runtime) is documented in EXPERIMENTS.md
#                      §Verification.
#   ./ci.sh --bench  — additionally runs the minos-bench quick sweep,
#                      writes BENCH_results.json, and compares it against
#                      the committed BENCH_baseline.json. Both bench
#                      runtimes are deterministic, so every cell must be
#                      byte-identical to the baseline — throughput, every
#                      latency percentile, every gauge — once the three
#                      host-dependent wall-clock gauges (wall_ms,
#                      events_per_sec, ops_per_sec_wall) are dropped. A
#                      change that moves a cell on purpose regenerates
#                      the baseline in the same commit (the sed below is
#                      the recipe). The sweep includes the simspeed/*
#                      simulator-speed cells (checked present below), and
#                      a final `--par-gate` run insists the parallel
#                      per-shard-group DES mode is bit-identical to the
#                      sequential one.
set -euo pipefail
cd "$(dirname "$0")"

CHAOS=0
BENCH=0
for arg in "$@"; do
    case "$arg" in
    --chaos) CHAOS=1 ;;
    --bench) BENCH=1 ;;
    *)
        echo "unknown flag: $arg (supported: --chaos, --bench)" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> structure: one handler stack, one action sink, one torture driver, one-write TCP frames and one trace model"
# The threaded and TCP runtimes share `NodeCore` (crates/cluster/src/node.rs):
# a second copy of the dispatch stack or of the sink is the twin growing back.
for pat in 'Batched::new(' 'ChaosNet::new(' 'impl.* ActionSink for '; do
    n=$(cat crates/cluster/src/*.rs | grep -c "$pat" || true)
    if [ "$n" -gt 1 ]; then
        echo "crates/cluster/src has $n x '$pat' (at most 1 allowed): build on NodeCore/Port instead" >&2
        exit 1
    fi
done
# Likewise the torture harness: one client mix and one set of client
# threads (`drive` in crates/check/src/torture.rs) serve both runtimes.
for pat in 'match roll(' 'thread::scope('; do
    n=$(grep -c "$pat" crates/check/src/torture.rs || true)
    if [ "$n" -gt 1 ]; then
        echo "crates/check/src/torture.rs has $n x '$pat' (at most 1 allowed): extend Target/Client instead" >&2
        exit 1
    fi
done

# The TCP runtime sends every frame in one write (a two-write frame waits
# on a delayed ACK) and completes persists on its engine thread, with no
# timer-thread round trip: neither may grow back.
for pat in 'TimerWheel' 'Scheduler' 'write_all(&('; do
    n=$(grep -cF "$pat" crates/cluster/src/tcp.rs || true)
    if [ "$n" -gt 0 ]; then
        echo "crates/cluster/src/tcp.rs has $n x '$pat' (none allowed): build frames on new_frame/write_frame and persist through TcpPort::after" >&2
        exit 1
    fi
done

# And the trace model: `obs::replay` holds the one op record (`Timeline`)
# and the one Fig-4 tiler (`tile`), and JSONL is read through `obs::json`
# next to its writer. A second record, a field scraper or a second tiling
# loop is the analyser twin growing back.
for check in 'struct OpTrace:0' 'fn raw_field:0' 'map_or(end_ns:1'; do
    pat=${check%:*}
    max=${check##*:}
    n=$(cat crates/core/src/obs/*.rs | grep -c "$pat" || true)
    if [ "$n" -gt "$max" ]; then
        echo "crates/core/src/obs has $n x '$pat' (at most $max allowed): extend Timeline/tile/obs::json instead" >&2
        exit 1
    fi
done

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> benchmark/: build against the bound surface (--locked)"
# benchmark/ is a workspace of its own that path-depends on crates/*; an
# API break there must fail here, not in the perf pipeline, and --locked
# turns an accidental dependency-graph change into an error instead of a
# silent benchmark/Cargo.lock rewrite.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> trace assembly: 3-process TCP cluster -> skew-corrected causal timelines"
# Spawn a real multi-process cluster (one clock epoch per process), push
# replicated writes through two coordinators, then require minos-trace
# to assemble the three JSONL shards into timelines whose hops are all
# causally ordered after the clock fit (corrected send <= recv).
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
NODED=target/release/minos-noded
PORT_BASE=$((20000 + RANDOM % 20000))
PEERS=""
for i in 0 1 2; do PEERS="$PEERS 127.0.0.1:$((PORT_BASE + i))"; done
NODED_PIDS=""
for i in 0 1 2; do
    "$NODED" --trace-out "$TRACE_DIR/shard$i.jsonl" \
        "$i" synch "127.0.0.1:$((PORT_BASE + 10 + i))" $PEERS \
        2>/dev/null &
    NODED_PIDS="$NODED_PIDS $!"
done
sleep 1
# Ten replicated puts through each of two coordinators (the offset fit
# wants wire traffic in both directions), over the raw client protocol.
python3 - "$PORT_BASE" <<'PYEOF'
import socket, struct, sys
base = int(sys.argv[1])
def frame(b): return struct.pack('<I', len(b)) + b
def put(s, creq, key, val):
    body = bytes([1]) + struct.pack('<Q', creq) + struct.pack('<Q', key) + b'\x00' + val
    s.sendall(frame(body))
    n = struct.unpack('<I', s.recv(4))[0]
    got = b''
    while len(got) < n: got += s.recv(n - len(got))
for port in (base + 10, base + 12):
    s = socket.create_connection(('127.0.0.1', port), timeout=10)
    for i in range(10): put(s, i + 1, i, b'v')
    s.close()
PYEOF
sleep 0.5
kill $NODED_PIDS 2>/dev/null || true
wait $NODED_PIDS 2>/dev/null || true
target/release/minos-trace --check-causal "$TRACE_DIR"/shard*.jsonl

if [ "$CHAOS" -eq 1 ]; then
    echo "==> chaos: build minos-torture (with fault injection)"
    cargo build --release -p minos-check --features fault-injection
    TORTURE=target/release/minos-torture

    echo "==> chaos: mutation smoke — armed faults must be found and shrunk"
    # A checker that cannot see a dropped INV or a skipped persist is
    # vacuous; each fault must produce a violation within 100 seeds.
    "$TORTURE" --model synch --seeds 100 --clients 2 --ops 8 \
        --fault skip-inv@0 --expect-violation
    "$TORTURE" --model synch --seeds 100 --clients 2 --ops 8 \
        --fault phantom-persist@1 --expect-violation
    "$TORTURE" --runtime tcp --model synch --seeds 20 --clients 2 --ops 8 \
        --fault skip-inv@1 --expect-violation

    echo "==> chaos: rebuild minos-torture (faults compiled out)"
    cargo build --release -p minos-check

    echo "==> chaos: clean sweep — threaded, all models"
    "$TORTURE" --model all --seeds 20 --clients 2 --ops 8

    echo "==> chaos: clean sweep — threaded sharded (4 shards x 3 replicas, 12 nodes)"
    "$TORTURE" --model all --seeds 20 --clients 2 --ops 8 \
        --nodes 12 --shards 4 --replicas 3 --keys 8

    echo "==> chaos: clean sweep — tcp, all models"
    "$TORTURE" --runtime tcp --model all --seeds 5 --clients 2 --ops 8

    echo "==> chaos: scenario sweeps — every open-loop scenario doubles as a torture workload"
    # RMW (ycsb-a/f), scans (ycsb-e), compose flows, the hot-key skew
    # storm, and the WAN geo profile, each under all five models on the
    # threaded runtime; one representative scenario rides the TCP wire.
    for wl in ycsb-a ycsb-e ycsb-f compose skew geo; do
        "$TORTURE" --model all --seeds 6 --clients 2 --ops 8 --workload "$wl"
    done
    "$TORTURE" --runtime tcp --model all --seeds 3 --clients 2 --ops 8 \
        --workload ycsb-a

    echo "==> chaos: crash/rejoin — threaded, 250 seeds (all models, rolling restarts)"
    "$TORTURE" --model all --seeds 50 --clients 2 --ops 8 --max-crashes 2

    echo "==> chaos: crash/rejoin — tcp, 250 seeds (all models, rolling restarts)"
    "$TORTURE" --runtime tcp --model all --seeds 50 --clients 2 --ops 8 \
        --max-crashes 2
fi

if [ "$BENCH" -eq 1 ]; then
    echo "==> bench: build minos-bench"
    cargo build --release -p minos-bench
    BENCH_BIN=target/release/minos-bench

    echo "==> bench: quick sweep -> BENCH_results.json, no regression against BENCH_baseline.json"
    "$BENCH_BIN" --quick --out BENCH_results.json --compare BENCH_baseline.json --threshold 0%

    echo "==> bench: every cell byte-identical to the committed baseline"
    # One cell per line in both files, so the diff names the cells that
    # moved. Only the wall-clock gauges are host-dependent.
    strip_wall_clock() {
        sed -E 's/,"(events_per_sec|ops_per_sec_wall|wall_ms)":[0-9]+//g' "$1"
    }
    if ! diff BENCH_baseline.json <(strip_wall_clock BENCH_results.json); then
        echo "bench cells differ from BENCH_baseline.json (< committed, > this tree)" >&2
        exit 1
    fi

    echo "==> bench: sim-speed cells present"
    # The simspeed/* cells ride the quick sweep and the exact compare
    # above (their wall-clock figures are the gauges it drops).
    CELLS=$(grep -c '"id":"simspeed/' BENCH_results.json || true)
    if [ "$CELLS" -lt 4 ]; then
        echo "expected >=4 simspeed/* cells in BENCH_results.json, found $CELLS" >&2
        exit 1
    fi
    echo "    $CELLS simspeed/* cells present and gated"

    echo "==> bench: parallel-vs-sequential DES equivalence gate"
    "$BENCH_BIN" --quick --par-gate
fi

echo "==> ci: all stages passed"
