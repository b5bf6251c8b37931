//! Micro loops: one public function each, timed from outside. Every
//! figure is the median of [`ROUNDS`] rounds of at least [`ROUND`], so a
//! figure rests on ≥ 200 ms of the function running.

use crate::des;
use crate::ops::{self, preload_ts, splitmix64, RECORDS};
use crate::tcp::preload_image;
use minos_core::obs::LatencyHistogram;
use minos_kv::DurableState;
use minos_nvm::{decode_entries, DurableLog};
use minos_sim::EventQueue;
use minos_types::Key;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROUNDS: usize = 5;
const ROUND: Duration = Duration::from_millis(40);

#[derive(Default, Debug)]
pub struct MicroResult {
    pub queue_hold_ns: f64,
    pub queue_far_ns: f64,
    pub hist_record_ns: f64,
    pub stream_next_op_ns: f64,
    pub schedule_ns_per_arrival: f64,
    pub log_append_ns: f64,
    pub decode_entry_ns: f64,
    pub replay_ns_per_entry: f64,
}

/// Median ns per op. `batch` does some ops and returns how many and how
/// long they took, so it can keep its own set-up out of the time.
fn median_ns(mut batch: impl FnMut() -> (u64, Duration)) -> f64 {
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (mut ops, mut spent) = (0u64, Duration::ZERO);
            while spent < ROUND {
                let (n, t) = batch();
                ops += n;
                spent += t;
            }
            spent.as_nanos() as f64 / ops as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

fn timed(n: u64, mut f: impl FnMut()) -> (u64, Duration) {
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    (n, t0.elapsed())
}

/// The hold model: at a steady depth of 10 000, pop the earliest event
/// and schedule a new one `min_delay..min_delay + span` ns ahead.
fn queue_hold(min_delay: u64, span: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = 1u64;
    let mut delay = move || {
        rng = splitmix64(rng);
        min_delay + rng % span
    };
    for i in 0..10_000 {
        q.schedule_in(delay(), i);
    }
    median_ns(|| {
        timed(10_000, || {
            let (_, payload) = q.pop().expect("steady depth");
            q.schedule_in(delay(), black_box(payload));
        })
    })
}

pub fn run(seed: u64) -> MicroResult {
    let image = preload_image();
    let entries = ops::preload_entries();
    let value = entries[0].value.clone();

    let mut hist = LatencyHistogram::new();
    let mut v = 1u64;
    let mut stream = ops::client_stream(seed, 0, 0.5);
    MicroResult {
        // Delays ≤ 100 µs stay inside the calendar ring; delays past its
        // ≈4.2 ms horizon take the overflow heap and the rebase.
        queue_hold_ns: queue_hold(1, 100_000),
        queue_far_ns: queue_hold(4_300_000, 4_000_000),
        hist_record_ns: median_ns(|| {
            timed(100_000, || {
                v = splitmix64(v);
                hist.record(black_box(v >> 40));
            })
        }),
        stream_next_op_ns: median_ns(|| {
            timed(100_000, || {
                black_box(stream.next_op());
            })
        }),
        schedule_ns_per_arrival: median_ns(|| {
            let t0 = Instant::now();
            let schedule = des::spec(des::OVERHEAD_OPS).schedule(seed);
            let t = t0.elapsed();
            (black_box(schedule).len() as u64, t)
        }),
        log_append_ns: median_ns(|| {
            let mut log = DurableLog::new();
            let out = timed(RECORDS, || {
                log.append(Key(7), preload_ts(), value.clone());
            });
            black_box(log);
            out
        }),
        decode_entry_ns: median_ns(|| {
            let t0 = Instant::now();
            let (decoded, _) = decode_entries(black_box(&image));
            let t = t0.elapsed();
            (black_box(decoded).len() as u64, t)
        }),
        replay_ns_per_entry: median_ns(|| {
            let mut state = DurableState::new();
            let t0 = Instant::now();
            let applied = state.replay(black_box(&entries));
            let t = t0.elapsed();
            black_box(state);
            (applied as u64, t)
        }),
    }
}
