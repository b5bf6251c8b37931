//! What a workload run reports, and its three renderings: readable
//! lines, the result-file JSON, and the one-line JSON the driver reads.

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};

/// One end-to-end metric over the repeats of a run. The reported value is
/// the median over repeats; min, max and the per-repeat values and sample
/// counts stand beside it.
#[derive(Clone, Debug, Default)]
pub struct Stat {
    pub values: Vec<f64>,
    /// Samples behind each repeat's value (ops for a percentile).
    pub samples: Vec<u64>,
    /// A percentile with fewer than ten samples beyond it in some repeat.
    pub low_confidence: bool,
}

impl Stat {
    pub fn push(&mut self, value: f64, samples: u64) {
        self.values.push(value);
        self.samples.push(samples);
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile metric from one repeat's sorted samples, in µs.
pub fn push_percentile(stat: &mut Stat, sorted_ns: &[u64], q: f64) {
    stat.push(
        percentile(sorted_ns, q) as f64 / 1e3,
        sorted_ns.len() as u64,
    );
    let beyond = (sorted_ns.len() as f64 * (1.0 - q)).floor();
    stat.low_confidence |= beyond < 10.0;
}

#[derive(Default)]
pub struct WorkloadReport {
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it for the driver.
    pub gated: bool,
    /// Loop discipline, client count, window: how the load was applied.
    pub load: String,
    /// Digest of the generated op stream(s).
    pub digest: u64,
    pub repeats: usize,
    pub window_s: f64,
    /// `--trace 0`: in [`END_TO_END`] order; the DES rows stop after
    /// `ops_per_s`.
    pub e2e: Vec<Stat>,
    /// `--trace 1`: in [`PER_LAYER`] order.
    pub layers: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form findings: each correctness violation, each caveat.
    pub notes: Vec<String>,
    /// Workload-specific detail kept in the result file only.
    pub detail: Json,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn set_layer(&mut self, name: &str, value: f64) {
        let at = PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        if self.layers.is_empty() {
            self.layers = vec![0.0; PER_LAYER.len()];
        }
        self.layers[at] = value;
    }

    pub fn print(&self) {
        println!("== {} — {}", self.name, self.why);
        println!("   load: {}", self.load);
        println!("   op-stream digest {:016x}", self.digest);
        for (m, s) in END_TO_END.iter().zip(&self.e2e) {
            println!(
                "   {:<34} {:>14.4} {:<6} min {:.4} max {:.4} n {:?}{}",
                m.name,
                s.median(),
                m.unit,
                s.min(),
                s.max(),
                s.samples,
                if s.low_confidence {
                    "  low_confidence"
                } else {
                    ""
                }
            );
        }
        for (m, v) in PER_LAYER.iter().zip(&self.layers) {
            println!("   {:<34} {:>14.4} {}", m.name, v, m.unit);
        }
        println!(
            "   {:<34} {:>14.6} (failed {} of {} attempted)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            println!("   note: {note}");
        }
    }

    pub fn to_json(&self) -> Json {
        let mut w = Json::obj();
        w.set("name", self.name)
            .set("why", self.why)
            .set("gated_by_driver", self.gated)
            .set("load", self.load.as_str())
            .set("digest", format!("{:016x}", self.digest))
            .set("repeats", self.repeats)
            .set("window_s", self.window_s)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("error_rate", self.error_rate())
            .set("correct", self.correct());
        let mut e2e = Json::obj();
        for (m, s) in END_TO_END.iter().zip(&self.e2e) {
            let mut j = metric_json(m, s.median());
            j.set("min", s.min())
                .set("max", s.max())
                .set("values", &s.values[..])
                .set(
                    "samples",
                    s.samples.iter().map(|&n| Json::from(n)).collect::<Vec<_>>(),
                );
            if s.low_confidence {
                j.set("low_confidence", true);
            }
            e2e.set(m.name, j);
        }
        w.set("end_to_end", e2e);
        let mut layers = Json::obj();
        for (m, v) in PER_LAYER.iter().zip(&self.layers) {
            layers.set(m.name, metric_json(m, *v));
        }
        w.set("per_layer", layers);
        w.set(
            "notes",
            self.notes
                .iter()
                .map(|n| Json::from(n.as_str()))
                .collect::<Vec<_>>(),
        );
        w.set("detail", self.detail.clone());
        w
    }

    /// `name → {value, unit}` for the driver's line; `prefix` tells the
    /// workloads of an `all` run apart.
    pub fn contract_metrics(&self, prefix: &str, out: &mut Json) {
        for (m, s) in END_TO_END.iter().zip(&self.e2e) {
            out.set(
                &format!("{prefix}{}", m.name),
                contract_metric(m, s.median()),
            );
        }
        for (m, v) in PER_LAYER.iter().zip(&self.layers) {
            out.set(&format!("{prefix}{}", m.name), contract_metric(m, *v));
        }
    }
}

fn metric_json(m: &Metric, value: f64) -> Json {
    let mut j = contract_metric(m, value);
    j.set("better", m.better.label());
    j
}

fn contract_metric(m: &Metric, value: f64) -> Json {
    let mut j = Json::obj();
    j.set("value", value).set("unit", m.unit);
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v[..48], 0.99), 48);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn few_samples_beyond_a_percentile_flag_low_confidence() {
        let mut s = Stat::default();
        let v: Vec<u64> = (0..150).collect();
        push_percentile(&mut s, &v, 0.5);
        assert!(!s.low_confidence);
        push_percentile(&mut s, &v, 0.99);
        assert!(s.low_confidence);
    }
}
