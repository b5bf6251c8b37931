//! `--compare A.json B.json`: has B regressed against A?
//!
//! One row per workload and end-to-end metric, worst first, judged by the
//! metric's direction and bound. A change inside the bound is only called
//! `unchanged` when each side's own spread over its repeats is inside it too;
//! otherwise the row is `unresolved`, and so is any row where a side
//! marked its percentile `low_confidence` (fewer than ten samples beyond
//! it). Counts and virtual-time figures that must repeat exactly are
//! compared for equality. Unresolved rows are reported, not failed.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use std::path::Path;

struct Row {
    workload: String,
    metric: &'static str,
    a: f64,
    b: f64,
    /// Signed share of A's median by which B is worse (negative: better).
    worse: f64,
    bound: f64,
    verdict: &'static str,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(j: Option<&Json>, key: &str) -> Option<f64> {
    j?.get(key)?.as_f64()
}

/// One side's own run-to-run spread: the distance between the first and
/// third quartile of its repeats as a share of their median, quartiles as
/// Python's `statistics.quantiles(values, n=4)` gives them — the measure
/// the benchmark's bounds were sized with. For three repeats it is
/// `(max − min) ÷ median`.
fn spread(metric: Option<&Json>) -> f64 {
    let mut v: Vec<f64> = metric
        .and_then(|m| m.get("values"))
        .map(|a| a.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    if v.len() < 2 {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median = quartile(2);
    if median == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / median.abs()
}

/// Prints the comparison; `Ok(true)` when both sides ran the same inputs,
/// nothing regressed and every exact figure is the same.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    let workloads = |doc: &Json| -> Vec<Json> {
        doc.get("workloads")
            .map(|w| w.as_arr().to_vec())
            .unwrap_or_default()
    };
    let b_workloads = workloads(&b_doc);
    let mut rows = Vec::new();
    let mut exact_lines = Vec::new();
    let mut ok = true;

    for a in workloads(&a_doc) {
        let name = a
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(b) = b_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
        else {
            println!("{name}: missing from {}", b_path.display());
            ok = false;
            continue;
        };
        if a.get("digest") != b.get("digest") {
            println!("{name}: op-stream digests differ — the two sides ran different inputs");
            ok = false;
        }
        for m in END_TO_END {
            let (ma, mb) = (
                a.get("end_to_end").and_then(|e| e.get(m.name)),
                b.get("end_to_end").and_then(|e| e.get(m.name)),
            );
            let (Some(va), Some(vb)) = (num(ma, "value"), num(mb, "value")) else {
                continue;
            };
            let change = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            let worse = match m.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let shaky = |m: Option<&Json>| m.and_then(|m| m.get("low_confidence")).is_some();
            let verdict = if shaky(ma) || shaky(mb) {
                "unresolved"
            } else if worse > m.bound {
                "regression"
            } else if worse < -m.bound {
                "improved"
            } else if spread(ma) > m.bound || spread(mb) > m.bound {
                "unresolved"
            } else {
                "unchanged"
            };
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                a: va,
                b: vb,
                worse,
                bound: m.bound,
                verdict,
            });
        }
        // Any increase in the error rate is a regression.
        let (ea, eb) = (num(Some(&a), "error_rate"), num(Some(b), "error_rate"));
        if let (Some(ea), Some(eb)) = (ea, eb) {
            rows.push(Row {
                workload: name.clone(),
                metric: "error_rate",
                a: ea,
                b: eb,
                worse: if eb > ea { f64::INFINITY } else { 0.0 },
                bound: 0.0,
                verdict: if eb > ea { "regression" } else { "unchanged" },
            });
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (
                num(a.get("per_layer").and_then(|l| l.get(m.name)), "value"),
                num(b.get("per_layer").and_then(|l| l.get(m.name)), "value"),
            );
            if let (Some(va), Some(vb)) = (va, vb) {
                let same = va == vb;
                ok &= same;
                exact_lines.push(format!(
                    "{:<18} {:<34} {:>16} {:>16}  {}",
                    name,
                    m.name,
                    va,
                    vb,
                    if same { "same" } else { "DIFFERS" }
                ));
            }
        }
    }

    rows.sort_by(|x, y| y.worse.total_cmp(&x.worse));
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in &rows {
        println!(
            "{:<18} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse * 100.0,
            r.bound * 100.0,
            r.verdict
        );
        ok &= r.verdict != "regression";
    }
    if !exact_lines.is_empty() {
        println!("\nexact figures (must repeat bit for bit):");
        for line in &exact_lines {
            println!("{line}");
        }
    }
    let count = |v: &str| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "\n{} rows: {} regression, {} unresolved, {} improved, {} unchanged",
        rows.len(),
        count("regression"),
        count("unresolved"),
        count("improved"),
        count("unchanged")
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(values: &[f64]) -> Json {
        let mut m = Json::obj();
        m.set("values", values);
        m
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(spread(Some(&metric(&[2.0, 4.0, 1.0]))), 1.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(Some(&metric(&ten))), 1.0);
        assert_eq!(spread(Some(&metric(&[3.0]))), 0.0);
        assert_eq!(spread(None), 0.0);
    }
}
