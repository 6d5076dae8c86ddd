//! Regression gate for the checked-in `BENCH_*.json` baselines: a
//! recursive structural compare, over documents read with
//! `cusfft_telemetry::json`, with per-metric tolerances. Shapes must
//! match exactly (object members by key, in any order); numeric leaves
//! get a tolerance chosen by the metric's key name (counts are exact,
//! modeled times and rates get a small relative band).

use cusfft_telemetry::json::{self, JsonValue};

/// The tolerance applied to a numeric metric, chosen by key name.
fn tolerance(key: &str) -> (f64, f64) {
    // (relative, absolute). Simulated times, throughputs and derived
    // rates get a 5% band (robust to benign cost-model refinements);
    // measured error magnitudes get an order-of-magnitude-ish band;
    // everything else (counts, seeds, sizes) must match exactly.
    if key.ends_with("_ms")
        || key.ends_with("throughput")
        || key.ends_with("_overhead")
        || key.ends_with("rate")
        || key.ends_with("speedup")
        || key.ends_with("ratio")
        || key.ends_with("recall")
        || key.ends_with("attainment")
    {
        (0.05, 1e-9)
    } else if key.ends_with("l1_vs_oracle") || key.ends_with("oracle_bound") {
        (2.0, 1e-12)
    } else {
        (0.0, 1e-9)
    }
}

/// One detected difference, as a human-readable line.
pub type Diff = String;

/// Recursively compares `got` against `want`, appending a line per
/// mismatch. `path` names the current node (e.g. `points[3].makespan_ms`).
pub fn compare(path: &str, want: &JsonValue, got: &JsonValue, diffs: &mut Vec<Diff>) {
    match (want, got) {
        (JsonValue::Object(a), JsonValue::Object(b)) => {
            for (key, _) in a {
                if got.get(key).is_none() {
                    diffs.push(format!("{path}.{key}: missing from candidate"));
                }
            }
            for (key, _) in b {
                if want.get(key).is_none() {
                    diffs.push(format!("{path}.{key}: not in baseline"));
                }
            }
            for (key, av) in a {
                if let Some(bv) = got.get(key) {
                    compare(&format!("{path}.{key}"), av, bv, diffs);
                }
            }
        }
        (JsonValue::Array(a), JsonValue::Array(b)) => {
            if a.len() != b.len() {
                diffs.push(format!(
                    "{path}: length {} in baseline vs {} in candidate",
                    a.len(),
                    b.len()
                ));
                return;
            }
            for (i, (av, bv)) in a.iter().zip(b).enumerate() {
                compare(&format!("{path}[{i}]"), av, bv, diffs);
            }
        }
        (JsonValue::Number(a), JsonValue::Number(b)) => {
            let key = path.rsplit('.').next().unwrap_or(path);
            let key = key.split('[').next().unwrap_or(key);
            let (rel, abs) = tolerance(key);
            let band = abs + rel * a.abs().max(b.abs());
            if (a - b).abs() > band {
                diffs.push(format!(
                    "{path}: baseline {a} vs candidate {b} (tolerance ±{band:.3e})"
                ));
            }
        }
        _ if want == got => {}
        _ => diffs.push(format!("{path}: baseline {want:?} vs candidate {got:?}")),
    }
}

/// Compares one baseline file against its freshly-generated candidate.
/// Returns the diff lines (empty = pass).
pub fn check_file(baseline: &str, candidate: &str, name: &str) -> Result<Vec<Diff>, String> {
    let want = json::parse(baseline).map_err(|e| format!("{name} baseline: {e}"))?;
    let got = json::parse(candidate).map_err(|e| format!("{name} candidate: {e}"))?;
    let mut diffs = Vec::new();
    compare(name, &want, &got, &mut diffs);
    Ok(diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerant_on_times_exact_on_counts() {
        let base = r#"{"points": [{"makespan_ms": 100.0, "requests": 12}]}"#;
        let drift = r#"{"points": [{"makespan_ms": 103.0, "requests": 12}]}"#;
        assert!(check_file(base, drift, "t").unwrap().is_empty());
        let count = r#"{"points": [{"makespan_ms": 100.0, "requests": 13}]}"#;
        assert_eq!(check_file(base, count, "t").unwrap().len(), 1);
        let big = r#"{"points": [{"makespan_ms": 110.0, "requests": 12}]}"#;
        assert_eq!(check_file(base, big, "t").unwrap().len(), 1);
    }

    #[test]
    fn shape_changes_are_reported() {
        let base = r#"{"a": 1, "b": [1, 2]}"#;
        let cand = r#"{"a": 1, "b": [1], "c": "new"}"#;
        let diffs = check_file(base, cand, "t").unwrap();
        assert_eq!(diffs.len(), 2, "{diffs:?}");
    }
}
