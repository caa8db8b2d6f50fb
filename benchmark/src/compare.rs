//! `compare A.json B.json`: one row per (workload, end-to-end metric).
//!
//! A is the base of every ratio, and the ratio is between the values the
//! driver sees (`Summary::value`, the fastest sample). A timing whose
//! interquartile spread on either side is wider than the metric's bound
//! is `unresolved`, never `unchanged`: the host was too noisy for the
//! files to tell a regression of that size from interference.

use crate::json::{parse, Json};
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Unchanged,
    Regressed,
    Improved,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Counters the program makes itself: they repeat exactly, so they are
/// compared for equality and have no spread to resolve.
fn is_exact(e: &EndToEnd) -> bool {
    matches!(e.unit, "count" | "B/amp")
}

pub fn verdict(e: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let (va, vb) = (a.value(), b.value());
    let worse = match e.better {
        Better::Lower => vb > va,
        Better::Higher => vb < va,
    };
    if is_exact(e) {
        return match (va == vb, worse) {
            (true, _) => Verdict::Unchanged,
            (false, true) => Verdict::Regressed,
            (false, false) => Verdict::Improved,
        };
    }
    if a.spread().max(b.spread()) > e.bound {
        return Verdict::Unresolved;
    }
    let change = (vb - va).abs() / va.abs();
    match (change > e.bound, worse) {
        (false, _) => Verdict::Unchanged,
        (true, true) => Verdict::Regressed,
        (true, false) => Verdict::Improved,
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workloads(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("workloads")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| Some((w.get("workload")?.as_str()?, w)))
        .collect()
}

/// Print the table; `Ok(true)` when no row regressed or is unresolved.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("base A = {path_a}\n     B = {path_b}");
    println!(
        "{:<20} {:<24} {:>12} {:>12} {:>23} {:>12} {:>12} {:>23} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A value",
        "A median",
        "A q1..q3",
        "B value",
        "B median",
        "B q1..q3",
        "B/A",
        "bound"
    );
    let mut clean = true;
    for (name, wa) in workloads(&a) {
        let Some((_, wb)) = workloads(&b).into_iter().find(|(n, _)| *n == name) else {
            println!("{name:<20} missing from B");
            clean = false;
            continue;
        };
        for e in &END_TO_END {
            let get = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|m| m.get(e.name))
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (get(wa), get(wb)) else {
                println!("{name:<20} {:<24} missing", e.name);
                clean = false;
                continue;
            };
            let v = verdict(e, &sa, &sb);
            clean &= matches!(v, Verdict::Unchanged | Verdict::Improved);
            println!(
                "{name:<20} {:<24} {:>12.6} {:>12.6} {:>11.6}..{:<10.6} {:>12.6} {:>12.6} {:>11.6}..{:<10.6} {:>8.4} {:>6.3}  {}",
                format!("{} [{}]", e.name, e.unit),
                sa.value(),
                sa.median,
                sa.q1,
                sa.q3,
                sb.value(),
                sb.median,
                sb.q1,
                sb.q3,
                sb.value() / sa.value(),
                e.bound,
                v.as_str()
            );
        }
        for (side, w) in [("A", wa), ("B", wb)] {
            if w.get("correct") != Some(&Json::Bool(true)) {
                println!("{name:<20} {side} is not marked correct");
                clean = false;
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> EndToEnd {
        *END_TO_END.iter().find(|e| e.name == "wall_s").unwrap()
    }

    fn flat(v: f64) -> Summary {
        Summary::of(&[v])
    }

    #[test]
    fn timings_resolve_only_when_spread_is_inside_the_bound() {
        let e = timing();
        assert_eq!(
            verdict(&e, &flat(1.0), &flat(1.0 + e.bound / 2.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&e, &flat(1.0), &flat(1.0 + 2.0 * e.bound)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&e, &flat(1.0), &flat(1.0 - 2.0 * e.bound)),
            Verdict::Improved
        );
        let wide = Summary::of(&[0.8, 1.0, 1.2, 1.4]);
        assert!(wide.spread() > e.bound);
        assert_eq!(verdict(&e, &wide, &flat(1.0)), Verdict::Unresolved);
    }

    #[test]
    fn exact_counters_compare_for_equality() {
        let e = *END_TO_END.iter().find(|e| e.name == "stage_runs").unwrap();
        assert_eq!(verdict(&e, &flat(2.0), &flat(2.0)), Verdict::Unchanged);
        assert_eq!(verdict(&e, &flat(2.0), &flat(3.0)), Verdict::Regressed);
        assert_eq!(verdict(&e, &flat(3.0), &flat(2.0)), Verdict::Improved);
    }
}
