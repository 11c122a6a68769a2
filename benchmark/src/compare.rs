//! `kali-benchmark compare <a.json> <b.json>`: two full-run documents,
//! one row per workload × end-to-end metric, a verdict per row. The A/A
//! check of the benchmark itself, and the table later performance issues
//! quote.

use crate::json::{self, Json};
use crate::run::{EndToEnd, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The rounds of the two runs spread too widely to resolve their
    /// values to within the bound.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the reported value and its samples' summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub samples: Summary,
}

/// `b` against baseline `a` under `spec`.
pub fn verdict(spec: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    let worsening = if spec.lower_is_better {
        (b.value - a.value) / a.value
    } else {
        (a.value - b.value) / a.value
    };
    if !worsening.is_finite() || a.samples.resolution() + b.samples.resolution() > spec.bound {
        Verdict::Unresolved
    } else if worsening > spec.bound {
        Verdict::Worse
    } else if worsening < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side_of(entry: &Json) -> Option<Side> {
    let num = |k: &str| entry.get(k).and_then(Json::as_f64);
    Some(Side {
        value: num("value")?,
        samples: Summary {
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            n: num("n")? as usize,
        },
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // The document is the last non-empty line (the table goes to stderr,
    // but a redirected `2>&1` capture still compares).
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty"))?;
    json::parse(line).map_err(|e| format!("{path}: {e}"))
}

/// Compare two documents; `Ok(false)` when any row is `worse`.
pub fn compare_docs(a: &Json, b: &Json) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<14} {:<16} {:>11} {:>21} {:>11} {:>21} {:>6}  verdict",
        "workload", "metric", "a value", "a quartiles", "b value", "b quartiles", "bound"
    );
    let mut any_worse = false;
    let wa = a.get("workloads").ok_or("first file has no workloads")?;
    let wb = b.get("workloads").ok_or("second file has no workloads")?;
    for (workload, entry_a) in wa.entries() {
        let entry_b = wb
            .get(workload)
            .ok_or_else(|| format!("second file lacks workload {workload}"))?;
        for spec in &END_TO_END {
            let pick = |e: &Json| {
                e.get("end_to_end")
                    .and_then(|m| m.get(spec.name))
                    .and_then(side_of)
                    .ok_or_else(|| format!("{workload}: no usable {}", spec.name))
            };
            let (sa, sb) = (pick(entry_a)?, pick(entry_b)?);
            let v = verdict(spec, &sa, &sb);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                table,
                "{:<14} {:<16} {:>11.5} {:>10.5}-{:<10.5} {:>11.5} {:>10.5}-{:<10.5} {:>6.3}  {}",
                workload,
                spec.name,
                sa.value,
                sa.samples.q1,
                sa.samples.q3,
                sb.value,
                sb.samples.q1,
                sb.samples.q3,
                spec.bound,
                v.label()
            );
        }
    }
    Ok((table, !any_worse))
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (table, ok) = compare_docs(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Side {
        Side {
            value: median,
            samples: Summary {
                median,
                q1,
                q3,
                n: 12,
            },
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let speedup = EndToEnd {
            name: "speedup",
            unit: "ratio",
            lower_is_better: false,
            bound: 0.10,
        };
        let base = s(1.70, 1.68, 1.72);
        assert_eq!(
            verdict(&speedup, &base, &s(1.69, 1.67, 1.71)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&speedup, &base, &s(1.50, 1.49, 1.51)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&speedup, &base, &s(1.90, 1.89, 1.91)),
            Verdict::Better
        );
        // IQR 0.6 of 1.5 over 12 rounds resolves to 11.5 %: not enough.
        assert_eq!(
            verdict(&speedup, &base, &s(1.50, 1.20, 1.80)),
            Verdict::Unresolved
        );
        let overhead = EndToEnd {
            name: "overhead",
            unit: "ratio",
            lower_is_better: true,
            bound: 0.10,
        };
        assert_eq!(
            verdict(&overhead, &s(1.05, 1.04, 1.06), &s(1.20, 1.19, 1.21)),
            Verdict::Worse
        );
    }
}
