//! Rendering: the one-line result the pipeline reads, the full-run
//! document `compare` reads, and the human table on stderr.

use crate::json::Json;
use crate::run::{Metric, PassOutput, END_TO_END};

/// `{"value": v, "unit": u}` — what the pipeline's contract allows.
fn value_unit(m: &Metric) -> Json {
    Json::obj([
        ("value", Json::Num(m.value)),
        ("unit", Json::Str(m.unit.into())),
    ])
}

/// The same plus quartiles and sample count, for the full-run document.
fn with_quartiles(m: &Metric) -> Json {
    Json::obj([
        ("value", Json::Num(m.value)),
        ("unit", Json::Str(m.unit.into())),
        ("median", Json::Num(m.summary.median)),
        ("q1", Json::Num(m.summary.q1)),
        ("q3", Json::Num(m.summary.q3)),
        ("n", Json::Num(m.summary.n as f64)),
    ])
}

/// Is `m` one of the metrics a pass reports (as opposed to context for
/// the human table)?
fn reported(m: &Metric, traced: bool) -> bool {
    traced || END_TO_END.iter().any(|e| e.name == m.name)
}

/// The last line of standard output in pipeline mode: exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &PassOutput, traced: bool) -> String {
    // A metric that could not be measured (NaN) is a failed operation:
    // its run panicked and was counted, so `correct` is already false.
    let metrics = out
        .metrics
        .iter()
        .filter(|m| reported(m, traced))
        .map(|m| (m.name.clone(), value_unit(m)));
    Json::obj([
        ("correct", Json::Bool(out.checks.failed == 0)),
        ("attempted", Json::Num(out.checks.attempted.max(1) as f64)),
        ("failed", Json::Num(out.checks.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// One workload's entry of the full-run document.
pub fn workload_entry(unit: &str, timed: &PassOutput, traced: &PassOutput) -> Json {
    let attempted = timed.checks.attempted + traced.checks.attempted;
    let failed = timed.checks.failed + traced.checks.failed;
    Json::obj([
        ("unit", Json::Str(unit.into())),
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "end_to_end",
            Json::obj(
                timed
                    .metrics
                    .iter()
                    .filter(|m| reported(m, false))
                    .map(|m| (m.name.clone(), with_quartiles(m))),
            ),
        ),
        (
            "per_layer",
            Json::obj(
                traced
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), with_quartiles(m))),
            ),
        ),
    ])
}

/// The human table: every metric by name with its unit, value, and the
/// median, quartiles and count of its samples; then what failed, if
/// anything.
pub fn human_table(workload: &str, pass: &str, out: &PassOutput) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {workload} ({pass}): {} checks, {} failed",
        out.checks.attempted, out.checks.failed
    );
    let _ = writeln!(
        s,
        "{:<42} {:>14} {:>14} {:>14} {:>14} {:>5}  unit",
        "metric", "value", "median", "q1", "q3", "n"
    );
    for m in &out.metrics {
        let _ = writeln!(
            s,
            "{:<42} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>5}  {}",
            m.name, m.value, m.summary.median, m.summary.q1, m.summary.q3, m.summary.n, m.unit
        );
    }
    for note in &out.checks.notes {
        let _ = writeln!(s, "FAILED: {note}");
    }
    s
}
