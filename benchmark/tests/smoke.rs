//! Every workload at toy size, both passes: the output has every metric
//! exactly once under a well-formed name, shares are fractions that sum
//! to at most one, the traced twins are bitwise-equal to the opaque
//! calls, and exact counters repeat from run to run.
//!
//! One test function: the passes pin threads and share the counting
//! allocator, so they must not run side by side.

use std::collections::BTreeSet;

use kali_benchmark::json;
use kali_benchmark::probes::{self, Scale};
use kali_benchmark::run::{timed_pass, traced_pass, Metric, PassConfig, END_TO_END, SHARES};
use kali_benchmark::workloads;

/// Per-layer metrics that are counts made by the program: they must
/// repeat exactly.
const EXACT: [&str; 11] = [
    "virtual_us_per_unit",
    "machine.msgs_per_unit",
    "machine.words_per_unit",
    "sched.inspector_runs",
    "sched.replays",
    "sched.optimistic_hits",
    "sched.rollbacks",
    "sched.evictions",
    "sched.hit_ratio",
    "array.exchange_words_per_unit",
    "array.gather_words_per_unit",
];

/// Per-layer metrics measured on the workload itself (the rest are the
/// layer probes and the shares).
const PER_WORKLOAD: [&str; 19] = [
    "ns_per_unit_2w",
    "ns_per_unit_1w",
    "ref_ns_per_unit",
    "scaling_2w",
    "virtual_us_per_unit",
    "machine.msgs_per_unit",
    "machine.words_per_unit",
    "sched.inspector_runs",
    "sched.replays",
    "sched.optimistic_hits",
    "sched.rollbacks",
    "sched.evictions",
    "sched.hit_ratio",
    "array.exchange_words_per_unit",
    "array.gather_words_per_unit",
    "alloc.count_per_unit",
    "alloc.bytes_per_unit",
    "trace.overhead_frac",
    "share.unattributed",
];

fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = probes::NAMES.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(PER_WORKLOAD.iter().map(|n| n.to_string()));
    names.extend(SHARES.iter().map(|s| format!("share.{s}")));
    names
}

fn value<'a>(metrics: &'a [Metric], name: &str) -> &'a Metric {
    let hits: Vec<&Metric> = metrics.iter().filter(|m| m.name == name).collect();
    assert_eq!(hits.len(), 1, "{name} must appear exactly once");
    hits[0]
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_at_toy_size() {
    let cfg = PassConfig {
        seed: 1,
        seconds: 0.0,
        scale: Scale::Toy,
    };
    let expected = per_layer_names();
    assert_eq!(
        expected.iter().collect::<BTreeSet<_>>().len(),
        expected.len(),
        "a per-layer name is listed twice"
    );
    for name in workloads::NAMES {
        let w = workloads::by_name(name, cfg.seed, cfg.scale).expect("listed workload");

        let timed = timed_pass(w.as_ref(), &cfg);
        assert_eq!(timed.checks.failed, 0, "{name}: {:?}", timed.checks.notes);
        assert!(timed.checks.attempted >= 1);
        for e in &END_TO_END {
            let m = value(&timed.metrics, e.name);
            assert_eq!(m.unit, e.unit);
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{name}: {} = {}",
                e.name,
                m.value
            );
        }

        let traced = traced_pass(w.as_ref(), &cfg);
        // Failed checks would include a twin that is not bitwise-equal
        // to the opaque call, counters that changed between rounds and
        // sim runs that disagree.
        assert_eq!(traced.checks.failed, 0, "{name}: {:?}", traced.checks.notes);
        assert_eq!(traced.metrics.len(), expected.len(), "{name}: metric count");
        for n in &expected {
            let m = value(&traced.metrics, n);
            assert!(well_formed(&m.name), "bad metric name {:?}", m.name);
            assert!(m.value.is_finite(), "{name}: {n} is not a number");
        }
        let mut sum = value(&traced.metrics, "share.unattributed").value;
        for s in SHARES {
            let v = value(&traced.metrics, &format!("share.{s}")).value;
            assert!((0.0..=1.0).contains(&v), "{name}: share.{s} = {v}");
            if !w.shares().contains(&s) {
                assert_eq!(v, 0.0, "{name} has no {s} phase");
            }
            sum += v;
        }
        assert!(sum > 0.5 && sum <= 1.05, "{name}: shares sum to {sum}");
        assert!(!traced.spans.is_empty(), "{name}: no spans recorded");

        // A second run gives identical exact counters.
        let again = traced_pass(w.as_ref(), &cfg);
        for n in EXACT {
            let (a, b) = (value(&traced.metrics, n), value(&again.metrics, n));
            assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "{name}: {n} differs between two runs"
            );
        }
    }
}

/// `BENCHMARK.json` (one directory up, when the benchmark sits in its
/// repository) lists exactly what the program prints.
#[test]
fn benchmark_json_matches_the_program() {
    let Ok(text) = std::fs::read_to_string("../BENCHMARK.json") else {
        return;
    };
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        match doc.get(key) {
            Some(json::Json::Arr(items)) => items
                .iter()
                .map(|i| {
                    i.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    };
    assert_eq!(names("workloads"), workloads::NAMES);
    assert_eq!(
        names("end_to_end"),
        END_TO_END.iter().map(|e| e.name).collect::<Vec<_>>()
    );
    let Some(json::Json::Arr(e2e)) = doc.get("end_to_end") else {
        unreachable!()
    };
    for (entry, spec) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(spec.unit));
        assert_eq!(
            entry.get("bound").and_then(|b| b.as_f64()),
            Some(spec.bound)
        );
        let better = if spec.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(entry.get("better").and_then(|b| b.as_str()), Some(better));
    }
    let listed: BTreeSet<String> = names("per_layer").into_iter().collect();
    let printed: BTreeSet<String> = per_layer_names().into_iter().collect();
    assert_eq!(listed, printed);
}
