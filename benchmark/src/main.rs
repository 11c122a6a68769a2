//! `kali-benchmark`: see `README.md` in this directory.
//!
//! ```text
//! kali-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pass over one workload; the last line of stdout is the result
//! kali-benchmark [--seed <n>] [--seconds <s>] [--trace <file>]
//!     both passes over every workload; one JSON document on stdout
//! kali-benchmark compare <a.json> <b.json>
//! kali-benchmark selftest
//! ```

use std::process::ExitCode;

use kali_benchmark::json::Json;
use kali_benchmark::probes::Scale;
use kali_benchmark::run::{timed_pass, traced_pass, PassConfig};
use kali_benchmark::{compare, pin, report, selftest, trace, workloads};

/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 16.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_file: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        trace_file: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `0`/`1` select the pass; anything else names the file the
            // Chrome trace of the traced pass is written to.
            "--trace" => match value()?.as_str() {
                "0" => args.traced = false,
                "1" => args.traced = true,
                path => {
                    args.traced = true;
                    args.trace_file = Some(path.to_string());
                }
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn write_trace(path: &str, spans: &[(String, Vec<trace::Span>)]) -> Result<(), String> {
    std::fs::write(path, trace::chrome_trace(spans).render()).map_err(|e| format!("{path}: {e}"))
}

fn run(args: Args) -> Result<bool, String> {
    let cfg = PassConfig {
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::Full,
    };
    eprintln!(
        "kali-benchmark: seed {}, {} s per pass, {} CPUs allowed, available_parallelism {}",
        args.seed,
        args.seconds,
        pin::cpus(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut ok = true;
    if let Some(name) = &args.workload {
        // Pipeline mode: one pass over one workload.
        let w = workloads::by_name(name, args.seed, cfg.scale)
            .ok_or_else(|| format!("no workload named {name}; have {:?}", workloads::NAMES))?;
        let mut out = if args.traced {
            traced_pass(w.as_ref(), &cfg)
        } else {
            timed_pass(w.as_ref(), &cfg)
        };
        let pass = if args.traced {
            "traced pass"
        } else {
            "timed pass"
        };
        eprint!("{}", report::human_table(name, pass, &out));
        eprintln!("pinned: {}", pin::pinned());
        if let Some(path) = &args.trace_file {
            write_trace(path, &[(name.clone(), std::mem::take(&mut out.spans))])?;
        }
        println!("{}", report::result_line(&out, args.traced));
        // The pipeline reads `correct` and `failed` from the line; the
        // exit code only says that a result was printed.
        return Ok(true);
    }
    // Full run: both passes over every workload, one document.
    let mut entries = Vec::new();
    let mut spans = Vec::new();
    for name in workloads::NAMES {
        let w = workloads::by_name(name, args.seed, cfg.scale).expect("listed workload");
        let timed = timed_pass(w.as_ref(), &cfg);
        eprint!("{}", report::human_table(name, "timed pass", &timed));
        let traced = traced_pass(w.as_ref(), &cfg);
        eprint!("{}", report::human_table(name, "traced pass", &traced));
        ok &= timed.checks.failed == 0 && traced.checks.failed == 0;
        entries.push((name, report::workload_entry(w.unit(), &timed, &traced)));
        spans.push((name.to_string(), traced.spans));
    }
    if let Some(path) = &args.trace_file {
        write_trace(path, &spans)?;
    }
    let doc = Json::obj([
        ("benchmark", Json::Str("kali".into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("cpus", Json::Num(pin::cpus() as f64)),
        ("pinned", Json::Bool(pin::pinned())),
        ("workloads", Json::obj(entries)),
    ]);
    eprintln!("pinned: {}", pin::pinned());
    println!("{}", doc.render());
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match argv.as_slice() {
            [_, a, b] => compare::compare_files(a, b),
            _ => Err("usage: kali-benchmark compare <a.json> <b.json>".into()),
        },
        Some("selftest") => selftest::pinning(),
        _ => parse_args(&argv).and_then(run),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Results were printed; the failed checks are in them.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("kali-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
