//! # kali-bench — the paper's evaluation, regenerated on the simulator
//!
//! One module per paper artifact (figure, claim or ablation). Each
//! measures typed rows on the virtual-time simulator — the cost model a
//! paper artifact is read off — and renders them as the plain-text
//! report its `run()` returns; the module's test asserts on the typed
//! values. `cargo run --release -p kali-bench -- <name>|all` prints the
//! reports. Exact counters and bits are pinned by the `#[test]`s next to
//! the code they check and under `tests/`; wall clock is `benchmark/`'s
//! job.

use std::time::Duration;

use kali_machine::{BackendKind, CostModel, Machine, MachineConfig, Topology};

pub mod exp_adi;
pub mod exp_distributions;
pub mod exp_fig1_structure;
pub mod exp_fig3_dataflow;
pub mod exp_fig5_pipeline;
pub mod exp_kf1_vs_mp;
pub mod exp_lang_overhead;
pub mod exp_loc;
pub mod exp_mg3;
pub mod exp_tridiag_scaling;

/// Paper artifact id, experiment name, report generator, in the paper's
/// order.
pub const EXPERIMENTS: [(&str, &str, fn() -> String); 10] = [
    ("F1/F2", "fig1_structure", exp_fig1_structure::run),
    ("F3/F4", "fig3_dataflow", exp_fig3_dataflow::run),
    ("F5/T2", "fig5_pipeline", exp_fig5_pipeline::run),
    ("C1", "loc", exp_loc::run),
    ("C2", "kf1_vs_mp", exp_kf1_vs_mp::run),
    ("C3", "distributions", exp_distributions::run),
    ("T1", "tridiag_scaling", exp_tridiag_scaling::run),
    ("T3", "adi", exp_adi::run),
    ("T4", "mg3", exp_mg3::run),
    ("C6", "lang_overhead", exp_lang_overhead::run),
];

/// What `kali-bench <name>` prints: the reports of the experiment `name`
/// names, or of all ten for `all`, each under its artifact's banner.
/// `None` for an unknown name.
pub fn report(name: &str) -> Option<String> {
    let selected = EXPERIMENTS.iter().filter(|e| name == "all" || name == e.1);
    let out: String = selected
        .map(|(id, _, run)| {
            format!(
                "\n################ experiment {id} ################\n\n{}\n",
                run()
            )
        })
        .collect();
    (!out.is_empty()).then_some(out)
}

/// Standard machine for experiments: the simulator with iPSC/2-era
/// costs and a generous watchdog.
pub fn cfg(p: usize) -> MachineConfig {
    cfg_cost(p, CostModel::ipsc2())
}

/// [`cfg`] under another cost model (the communication-cost sweep).
pub(crate) fn cfg_cost(p: usize, cost: CostModel) -> MachineConfig {
    Machine::build(BackendKind::Sim, Topology::FullyConnected, cost)
        .procs(p)
        .watchdog(Duration::from_secs(120))
        .config()
}

/// Format seconds in engineering notation.
pub fn fmt_s(t: f64) -> String {
    if t >= 1.0 {
        format!("{t:.3} s")
    } else if t >= 1e-3 {
        format!("{:.3} ms", t * 1e3)
    } else {
        format!("{:.3} µs", t * 1e6)
    }
}

/// A minimal fixed-width table builder for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut w = vec![0usize; ncols];
        for c in 0..ncols {
            w[c] = self.header[c].len();
            for r in &self.rows {
                w[c] = w[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:>width$}  ", cell, width = w[c]));
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        out.push_str(&format!(
            "{}\n",
            "-".repeat(w.iter().sum::<usize>() + 2 * ncols)
        ));
        for r in &self.rows {
            line(&mut out, r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "speed"]);
        t.row(vec!["1".into(), "10.0".into()]);
        t.row(vec!["100".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("speed"));
        assert_eq!(s.lines().count(), 4);
    }

    /// Every experiment runs on the simulator's virtual clock, so the
    /// whole output is deterministic: it is compared with the committed
    /// file byte for byte, and rewritten only with `KALI_BLESS=1`.
    #[test]
    fn all_experiments_print_the_golden_report() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/kali_bench_all.txt"
        );
        let got = report("all").expect("the experiments");
        if std::env::var_os("KALI_BLESS").is_some_and(|v| v == "1") {
            std::fs::write(path, &got).expect("the golden file is writable");
        }
        let want =
            std::fs::read_to_string(path).expect("the golden file (bless with KALI_BLESS=1)");
        assert!(got == want, "kali-bench all differs from {path}; diff it, and bless with KALI_BLESS=1 if the change is meant");
    }

    #[test]
    fn fmt_s_scales() {
        assert_eq!(fmt_s(2.0), "2.000 s");
        assert_eq!(fmt_s(2e-3), "2.000 ms");
        assert_eq!(fmt_s(2e-6), "2.000 µs");
    }
}
