//! `cargo run --release -p kali-bench -- <name>|all`: regenerate one
//! paper artifact, or all ten in the paper's order.

use kali_bench::{
    exp_adi, exp_distributions, exp_fig1_structure, exp_fig3_dataflow, exp_fig5_pipeline,
    exp_kf1_vs_mp, exp_lang_overhead, exp_loc, exp_mg3, exp_tridiag_scaling,
};

/// Paper artifact id, experiment name, report generator.
const EXPERIMENTS: [(&str, &str, fn() -> String); 10] = [
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<_> = match args.as_slice() {
        [name] => EXPERIMENTS
            .iter()
            .filter(|(_, n, _)| name == "all" || name == n)
            .collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        eprintln!("usage: kali-bench <name>|all, where <name> is one of");
        for (id, name, _) in EXPERIMENTS {
            eprintln!("  {name:<16} {id}");
        }
        std::process::exit(2);
    }
    for (id, _, run) in selected {
        println!("\n################ experiment {id} ################\n");
        println!("{}", run());
    }
}
