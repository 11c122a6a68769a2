//! `cargo run --release -p kali-bench -- <name>|all`: regenerate one
//! paper artifact, or all ten in the paper's order.

use kali_bench::{report, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.as_slice() {
        [name] => report(name),
        _ => None,
    };
    let Some(out) = out else {
        eprintln!("usage: kali-bench <name>|all, where <name> is one of");
        for (id, name, _) in EXPERIMENTS {
            eprintln!("  {name:<16} {id}");
        }
        std::process::exit(2);
    };
    print!("{out}");
}
