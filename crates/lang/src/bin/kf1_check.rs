//! `kf1_check` — the standalone KF1 lint driver.
//!
//! Parses (and so resolves) each `.kf1` file named on the command line
//! and runs the full static analysis over the resolved tree; the report
//! on each file is [`kali_lang::check`]'s. Lexer, parser and semantic
//! diagnostics render as caret-underlined source excerpts on stderr; the
//! exit status is the number of files with at least one diagnostic
//! (clamped to 125), so `kf1_check prog.kf1` in CI fails exactly when a
//! program stops being clean.
//!
//! With `--plans`, additionally prints which doall sites carry a
//! [`kali_lang::StaticCommPlan`] — the sites whose cold trips the
//! interpreter can serve from a compile-time schedule.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut show_plans = false;
    let mut files = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--plans" => show_plans = true,
            "--help" | "-h" => {
                eprintln!("usage: kf1_check [--plans] <file.kf1>...");
                return ExitCode::SUCCESS;
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("usage: kf1_check [--plans] <file.kf1>...");
        return ExitCode::from(2);
    }

    let mut bad_files = 0u8;
    for path in &files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                bad_files = bad_files.saturating_add(1);
                continue;
            }
        };
        match kali_lang::check(path, &src, show_plans) {
            Ok(plans) => print!("{plans}"),
            Err(diags) => {
                eprint!("{diags}");
                bad_files = bad_files.saturating_add(1);
            }
        }
    }
    ExitCode::from(bad_files.min(125))
}
