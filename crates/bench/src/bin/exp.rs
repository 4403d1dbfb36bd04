//! Runs the measured experiments E1-E13 (see DESIGN.md section 5 and
//! EXPERIMENTS.md).
//!
//! Usage: `exp [eN ...]` runs the named experiments (e1..e13), or all of them
//! without arguments.

use mcs_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        for report in experiments::all() {
            println!("{}", report.render());
        }
        return;
    }
    for id in args {
        match experiments::by_id(&id) {
            Some(report) => println!("{}", report.render()),
            None => eprintln!("unknown experiment `{id}` (expected e1..e13)"),
        }
    }
}
