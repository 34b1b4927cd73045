//! The reference benchmark of the PAC reproduction: five workloads, five
//! end-to-end metrics every workload reports, per-layer probes and a
//! traced run. See README.md.

mod compare;
mod gen;
mod json;
mod probes;
mod reference;
mod replay;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  pac-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out FILE]
  pac-benchmark compare OLD.json NEW.json
  pac-benchmark spec        print BENCHMARK.json as the sources define it";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
