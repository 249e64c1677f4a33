//! `mssr` — every table and figure of the paper behind one binary:
//! `mssr <experiment>|all [flags]`. The experiment names and the shared
//! harness flags are listed by `mssr --help`; `all` runs every
//! experiment as one parallel grid invocation over a shared,
//! deduplicated cell pool.

use mssr_bench::harness::{run_experiments, HarnessOpts};
use mssr_workloads::Scale;

fn main() {
    let (exps, opts) = HarnessOpts::parse_args(Scale::Medium);
    print!("{}", run_experiments(&exps, &opts));
}
