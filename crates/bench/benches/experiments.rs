//! Harness benches mirroring the paper's experiments, one group per
//! table/figure, at test scale (`mssr table1`, `mssr fig10`, … run the
//! full medium-scale sweeps; these benches keep `cargo bench` fast while
//! still exercising every experiment's code path and reporting simulated
//! runtimes as wall-clock measurements).
//!
//! Built on the harness's measurement core ([`measure`]): warmup
//! iterations, N samples, median/MAD/min. Pass `--json` for JSON-lines
//! `"bench"` records instead of the human-readable report.

use mssr_bench::harness::{measure, MeasureConfig, Measurement};
use mssr_bench::{run_spec, EngineSpec};
use mssr_workloads::{gap, graph::Graph, microbench, spec2006, spec2017};

fn bench_table1(out: &mut Vec<Measurement>, cfg: MeasureConfig) {
    let nested = microbench::nested_mispred(300);
    let linear = microbench::linear_mispred(300);
    out.push(measure("table1/nested/baseline", cfg, || run_spec(&nested, EngineSpec::Baseline)));
    out.push(measure("table1/nested/mssr4x64", cfg, || {
        run_spec(&nested, EngineSpec::Mssr { streams: 4, log_entries: 64 })
    }));
    out.push(measure("table1/nested/ri64x4", cfg, || {
        run_spec(&nested, EngineSpec::Ri { sets: 64, ways: 4 })
    }));
    out.push(measure("table1/linear/mssr4x64", cfg, || {
        run_spec(&linear, EngineSpec::Mssr { streams: 4, log_entries: 64 })
    }));
}

fn bench_fig3(out: &mut Vec<Measurement>, cfg: MeasureConfig) {
    let w = microbench::nested_mispred(300);
    for ways in [1usize, 4] {
        out.push(measure(format!("fig3/ri_{ways}way"), cfg, || {
            run_spec(&w, EngineSpec::Ri { sets: 64, ways })
        }));
    }
}

fn bench_fig4_fig11(out: &mut Vec<Measurement>, cfg: MeasureConfig) {
    // Both figures come from the same profiling run.
    let graph = Graph::uniform(128, 6, 12);
    let w = gap::bfs(&graph);
    out.push(measure("fig4_fig11/bfs/mssr4", cfg, || {
        run_spec(&w, EngineSpec::Mssr { streams: 4, log_entries: 64 })
    }));
    let s = spec2006::sjeng(60);
    out.push(measure("fig4_fig11/sjeng/mssr8", cfg, || {
        run_spec(&s, EngineSpec::Mssr { streams: 8, log_entries: 64 })
    }));
}

fn bench_fig10(out: &mut Vec<Measurement>, cfg: MeasureConfig) {
    let graph = Graph::uniform(128, 6, 12);
    let workloads = vec![
        ("astar", spec2006::astar(10)),
        ("leela", spec2017::leela(200)),
        ("bc", gap::bc(&graph)),
    ];
    for (name, w) in &workloads {
        for (streams, wpb) in [(1usize, 16usize), (4, 64)] {
            out.push(measure(format!("fig10/{name}/{streams}x{wpb}"), cfg, || {
                run_spec(w, EngineSpec::Mssr { streams, log_entries: wpb * 4 })
            }));
        }
    }
}

fn bench_fig12(out: &mut Vec<Measurement>, cfg: MeasureConfig) {
    let graph = Graph::uniform(128, 6, 12);
    let w = gap::cc(&graph);
    out.push(measure("fig12/cc/rgid2x64", cfg, || {
        run_spec(&w, EngineSpec::Mssr { streams: 2, log_entries: 64 })
    }));
    out.push(measure("fig12/cc/ri64x2", cfg, || {
        run_spec(&w, EngineSpec::Ri { sets: 64, ways: 2 })
    }));
}

fn bench_models(out: &mut Vec<Measurement>, cfg: MeasureConfig) {
    // Tables 2 and 4 are analytic; benching them documents their cost is nil.
    out.push(measure("table2_table4/storage_model", cfg, || {
        mssr_core::storage::storage(&mssr_core::storage::StorageParams::default())
    }));
    out.push(measure("table2_table4/complexity_model", cfg, || {
        mssr_core::complexity::reconvergence_detection(4, 64)
    }));
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cfg = MeasureConfig::default();
    let mut out = Vec::new();
    bench_table1(&mut out, cfg);
    bench_fig3(&mut out, cfg);
    bench_fig4_fig11(&mut out, cfg);
    bench_fig10(&mut out, cfg);
    bench_fig12(&mut out, cfg);
    bench_models(&mut out, cfg);
    for m in &out {
        println!("{}", if json { m.json_line() } else { m.human() });
    }
}
