//! The grid phase of every workload: cells declared into a harness
//! `CellPool`, a full-detailed pass over the harness grid runner and a
//! SimPoint pass over the same cells.
//!
//! The full pass runs each cell through the simulator's public entry
//! points (`Workload::instantiate_with`, `Simulator::run`) on
//! `harness::run_cells`, the same steps `CellPool::run` takes for a
//! plain cell, so that the benchmark keeps the `Simulator` to sweep its
//! invariants and the traced run can wrap each engine. The untraced
//! SimPoint pass is the harness's own `--simpoint` grid call; the traced
//! run mirrors it step by step to put spans around each layer, and the
//! simulated-stats digest proves the mirror does the same work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mssr_bench::harness::{
    cell_seed, run_cells, simpoint, splitmix64, CellId, CellPool, HarnessOpts, SimpointRep,
};
use mssr_bench::{experiment_sim_config, EngineSpec};
use mssr_sim::{
    fnv1a64, BbvCollector, NoReuse, ProfReport, ReuseEngine, SimStats, Simulator,
    PROF_DEFAULT_STRIDE,
};
use mssr_workloads::graph::Graph;
use mssr_workloads::{gap, suite_workloads, Scale, Suite, Workload};

use crate::hooks::{HookTally, Tally, Traced};
use crate::span::{SpanId, Tracer};

/// Harness root seed of the SimPoint pass: the harness default, not the
/// benchmark seed. The k-means seed derives from it, and with it drawn
/// from the benchmark seed the worst reconstruction error swings from 6%
/// to 38% between seeds 1 to 6, which no regression bound can hold.
const SIMPOINT_ROOT_SEED: u64 = mssr_bench::harness::DEFAULT_ROOT_SEED;

/// The harness's SimPoint clustering salt (`grid.rs`), so the traced
/// mirror plans exactly the intervals the untraced grid call plans.
const SIMPOINT_SEED_SALT: u64 = 0x5350_4f49_4e54;

/// The harness's detailed-warmup prefix: a quarter interval.
const SIMPOINT_WARMUP_DIV: u64 = 4;

/// The cells of a workload's grid phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridKind {
    /// Listing-1 kernels at medium size under the table1 engine grid.
    Micro,
    /// All 25 kernels at medium sizes under BASE and RCVG_4_64.
    Suite,
    /// All 25 kernels at test sizes under BASE and RCVG_4_64: the cells
    /// the `fig4` server serves, plus their BASE twins.
    SuiteTest,
}

impl GridKind {
    fn engines(self) -> Vec<EngineSpec> {
        match self {
            GridKind::Micro => {
                let mut v = vec![EngineSpec::Baseline];
                v.extend([1, 2, 4].map(|streams| EngineSpec::Mssr { streams, log_entries: 64 }));
                v.extend([1, 2, 4].map(|ways| EngineSpec::Ri { sets: 64, ways }));
                v
            }
            GridKind::Suite | GridKind::SuiteTest => {
                vec![EngineSpec::Baseline, EngineSpec::Mssr { streams: 4, log_entries: 64 }]
            }
        }
    }

    fn scale(self) -> Scale {
        match self {
            GridKind::Micro | GridKind::Suite => Scale::Medium,
            GridKind::SuiteTest => Scale::Test,
        }
    }

    /// Whether a kernel of this grid has inputs drawn from the benchmark
    /// seed: the GAP graphs of `Suite`. Every other kernel has fixed
    /// inputs.
    pub fn seeded_inputs(self, w: &Workload) -> bool {
        self == GridKind::Suite && w.suite() == Suite::Gap
    }

    /// SimPoint interval length and cluster bound: `--simpoint 10000,10`
    /// at medium size, `2000,10` at test size. (On the test-size cells,
    /// `2000,3` reconstructs mcf 200% off, and `10000,10` simulates more
    /// instructions in detail, warm-up included, than the whole program.)
    pub fn simpoint(self) -> (u64, usize) {
        match self.scale() {
            Scale::Test => (2_000, 10),
            _ => (10_000, 10),
        }
    }
}

/// Builds the workload's kernels and declares its cells. The GAP graphs
/// of `Suite` come from `seed`; every other kernel has fixed inputs (at
/// test size, the suite's default graphs).
pub fn setup(kind: GridKind, seed: u64, tr: &Tracer, parent: Option<SpanId>) -> CellPool {
    let mut ws: Vec<Workload> = Vec::new();
    let suites: &[Suite] = match kind {
        GridKind::Micro => &[Suite::Micro],
        GridKind::Suite => &[Suite::Micro, Suite::Spec2006, Suite::Spec2017],
        GridKind::SuiteTest => &[Suite::Micro, Suite::Spec2006, Suite::Spec2017, Suite::Gap],
    };
    for (k, &s) in suites.iter().enumerate() {
        tr.span("workloads.build", k as u64, parent, |_| {
            ws.extend(suite_workloads(s, kind.scale()));
        });
    }
    if kind == GridKind::Suite {
        ws.extend(gap_workloads(seed, tr, parent));
    }
    tr.span("harness.pool", 0, parent, |_| {
        let mut pool = CellPool::new(kind.scale());
        for w in ws {
            let wid = pool.intern(w);
            for e in kind.engines() {
                pool.cell(wid, e.into(), experiment_sim_config());
            }
        }
        pool
    })
}

/// The six GAP kernels at the suite's medium sizes (1024 vertices of
/// degree 8; tc on 256), over graphs drawn from `seed`.
fn gap_workloads(seed: u64, tr: &Tracer, parent: Option<SpanId>) -> Vec<Workload> {
    let g = tr.span("workloads.graph", 0, parent, |_| Graph::uniform(1024, 8, seed));
    let t = tr.span("workloads.graph", 1, parent, |_| Graph::uniform(256, 8, seed));
    let on_g: [fn(&Graph) -> Workload; 5] = [gap::bfs, gap::bc, gap::cc, gap::pr, gap::sssp];
    let kernels =
        on_g.iter().map(|build| (&g, build)).chain([(&t, &(gap::tc as fn(&Graph) -> Workload))]);
    kernels
        .enumerate()
        .map(|(k, (graph, build))| {
            tr.span("workloads.build", 10 + k as u64, parent, |_| build(graph))
        })
        .collect()
}

/// One cell's outcome in a full-detailed pass.
#[derive(Clone, Debug, Default)]
pub struct CellOut {
    /// Final statistics (`None` when the cell panicked).
    pub stats: Option<SimStats>,
    /// Why the cell failed, if it did.
    pub error: Option<String>,
    /// Stage profile (traced run only).
    pub prof: ProfReport,
    /// Engine hook tally (traced run only).
    pub hooks: HookTally,
}

/// A full-detailed pass.
pub struct FullPass {
    /// Per-cell outcomes, in cell order.
    pub cells: Vec<CellOut>,
    /// Wall time of the grid call.
    pub wall_s: f64,
}

/// The engine for cell `spec`, wrapped for hook tracing when `traced`
/// (BASE cells get a wrapped `NoReuse`, which is what `instantiate` uses).
fn cell_engine(
    pool: &CellPool,
    i: CellId,
    traced: bool,
) -> (Option<Box<dyn ReuseEngine>>, Option<Tally>) {
    let engine = pool.cell_spec(i).engine.build();
    if !traced {
        return (engine, None);
    }
    let t = Traced::new(engine.unwrap_or_else(|| Box::new(NoReuse)));
    let tally = t.tally();
    (Some(Box::new(t)), Some(tally))
}

fn instantiate(
    w: &Workload,
    pool: &CellPool,
    i: CellId,
    e: Option<Box<dyn ReuseEngine>>,
) -> Simulator {
    let cfg = pool.cell_spec(i).cfg.clone();
    match e {
        Some(e) => w.instantiate_with(cfg, e),
        None => w.instantiate(cfg),
    }
}

/// Runs every cell to completion on `jobs` grid workers, checking each
/// against its reference results and the simulator's invariants.
pub fn full_pass(pool: &CellPool, jobs: usize, tr: &Tracer, parent: Option<SpanId>) -> FullPass {
    let t0 = Instant::now();
    let cells = tr.span("harness.grid.full", 0, parent, |p| {
        run_cells(pool.len(), jobs, |i| {
            tr.span("harness.cell", i as u64, p, |q| full_cell(pool, i, tr, q))
        })
    });
    FullPass { cells, wall_s: t0.elapsed().as_secs_f64() }
}

fn full_cell(pool: &CellPool, i: CellId, tr: &Tracer, p: Option<SpanId>) -> CellOut {
    let g = i as u64;
    let w = pool.cell_workload(i);
    let run = catch_unwind(AssertUnwindSafe(|| {
        let (engine, tally) = cell_engine(pool, i, tr.enabled());
        let mut sim = tr.span("sim.instantiate", g, p, |_| instantiate(w, pool, i, engine));
        if tr.enabled() {
            sim.set_profiling(PROF_DEFAULT_STRIDE);
        }
        let stats = tr.span("sim.run", g, p, |_| sim.run());
        let verdict = tr.span("workloads.verify", g, p, |_| {
            if sim.is_halted() {
                w.verify(&sim)
            } else {
                Err("did not halt".to_string())
            }
        });
        let violations = tr.span("sim.invariants", g, p, |_| sim.invariant_violations());
        let error = match (verdict, violations.first()) {
            (Err(e), _) => Some(e),
            (Ok(()), Some(v)) => {
                Some(format!("{} invariant violation(s), first: {v}", violations.len()))
            }
            (Ok(()), None) => None,
        };
        let hooks = tally.map(|t| *t.borrow()).unwrap_or_default();
        CellOut { stats: Some(stats), error, prof: sim.profile_report(), hooks }
    }));
    run.unwrap_or_else(|payload| CellOut {
        error: Some(format!("panicked: {}", panic_text(payload.as_ref()))),
        ..CellOut::default()
    })
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// One cell of the SimPoint pass.
#[derive(Clone, Debug, Default)]
pub struct SpCell {
    /// Instructions of the whole program (the functional pass).
    pub total_insts: u64,
    /// Representatives in interval order.
    pub reps: Vec<SimpointRep>,
    /// Why the cell failed, if it did.
    pub error: Option<String>,
    /// Instructions fast-forwarded to reach the representatives.
    pub ffwd_insts: u64,
    /// Engine hook tally of the detailed regions (traced run only).
    pub hooks: HookTally,
}

impl SpCell {
    /// Whole-program IPC reconstructed from the weighted representatives
    /// (the formula of `mssr-report`, in floating point).
    pub fn recon_ipc(&self) -> f64 {
        let cycles: f64 = self
            .reps
            .iter()
            .filter(|r| r.insts > 0)
            .map(|r| r.weight_insts as f64 * r.cycles as f64 / r.insts as f64)
            .sum();
        if cycles > 0.0 {
            self.total_insts as f64 / cycles
        } else {
            0.0
        }
    }
}

/// A SimPoint pass.
pub struct SpPass {
    /// Per-cell results, in cell order.
    pub cells: Vec<SpCell>,
    /// Wall time of the grid call.
    pub wall_s: f64,
    /// Instructions the BBV-collecting functional passes executed.
    pub collect_insts: u64,
}

fn harness_opts(kind: GridKind, jobs: usize) -> HarnessOpts {
    let mut opts = HarnessOpts::new(kind.scale());
    opts.jobs = jobs;
    opts.root_seed = SIMPOINT_ROOT_SEED;
    opts.json = true;
    opts.simpoint = Some(kind.simpoint());
    opts
}

/// The SimPoint pass: the harness's `--simpoint` grid call, or with
/// tracing on, its step-by-step mirror.
pub fn simpoint_pass(
    kind: GridKind,
    pool: &CellPool,
    jobs: usize,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> SpPass {
    if tr.enabled() {
        return simpoint_mirror(kind, pool, jobs, tr, parent);
    }
    let opts = harness_opts(kind, jobs);
    let t0 = Instant::now();
    let results = catch_unwind(AssertUnwindSafe(|| pool.run(&opts)));
    let wall_s = t0.elapsed().as_secs_f64();
    let cells = match results {
        Ok(rs) => rs
            .into_iter()
            .map(|r| match r.simpoint {
                Some(sp) => {
                    SpCell { total_insts: sp.total_insts, reps: sp.reps, ..SpCell::default() }
                }
                None => SpCell { error: Some("no simpoint record".into()), ..SpCell::default() },
            })
            .collect(),
        Err(payload) => {
            let e = format!("simpoint grid panicked: {}", panic_text(payload.as_ref()));
            (0..pool.len())
                .map(|_| SpCell { error: Some(e.clone()), ..SpCell::default() })
                .collect()
        }
    };
    SpPass { cells, wall_s, collect_insts: 0 }
}

fn simpoint_mirror(
    kind: GridKind,
    pool: &CellPool,
    jobs: usize,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> SpPass {
    let (interval, max_k) = kind.simpoint();
    let n_workloads = (0..pool.len()).map(|i| pool.cell_spec(i).workload + 1).max().unwrap_or(0);
    let t0 = Instant::now();
    let (cells, collect_insts) = tr.span("harness.grid.simpoint", 0, parent, |p| {
        let plans = run_cells(n_workloads, jobs, |wi| {
            tr.span("harness.bbv_pass", wi as u64, p, |q| {
                let g = wi as u64;
                let cell = (0..pool.len()).find(|&i| pool.cell_spec(i).workload == wi)?;
                let cfg = pool.cell_spec(cell).cfg.clone();
                let mut sim = tr
                    .span("sim.instantiate", g, q, |_| pool.workload(wi).instantiate(cfg.clone()));
                let mut bbv = BbvCollector::new(interval);
                let executed = tr.span("sim.ffwd_collect", g, q, |_| {
                    sim.fast_forward_collect(cfg.max_insts, &mut bbv)
                });
                let trace = bbv.finish(executed);
                let salt = SIMPOINT_ROOT_SEED ^ splitmix64(SIMPOINT_SEED_SALT);
                let plan = tr.span("simpoint.plan", g, q, |_| {
                    simpoint::plan(&trace, max_k, cell_seed(salt, g))
                });
                Some((plan, executed))
            })
        });
        let collect_insts = plans.iter().flatten().map(|(_, n)| n).sum::<u64>();
        let cells = run_cells(pool.len(), jobs, |i| {
            tr.span("harness.cell", i as u64, p, |q| match &plans[pool.cell_spec(i).workload] {
                Some((plan, _)) => catch_unwind(AssertUnwindSafe(|| sp_cell(pool, i, plan, tr, q)))
                    .unwrap_or_else(|payload| SpCell {
                        error: Some(format!("panicked: {}", panic_text(payload.as_ref()))),
                        ..SpCell::default()
                    }),
                None => SpCell { error: Some("no plan".into()), ..SpCell::default() },
            })
        });
        (cells, collect_insts)
    });
    SpPass { cells, wall_s: t0.elapsed().as_secs_f64(), collect_insts }
}

fn sp_cell(
    pool: &CellPool,
    i: CellId,
    plan: &simpoint::SimpointPlan,
    tr: &Tracer,
    p: Option<SpanId>,
) -> SpCell {
    let g = i as u64;
    let w = pool.cell_workload(i);
    let mut out = SpCell { total_insts: plan.total_insts, ..SpCell::default() };
    for rep in &plan.reps {
        let (engine, tally) = cell_engine(pool, i, true);
        let mut sim = tr.span("sim.instantiate", g, p, |_| instantiate(w, pool, i, engine));
        let warm = (plan.interval / SIMPOINT_WARMUP_DIV).min(rep.start_inst);
        let ffwd = rep.start_inst - warm;
        if ffwd > 0 {
            out.ffwd_insts += tr.span("sim.ffwd", g, p, |_| sim.fast_forward(ffwd));
        }
        if warm > 0 {
            tr.span("sim.run_warmup", g, p, |_| sim.run_until_insts(warm));
        }
        let ws = sim.stats();
        tr.span("sim.run_interval", g, p, |_| {
            sim.run_until_insts(ws.committed_instructions + rep.insts)
        });
        let st = sim.stats();
        let mut account = st.account;
        for (a, b) in account.slots.iter_mut().zip(ws.account.slots) {
            *a = a.saturating_sub(b);
        }
        account.credit_reuse_cycles =
            account.credit_reuse_cycles.saturating_sub(ws.account.credit_reuse_cycles);
        account.credit_recon_fetches =
            account.credit_recon_fetches.saturating_sub(ws.account.credit_recon_fetches);
        out.reps.push(SimpointRep {
            index: rep.index,
            start_inst: rep.start_inst,
            planned_insts: rep.insts,
            weight_insts: rep.weight_insts,
            spread_milli: rep.spread_milli,
            warmup_insts: ws.committed_instructions,
            cycles: st.cycles.saturating_sub(ws.cycles),
            insts: st.committed_instructions.saturating_sub(ws.committed_instructions),
            account,
        });
        if let Some(t) = tally {
            out.hooks.add(&t.borrow());
        }
    }
    out
}

/// Renders one record line per cell (the full pass's stats JSON, then
/// each SimPoint representative) and folds them into a digest. The
/// lines are compared across iterations and runs; the digest is what a
/// later commit must reproduce for the same seed.
pub fn records(full: &FullPass, sp: Option<&SpPass>) -> Vec<String> {
    let mut lines: Vec<String> = full
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| match &c.stats {
            Some(s) => format!("full {i} {}", s.to_json()),
            None => format!("full {i} failed"),
        })
        .collect();
    for (i, c) in sp.map(|s| s.cells.as_slice()).unwrap_or_default().iter().enumerate() {
        let mut line = format!("simpoint {i} total={}", c.total_insts);
        for r in &c.reps {
            line.push_str(&format!(
                " [{} {} {} {} {} {} {} {} {}]",
                r.index,
                r.start_inst,
                r.planned_insts,
                r.weight_insts,
                r.spread_milli,
                r.warmup_insts,
                r.cycles,
                r.insts,
                r.account.to_json()
            ));
        }
        lines.push(line);
    }
    lines
}

/// FNV-1a digest over record lines.
pub fn digest(lines: &[String]) -> u64 {
    fnv1a64(lines.join("\n").as_bytes())
}

/// `mssr_gain_pct`: geomean over kernels of BASE cycles / RCVG_4_64
/// cycles, minus one, in percent.
pub fn mssr_gain_pct(pool: &CellPool, full: &FullPass) -> f64 {
    let mssr4 = EngineSpec::Mssr { streams: 4, log_entries: 64 }.label();
    let cycles = |w: usize, label: &str| {
        (0..pool.len())
            .find(|&i| pool.cell_spec(i).workload == w && pool.cell_spec(i).engine.label() == label)
            .and_then(|i| full.cells[i].stats.as_ref())
            .map(|s| s.cycles as f64)
    };
    let n_workloads = (0..pool.len()).map(|i| pool.cell_spec(i).workload + 1).max().unwrap_or(0);
    let ratios: Vec<f64> =
        (0..n_workloads).filter_map(|w| Some(cycles(w, "BASE")? / cycles(w, &mssr4)?)).collect();
    if ratios.is_empty() {
        return 0.0;
    }
    100.0 * (crate::stat::geomean(&ratios) - 1.0)
}

/// The largest relative error of a reconstructed IPC against the same
/// cell's full-detailed IPC, in percent, over the cells `pick` selects,
/// with the cell it occurs on.
pub fn simpoint_err_pct(
    pool: &CellPool,
    full: &FullPass,
    sp: &SpPass,
    pick: impl Fn(&Workload) -> bool,
) -> (f64, Option<CellId>) {
    full.cells
        .iter()
        .zip(&sp.cells)
        .enumerate()
        .filter(|(i, _)| pick(pool.cell_workload(*i)))
        .filter_map(|(i, (f, s))| {
            let ipc = f.stats.as_ref()?.ipc();
            (ipc > 0.0 && s.error.is_none())
                .then(|| (100.0 * (s.recon_ipc() - ipc).abs() / ipc, Some(i)))
        })
        .fold((0.0, None), |a, b| if b.0 > a.0 { b } else { a })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssr_workloads::microbench;

    fn small_pool() -> CellPool {
        let mut pool = CellPool::new(Scale::Test);
        for w in [microbench::nested_mispred(60), microbench::linear_mispred(60)] {
            let wid = pool.intern(w);
            for e in GridKind::Micro.engines() {
                pool.cell(wid, e.into(), experiment_sim_config());
            }
        }
        pool
    }

    fn fingerprint(ws: &[Workload]) -> Vec<(String, u64)> {
        ws.iter()
            .map(|w| {
                (w.name().to_string(), fnv1a64(format!("{:?}{:?}", w.mem(), w.checks()).as_bytes()))
            })
            .collect()
    }

    #[test]
    fn the_seed_drives_the_gap_inputs_and_nothing_else() {
        let off = Tracer::off();
        let a = fingerprint(&gap_workloads(5, &off, None));
        assert_eq!(a, fingerprint(&gap_workloads(5, &off, None)), "same seed, same inputs");
        let b = fingerprint(&gap_workloads(6, &off, None));
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.0 == y.0 && x.1 != y.1),
            "another seed, other graphs"
        );
        let default = fingerprint(&suite_workloads(Suite::Gap, Scale::Medium));
        assert_eq!(
            fingerprint(&gap_workloads(12, &off, None)),
            default,
            "seed 12 is the suite's own graph"
        );
        let micro = |seed| {
            let s = setup(GridKind::Micro, seed, &off, None);
            (0..s.len()).map(|i| s.cell_workload(i).name().to_string()).collect::<Vec<_>>()
        };
        assert_eq!(micro(1), micro(2), "Listing-1 inputs are fixed");
    }

    #[test]
    fn tracing_wraps_engines_without_moving_a_single_counter() {
        let s = small_pool();
        let plain = full_pass(&s, 2, &Tracer::off(), None);
        let tr = Tracer::on();
        let traced = full_pass(&s, 2, &tr, None);
        assert!(plain.cells.iter().chain(&traced.cells).all(|c| c.error.is_none()));
        assert_eq!(records(&plain, None), records(&traced, None));
        assert_eq!(digest(&records(&plain, None)), digest(&records(&traced, None)));
        let mssr = (0..s.len()).find(|&i| s.cell_spec(i).engine.label() == "RCVG_4_64").unwrap();
        let h = traced.cells[mssr].hooks;
        assert!(h.calls.iter().all(|&n| n > 0) || h.calls[2] > 0, "hooks were counted: {h:?}");
        assert!(traced.cells[mssr].prof.sampled_cycles > 0, "the stage profiler ran");
        assert_eq!(plain.cells[mssr].hooks, HookTally::default(), "untraced cells are not wrapped");
        let names: Vec<&str> = tr.into_spans().iter().map(|s| s.name).collect();
        for n in [
            "harness.grid.full",
            "harness.cell",
            "sim.instantiate",
            "sim.run",
            "workloads.verify",
            "sim.invariants",
        ] {
            assert!(names.contains(&n), "span {n} recorded");
        }
    }

    #[test]
    fn the_traced_simpoint_mirror_matches_the_harness_grid_call() {
        let mut pool = CellPool::new(Scale::Test);
        let wid = pool.intern(microbench::nested_mispred(800));
        for e in GridKind::Suite.engines() {
            pool.cell(wid, e.into(), experiment_sim_config());
        }
        let s = pool;
        let plain = simpoint_pass(GridKind::Suite, &s, 2, &Tracer::off(), None);
        let traced = simpoint_pass(GridKind::Suite, &s, 2, &Tracer::on(), None);
        assert!(plain.cells.iter().chain(&traced.cells).all(|c| c.error.is_none()));
        assert!(plain.cells.iter().all(|c| c.reps.len() > 1), "several representatives");
        let full = full_pass(&s, 2, &Tracer::off(), None);
        assert_eq!(records(&full, Some(&plain)), records(&full, Some(&traced)));
    }
}
