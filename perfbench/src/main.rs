//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload micro-reuse|suite|serve-closed --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one seeded workload, checks every output, and prints one JSON
//! line last on stdout: `{"correct","attempted","failed","metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, from a
//! traced run made after one untraced run of the same work (their
//! difference is the tracing overhead). A readable report goes to
//! stderr. See `README.md` beside this crate for what each workload and
//! metric is for.

mod grid;
mod hooks;
mod serve;
mod span;
mod stat;

use std::collections::BTreeMap;
use std::time::Instant;

use mssr_sim::{ProfBucket, ProfReport, SimStats};

use grid::{GridKind, SpPass};
use hooks::{HookTally, HOOKS};
use span::{Span, SpanId, Tracer};

/// A batch of set-ups is at least `SETUP_MIN_REPS` of them, repeated
/// until `min_s` has passed (at most `SETUP_MAX_REPS`); `setup_s` is the
/// median grid set-up plus the median server start-up. The grid sets up
/// anew in a `GRID_SETUP_S` batch before each iteration, so the samples
/// spread over the run: the host's speed drifts over seconds, and a
/// burst of set-ups at the start sees one moment of it. The server is
/// started in one `SERVE_SETUP_S` batch before its rounds. Every result
/// but the last of a batch is dropped untimed; the memory they leave
/// behind does not move `peak_rss_mb` measurably.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 200;
const GRID_SETUP_S: f64 = 0.3;
const SERVE_SETUP_S: f64 = 1.0;

/// Runs one batch of set-ups, appending each one's wall time to
/// `times`; every result but the last goes to `retire`, untimed.
fn setup_batch<T, E>(
    times: &mut Vec<f64>,
    min_s: f64,
    mut f: impl FnMut() -> Result<T, E>,
    mut retire: impl FnMut(T),
) -> Result<T, E> {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let last = f()?;
        times.push(t.elapsed().as_secs_f64());
        reps += 1;
        let enough = reps >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= min_s;
        if enough || reps >= SETUP_MAX_REPS {
            return Ok(last);
        }
        retire(last);
    }
}

const USAGE: &str =
    "usage: perfbench --workload micro-reuse|suite|serve-closed --seed N --seconds S --trace 0|1";

/// Repetitions that fill about `seconds` at `nominal_s` each (at least 1).
fn reps(seconds: u64, nominal_s: f64) -> u64 {
    (seconds as f64 / nominal_s).ceil().max(1.0) as u64
}

/// A workload. Every workload runs the same two phases, so that every
/// end-to-end metric is measured on each: a serve phase (a server over a
/// test-scale experiment, closed-loop rounds) and a grid phase (set-up,
/// full-detailed pass and SimPoint pass, iterated). Workloads differ in
/// the cells of each phase and in how much of each a run makes.
///
/// The work of a run is fixed by `--seconds` through nominal durations
/// measured on a 2-core 2.1 GHz host, not by the speed of the code.
struct Workload {
    name: &'static str,
    grid: GridKind,
    /// Nominal wall time of one grid iteration; a run makes `--seconds`
    /// ÷ this many.
    iter_s: f64,
    /// The experiment whose test-scale cells the server serves.
    serve: &'static str,
    /// Nominal wall time of one serve round, when a run makes `--seconds`
    /// ÷ this many; `None` makes only the fewest rounds that support a
    /// miss p90.
    round_s: Option<f64>,
}

impl Workload {
    fn iterations(&self, seconds: u64) -> u64 {
        reps(seconds, self.iter_s)
    }

    fn rounds(&self, seconds: u64, cells: usize) -> u64 {
        serve::min_rounds(cells).max(self.round_s.map_or(0, |r| reps(seconds, r)))
    }
}

/// The workloads, by their fixed names.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "micro-reuse",
        grid: GridKind::Micro,
        iter_s: 4.0,
        serve: "table1",
        round_s: None,
    },
    Workload { name: "suite", grid: GridKind::Suite, iter_s: 24.0, serve: "fig4", round_s: None },
    Workload {
        name: "serve-closed",
        grid: GridKind::SuiteTest,
        iter_s: 4.0,
        serve: "fig4",
        round_s: Some(4.0),
    },
];

fn find_workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Engine labels the per-engine hook shares are reported for.
const ENGINE_LABELS: [&str; 7] =
    ["BASE", "RCVG_1_64", "RCVG_2_64", "RCVG_4_64", "RI_64x1", "RI_64x2", "RI_64x4"];

/// Pipeline stages of the simulator's profiler, in report order.
const STAGES: [ProfBucket; 6] = [
    ProfBucket::Fetch,
    ProfBucket::Rename,
    ProfBucket::Issue,
    ProfBucket::Execute,
    ProfBucket::Commit,
    ProfBucket::Squash,
];

#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    find_workload(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?
                        .name,
                );
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
#[derive(Clone, Debug)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: &'static str,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.to_string(), unit, value, note: "" }
}

/// What a workload run hands back for printing.
struct RunResult {
    out: Outcomes,
    metrics: Vec<Metric>,
    /// Digests of the simulated statistics, per phase.
    digests: [(&'static str, u64); 2],
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} jobs {jobs} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let w = find_workload(args.workload).expect("parsed workload");
    let run = if args.trace { run_traced(w, &args, jobs) } else { run_untraced(w, &args, jobs) };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let declared: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let printed: Vec<(String, &str)> =
        run.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
    assert_eq!(printed, declared, "a run prints exactly the declared metrics");
    let digests: Vec<String> = run.digests.iter().map(|(p, d)| format!("{p} {d:#018x}")).collect();
    eprintln!("digest {} seed {}: {}", args.workload, args.seed, digests.join(" "));
    let out = &run.out;
    eprintln!(
        "failed_frac {:.6} ({} of {} attempted){}",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        out.first_failure.as_deref().map(|f| format!("; first: {f}")).unwrap_or_default()
    );
    for m in &run.metrics {
        eprintln!("  {:<32} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    println!("{}", result_json(out.failed == 0, out.attempted, out.failed, &run.metrics));
    if out.failed > 0 {
        std::process::exit(1);
    }
}

/// `workload/engine` of a cell, for reports.
fn cell_name(pool: &mssr_bench::harness::CellPool, cell: Option<usize>) -> String {
    cell.map_or("-".into(), |i| {
        format!("{}/{}", pool.cell_workload(i).name(), pool.cell_spec(i).engine.label())
    })
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Peak resident memory of this process image, in MiB: the kernel's
/// `VmHWM`. (`getrusage` would also count the peak of the process that
/// exec'd this one — `cargo run` itself.) 0 where `/proc` is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Attempts and failures of a run, with the first failure's reason.
#[derive(Default)]
struct Outcomes {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Outcomes {
    fn add(&mut self, attempted: u64, failed: u64, why: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if self.first_failure.is_none() {
            self.first_failure = why;
        }
    }

    fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        self.first_failure.get_or_insert_with(why);
    }
}

/// Failures of one grid iteration: cells that failed, plus cells whose
/// record differs from the first iteration's (non-determinism).
fn grid_failures(
    out: &mut Outcomes,
    full: &grid::FullPass,
    sp: &SpPass,
    lines: &[String],
    first: Option<&Vec<String>>,
) {
    let mut errors: Vec<String> = full.cells.iter().filter_map(|c| c.error.clone()).collect();
    errors.extend(sp.cells.iter().filter_map(|c| c.error.clone()));
    if let Some(first) = first {
        let drift = lines.iter().zip(first).filter(|(a, b)| a != b).count();
        if drift > 0 {
            errors.push(format!("{drift} record(s) differ between iterations"));
        }
    }
    let attempted = (full.cells.len() + sp.cells.len()) as u64;
    out.add(attempted, errors.len() as u64, errors.into_iter().next());
}

/// Failures of a serve session: failed requests, then (outside every
/// timed region) served records that differ from a batch run.
fn serve_failures(out: &mut Outcomes, w: &Workload, seed: u64, jobs: usize, body: &serve::Body) {
    let errs: Vec<&String> = body.outcomes.iter().filter_map(|o| o.error.as_ref()).collect();
    out.add(body.outcomes.len() as u64, errs.len() as u64, errs.first().map(|e| e.to_string()));
    let (bad, why) =
        serve::batch_check(w.serve, seed, body.rounds, jobs, &body.outcomes, &Tracer::off(), None);
    out.add(0, bad, why);
}

/// Committed detailed instructions of a full pass per second of its
/// grid call, in millions.
fn pass_mips(full: &grid::FullPass) -> f64 {
    let insts: u64 =
        full.cells.iter().filter_map(|c| c.stats.as_ref()).map(|s| s.committed_instructions).sum();
    insts as f64 / full.wall_s / 1e6
}

fn run_untraced(w: &Workload, args: &Args, jobs: usize) -> Result<RunResult, String> {
    let off = Tracer::off();
    let mut out = Outcomes::default();

    // Serve phase. Set-up is server start-up; every server of the batch
    // but the last is shut down untimed before the next starts.
    let mut serve_setup = Vec::new();
    let server = setup_batch(
        &mut serve_setup,
        SERVE_SETUP_S,
        || serve::start(w.serve, args.seed, jobs),
        mssr_bench::harness::serve::Server::shutdown,
    )?;
    let rounds = w.rounds(args.seconds, server.cells());
    let body = serve::body(&server, args.seed, rounds, &off, None);
    server.shutdown();
    let body = body?;
    eprintln!("serve {}: {} rounds in {:.3} s", w.serve, body.rounds, body.wall_s);

    // Grid phase: set-up, full pass and SimPoint pass, iterated.
    let mut grid_setup = Vec::new();
    let (mut mips, mut sp_s) = (Vec::new(), Vec::new());
    let mut first_lines: Option<Vec<String>> = None;
    let (mut err, mut gain, mut rss) = (0.0, 0.0, None);
    for _ in 0..w.iterations(args.seconds) {
        let pool = setup_batch(
            &mut grid_setup,
            GRID_SETUP_S,
            || Ok::<_, String>(grid::setup(w.grid, args.seed, &off, None)),
            drop,
        )?;
        let full = grid::full_pass(&pool, jobs, &off, None);
        let sp = grid::simpoint_pass(w.grid, &pool, jobs, &off, None);
        let lines = grid::records(&full, Some(&sp));
        grid_failures(&mut out, &full, &sp, &lines, first_lines.as_ref());
        mips.push(pass_mips(&full));
        sp_s.push(sp.wall_s);
        gain = grid::mssr_gain_pct(&pool, &full);
        let fixed = grid::simpoint_err_pct(&pool, &full, &sp, |x| !w.grid.seeded_inputs(x));
        err = fixed.0;
        if first_lines.is_none() {
            eprintln!(
                "simpoint_err_pct: fixed-input cells {:.3}% (worst {})",
                fixed.0,
                cell_name(&pool, fixed.1)
            );
            let held_out = grid::simpoint_err_pct(&pool, &full, &sp, |x| w.grid.seeded_inputs(x));
            if held_out.1.is_some() {
                eprintln!(
                    "simpoint.heldout_err_pct: GAP cells on this seed's graphs {:.3}% (worst {})",
                    held_out.0,
                    cell_name(&pool, held_out.1)
                );
            }
        }
        first_lines.get_or_insert(lines);
        // The serve phase and one set-up and pass are what a single
        // invocation holds; later iterations only repeat the pass (and
        // fragment the heap).
        rss.get_or_insert_with(peak_rss_mb);
    }
    eprintln!("iterations {}: sim_mips {:?}", mips.len(), mips);
    eprintln!("simpoint_s {sp_s:?}");
    eprintln!(
        "set-up: grid {} times, median {:.6} s; server {} times, median {:.6} s",
        grid_setup.len(),
        stat::median(&grid_setup),
        serve_setup.len(),
        stat::median(&serve_setup)
    );

    serve_failures(&mut out, w, args.seed, jobs, &body);
    let mut metrics = vec![
        metric("setup_s", "s", stat::median(&grid_setup) + stat::median(&serve_setup)),
        metric("sim_mips", "Minst/s", stat::median(&mips)),
        metric("simpoint_s", "s", stat::median(&sp_s)),
        metric("simpoint_err_pct", "%", err),
        Metric { note: "model unvalidated against gem5", ..metric("mssr_gain_pct", "%", gain) },
    ];
    let ok = body.outcomes.iter().filter(|o| o.error.is_none()).count();
    metrics.push(metric("req_per_s", "1/s", ok as f64 / body.wall_s));
    let pct = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { stat::percentile(v, p) };
    for class in serve::Class::ALL {
        let lat = serve::latencies_ms(&body.outcomes, class);
        eprintln!(
            "{:<6} requests {:>5}  p50 {:>9.3} ms  highest supported tail {}",
            class.name(),
            lat.len(),
            pct(&lat, 50.0),
            stat::highest_supported(&lat).map_or("none".into(), |(p, v)| format!("p{p} {v:.3} ms"))
        );
        match class {
            serve::Class::Miss => {
                if stat::beyond(lat.len(), 90.0) < stat::MIN_BEYOND {
                    out.fail(|| format!("only {} misses: p90 unsupported", lat.len()));
                }
                metrics.push(metric("miss_p50_ms", "ms", pct(&lat, 50.0)));
                metrics.push(metric("miss_p90_ms", "ms", pct(&lat, 90.0)));
            }
            serve::Class::Warm => metrics.push(metric("warm_p50_ms", "ms", pct(&lat, 50.0))),
            serve::Class::Hit | serve::Class::Stream => {}
        }
    }
    metrics.push(metric("peak_rss_mb", "MB", rss.unwrap_or_default()));
    let digests = [
        ("grid", grid::digest(first_lines.as_deref().unwrap_or_default())),
        ("serve", serve::digest(&body.outcomes)),
    ];
    Ok(RunResult { out, metrics, digests })
}

/// End-to-end metric names and units, in report order: every workload
/// prints all of them. `BENCHMARK.json` lists the same names.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("sim_mips", "Minst/s"),
    ("simpoint_s", "s"),
    ("simpoint_err_pct", "%"),
    ("mssr_gain_pct", "%"),
    ("req_per_s", "1/s"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metric names and units, in report order. `BENCHMARK.json`
/// lists the same names; the self-tests hold the two together.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("workloads.build_s".into(), "s"),
        ("sim.instantiate_ms".into(), "ms"),
        ("sim.run_s".into(), "s"),
        ("sim.ns_per_cycle".into(), "ns"),
        ("sim.ns_per_inst".into(), "ns"),
    ];
    v.extend(STAGES.iter().map(|b| (format!("sim.stage_share.{}", b.name()), "ratio")));
    v.extend([
        ("sim.prof_coverage".into(), "ratio"),
        ("sim.cycles".into(), "count"),
        ("sim.insts".into(), "count"),
        ("sim.squash_waste".into(), "ratio"),
        ("sim.ffwd_mips".into(), "Minst/s"),
    ]);
    v.extend(HOOKS.iter().map(|h| (format!("core.hook_calls.{h}"), "count")));
    v.extend(HOOKS.iter().map(|h| (format!("core.hook_ns.{h}"), "ns")));
    v.extend(ENGINE_LABELS.iter().map(|e| (format!("core.hook_share.{e}"), "ratio")));
    v.extend([
        ("core.grant_ratio".into(), "ratio"),
        ("ckpt.snapshot_ms".into(), "ms"),
        ("ckpt.restore_ms".into(), "ms"),
        ("ckpt.bytes".into(), "bytes"),
        ("simpoint.plan_ms".into(), "ms"),
        ("simpoint.detailed_frac".into(), "ratio"),
        ("simpoint.heldout_err_pct".into(), "%"),
        ("grid.cell_max_s".into(), "s"),
        ("grid.idle_frac".into(), "ratio"),
        ("grid.emit_ms".into(), "ms"),
        ("serve.hit_ratio".into(), "ratio"),
        ("serve.ckpt_mem_hits".into(), "count"),
        ("serve.busy".into(), "count"),
        ("serve.hit_p50_ms".into(), "ms"),
        ("serve.queue_wait_ms".into(), "ms"),
        ("self.workloads_s".into(), "s"),
        ("self.sim_s".into(), "s"),
        ("self.core_s".into(), "s"),
        ("self.harness_s".into(), "s"),
        ("self.serve_s".into(), "s"),
        ("trace.residual_s".into(), "s"),
        ("trace.overhead_s".into(), "s"),
    ]);
    v
}

/// The per-layer metric set of one traced run: every name present,
/// zero where the workload does not exercise the layer.
struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(per_layer_names().into_iter().map(|(n, _)| (n, 0.0)).collect())
    }

    fn set(&mut self, name: &str, v: f64) {
        let slot = self.0.get_mut(name).unwrap_or_else(|| panic!("undeclared layer metric {name}"));
        *slot = v + 0.0; // no negative zero in the report
    }

    fn metrics(&self) -> Vec<Metric> {
        per_layer_names().into_iter().map(|(n, unit)| metric(&n, unit, self.0[&n])).collect()
    }
}

/// Sum of span durations per name, in seconds.
fn span_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).sum::<f64>() / 1e9
}

/// Work counts and profiles of the detailed runs a traced run timed
/// under `sim.run` spans.
#[derive(Default)]
struct RunAcc {
    stats: Vec<SimStats>,
    prof: ProfReport,
    /// Hooks of the `sim.run` spans.
    hooks: HookTally,
    /// Hooks of every other detailed run (SimPoint representatives).
    other_hooks: HookTally,
    /// Per engine label: (hooks, `sim.run` ns).
    by_engine: BTreeMap<String, (HookTally, u64)>,
}

/// Fills the layers every traced workload shares: simulator run costs,
/// stage shares, hook tallies, per-layer self times, closure. Hook times
/// are net of the clock's cost of timing them.
fn common_layers(
    l: &mut Layers,
    spans: &[Span],
    acc: &RunAcc,
    traced_wall_s: f64,
    overhead_s: f64,
) {
    let floor = hooks::timer_floor_ns();
    eprintln!("hook timer floor {floor:.1} ns per call (subtracted from hook times)");
    let run_s = span_s(spans, "sim.run");
    let cycles: u64 = acc.stats.iter().map(|s| s.cycles).sum();
    let insts: u64 = acc.stats.iter().map(|s| s.committed_instructions).sum();
    l.set("workloads.build_s", span_s(spans, "workloads.build") + span_s(spans, "workloads.graph"));
    l.set("sim.instantiate_ms", span_s(spans, "sim.instantiate") * 1e3);
    l.set("sim.run_s", run_s);
    l.set("sim.ns_per_cycle", run_s * 1e9 / cycles.max(1) as f64);
    l.set("sim.ns_per_inst", run_s * 1e9 / insts.max(1) as f64);
    let stage_ns: Vec<u64> = STAGES.iter().map(|b| acc.prof.get(*b)).collect();
    let stage_total: u64 = stage_ns.iter().sum();
    for (b, ns) in STAGES.iter().zip(&stage_ns) {
        l.set(&format!("sim.stage_share.{}", b.name()), *ns as f64 / stage_total.max(1) as f64);
    }
    let est_ns = stage_total as f64 * acc.prof.stride.max(1) as f64;
    l.set("sim.prof_coverage", est_ns / (run_s * 1e9).max(1.0));
    l.set("sim.cycles", cycles as f64);
    l.set("sim.insts", insts as f64);
    let squashed: u64 = acc.stats.iter().map(|s| s.squashed_instructions).sum();
    let renamed: u64 = acc.stats.iter().map(|s| s.renamed_instructions).sum();
    l.set("sim.squash_waste", squashed as f64 / renamed.max(1) as f64);
    for (k, h) in HOOKS.iter().enumerate() {
        l.set(&format!("core.hook_calls.{h}"), acc.hooks.calls[k] as f64);
        l.set(&format!("core.hook_ns.{h}"), acc.hooks.net_ns(k, floor));
    }
    for (label, (hooks, run_ns)) in &acc.by_engine {
        if ENGINE_LABELS.contains(&label.as_str()) {
            l.set(
                &format!("core.hook_share.{label}"),
                hooks.net_total_ns(floor) / (*run_ns).max(1) as f64,
            );
        }
    }
    let tests: u64 = acc.stats.iter().map(|s| s.engine.reuse_tests).sum();
    let grants: u64 = acc.stats.iter().map(|s| s.engine.reuse_grants).sum();
    l.set("core.grant_ratio", grants as f64 / tests.max(1) as f64);
    let selfs = span::self_times(spans);
    let layer_self = |pred: &dyn Fn(&str) -> bool| {
        spans.iter().zip(&selfs).filter(|(s, _)| pred(s.name)).map(|(_, n)| *n as f64).sum::<f64>()
            / 1e9
    };
    let core_s = (acc.hooks.net_total_ns(floor) + acc.other_hooks.net_total_ns(floor)) / 1e9;
    l.set("self.workloads_s", layer_self(&|n| n.starts_with("workloads.")));
    l.set("self.sim_s", layer_self(&|n| n.starts_with("sim.") || n.starts_with("ckpt.")) - core_s);
    l.set("self.core_s", core_s);
    l.set(
        "self.harness_s",
        layer_self(&|n| n.starts_with("harness.") || n.starts_with("simpoint.")),
    );
    l.set("self.serve_s", layer_self(&|n| n.starts_with("serve.")));
    l.set("trace.residual_s", traced_wall_s - span::top_level_ns(spans) as f64 / 1e9);
    l.set("trace.overhead_s", overhead_s);
}

/// Prints the span table (count, total, self per name) and the closure
/// figures to stderr, and writes the spans out.
fn report_spans(args: &Args, spans: &[Span], l: &Layers, traced_wall_s: f64) {
    eprintln!("{:<26} {:>8} {:>12} {:>12}", "span", "count", "total_s", "self_s");
    for (name, (n, total, own)) in span::by_name(spans) {
        eprintln!("{name:<26} {n:>8} {:>12.6} {:>12.6}", total as f64 / 1e9, own as f64 / 1e9);
    }
    eprintln!(
        "closure {}: traced wall {traced_wall_s:.6} s, top-level spans {:.6} s, residual {:.6} s, \
         tracing overhead {:.6} s, sim.prof_coverage {:.4}",
        args.workload,
        span::top_level_ns(spans) as f64 / 1e9,
        l.0["trace.residual_s"],
        l.0["trace.overhead_s"],
        l.0["sim.prof_coverage"],
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match span::write_jsonl(&path, spans) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}

/// `sim.run` time per cell of the full-detailed grid call, by cell id:
/// the `sim.run` spans under that call's `harness.cell` spans (the serve
/// replay's runs carry request ids).
fn grid_run_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let grid = spans.iter().position(|s| s.name == "harness.grid.full");
    let in_grid_cell =
        |p: SpanId| spans[p].name == "harness.cell" && spans[p].parent == grid && grid.is_some();
    spans
        .iter()
        .filter(|s| s.name == "sim.run" && s.parent.is_some_and(in_grid_cell))
        .map(|s| (s.group, s.dur_ns()))
        .collect()
}

fn run_traced(w: &Workload, args: &Args, jobs: usize) -> Result<RunResult, String> {
    // The untraced reference: one serve session of the fewest rounds on
    // a fresh server, then one grid set-up and iteration.
    let off = Tracer::off();
    let t_u = Instant::now();
    let body_u = serve_once(w, args, jobs, &off)?;
    let pool_u = grid::setup(w.grid, args.seed, &off, None);
    let full_u = grid::full_pass(&pool_u, jobs, &off, None);
    let sp_u = grid::simpoint_pass(w.grid, &pool_u, jobs, &off, None);
    let lines_u = grid::records(&full_u, Some(&sp_u));
    let untraced_wall_s = t_u.elapsed().as_secs_f64();
    drop((pool_u, full_u, sp_u));

    let tr = Tracer::on();
    let t_t = Instant::now();
    let body = serve_once(w, args, jobs, &tr)?;
    let pool = tr.span("setup", 0, None, |p| grid::setup(w.grid, args.seed, &tr, p));
    let full = grid::full_pass(&pool, jobs, &tr, None);
    let sp = grid::simpoint_pass(w.grid, &pool, jobs, &tr, None);
    let lines = tr.span("harness.emit", 0, None, |_| grid::records(&full, Some(&sp)));
    let work_s = t_t.elapsed().as_secs_f64();
    let replay = tr.span("serve.replay", 0, None, |p| replay_misses(w.serve, &body, &tr, p));
    let traced_wall_s = t_t.elapsed().as_secs_f64();
    let spans = tr.into_spans();

    let mut out = Outcomes::default();
    grid_failures(&mut out, &full, &sp, &lines, None);
    if lines != lines_u {
        out.fail(|| "traced grid digest differs from the untraced run's".into());
    }
    serve_failures(&mut out, w, args.seed, jobs, &body);
    if serve::digest(&body.outcomes) != serve::digest(&body_u.outcomes) {
        out.fail(|| "traced serve digest differs from the untraced run's".into());
    }
    let replay = replay?;

    let mut acc =
        RunAcc { stats: replay.stats.clone(), prof: replay.prof.clone(), ..RunAcc::default() };
    let run_ns = grid_run_ns(&spans);
    for (i, c) in full.cells.iter().enumerate() {
        acc.stats.extend(c.stats.clone());
        acc.prof.merge(&c.prof);
        acc.hooks.add(&c.hooks);
        let e = acc.by_engine.entry(pool.cell_spec(i).engine.label()).or_default();
        e.0.add(&c.hooks);
        e.1 += run_ns.get(&(i as u64)).copied().unwrap_or(0);
    }
    for c in &sp.cells {
        acc.other_hooks.add(&c.hooks);
    }
    let mut l = Layers::new();
    // The miss replay is extra work of the traced run, not tracing
    // overhead.
    common_layers(&mut l, &spans, &acc, traced_wall_s, work_s - untraced_wall_s);
    grid_layers(&mut l, w.grid, &spans, &pool, &full, &sp, jobs);
    serve_layers(&mut l, &spans, &body, &replay);
    let ffwd_insts =
        replay.ffwd_insts + sp.collect_insts + sp.cells.iter().map(|c| c.ffwd_insts).sum::<u64>();
    let ffwd_s = span_s(&spans, "sim.ffwd") + span_s(&spans, "sim.ffwd_collect");
    l.set("sim.ffwd_mips", ffwd_insts as f64 / ffwd_s.max(1e-9) / 1e6);
    report_coverage_spread(&full, &run_ns);
    report_spans(args, &spans, &l, traced_wall_s);
    let digests = [("grid", grid::digest(&lines)), ("serve", serve::digest(&body.outcomes))];
    Ok(RunResult { out, metrics: l.metrics(), digests })
}

/// The harness layers of the traced grid phase: grid balance and the
/// SimPoint pass.
fn grid_layers(
    l: &mut Layers,
    kind: GridKind,
    spans: &[Span],
    pool: &mssr_bench::harness::CellPool,
    full: &grid::FullPass,
    sp: &SpPass,
    jobs: usize,
) {
    let grid_span = spans.iter().position(|s| s.name == "harness.grid.full").expect("grid span");
    let cells: Vec<&Span> =
        spans.iter().filter(|s| s.name == "harness.cell" && s.parent == Some(grid_span)).collect();
    let grid_ns = spans[grid_span].dur_ns() as f64;
    let busy_ns: f64 = cells.iter().map(|s| s.dur_ns() as f64).sum();
    l.set("grid.cell_max_s", cells.iter().map(|s| s.dur_ns()).max().unwrap_or(0) as f64 / 1e9);
    l.set("grid.idle_frac", 1.0 - busy_ns / (jobs as f64 * grid_ns).max(1.0));
    l.set("grid.emit_ms", span_s(spans, "harness.emit") * 1e3);
    l.set("simpoint.plan_ms", span_s(spans, "simpoint.plan") * 1e3);
    l.set(
        "simpoint.heldout_err_pct",
        grid::simpoint_err_pct(pool, full, sp, |x| kind.seeded_inputs(x)).0,
    );
    let detailed: u64 =
        sp.cells.iter().flat_map(|c| &c.reps).map(|r| r.insts + r.warmup_insts).sum();
    let total: u64 = sp.cells.iter().map(|c| c.total_insts).sum();
    l.set("simpoint.detailed_frac", detailed as f64 / total.max(1) as f64);
}

/// The checkpoint and serve layers of the traced serve phase and its
/// miss replay.
fn serve_layers(l: &mut Layers, spans: &[Span], body: &serve::Body, replay: &Replay) {
    l.set("ckpt.snapshot_ms", span_s(spans, "ckpt.snapshot") * 1e3);
    l.set("ckpt.restore_ms", span_s(spans, "ckpt.restore") * 1e3);
    l.set("ckpt.bytes", replay.ckpt_bytes as f64);
    if let Some(st) = &body.server_stats {
        let requests = st.field_u64("requests").max(1) as f64;
        l.set("serve.hit_ratio", (st.field_u64("hits") + st.field_u64("joins")) as f64 / requests);
        l.set("serve.busy", st.field_u64("rejected") as f64);
    }
    let warm_ok =
        body.outcomes.iter().filter(|o| o.req.class == serve::Class::Warm && o.error.is_none());
    l.set("serve.ckpt_mem_hits", warm_ok.count() as f64);
    let hits = serve::latencies_ms(&body.outcomes, serve::Class::Hit);
    if !hits.is_empty() {
        l.set("serve.hit_p50_ms", stat::percentile(&hits, 50.0));
    }
    let waits: Vec<f64> = body
        .outcomes
        .iter()
        .filter(|o| o.req.class == serve::Class::Miss && o.error.is_none())
        .filter_map(|o| Some(o.lat_s * 1e3 - replay.run_ms.get(&o.req.cell)?))
        .collect();
    if !waits.is_empty() {
        l.set("serve.queue_wait_ms", stat::median(&waits));
    }
}

/// Prints the per-cell range of profiler coverage (extrapolated stage
/// time over the measured `sim.run` span).
fn report_coverage_spread(full: &grid::FullPass, run_ns: &BTreeMap<u64, u64>) {
    let cov: Vec<f64> = full
        .cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let ns = *run_ns.get(&(i as u64))? as f64;
            let est: u64 = STAGES.iter().map(|b| c.prof.get(*b)).sum();
            Some(est as f64 * c.prof.stride.max(1) as f64 / ns.max(1.0))
        })
        .collect();
    if !cov.is_empty() {
        let lo = cov.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = cov.iter().copied().fold(0.0, f64::max);
        eprintln!(
            "sim.prof_coverage per cell: min {lo:.3} median {:.3} max {hi:.3}",
            stat::median(&cov)
        );
    }
}

/// Starts a server over the workload's serve universe, drives it through
/// the fewest rounds that support a miss p90, and shuts it down.
fn serve_once(w: &Workload, args: &Args, jobs: usize, tr: &Tracer) -> Result<serve::Body, String> {
    let server = tr.span("serve.start", 0, None, |_| serve::start(w.serve, args.seed, jobs))?;
    let rounds = serve::min_rounds(server.cells());
    let body = serve::body(&server, args.seed, rounds, tr, None);
    tr.span("serve.shutdown", 0, None, |_| server.shutdown());
    body
}

/// What replaying each miss cell outside the server measured.
struct Replay {
    stats: Vec<SimStats>,
    prof: ProfReport,
    /// Per cell: instantiate + fast-forward + snapshot + run, in ms.
    run_ms: BTreeMap<usize, f64>,
    ckpt_bytes: u64,
    ffwd_insts: u64,
}

/// Replays the first round's misses on this thread, one cell after
/// another, with spans around each simulator call: the traced run time
/// a served miss's latency is compared against, and the checkpoint
/// costs the warm requests pay inside the server.
fn replay_misses(
    universe: &str,
    body: &serve::Body,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Result<Replay, String> {
    let mut pool = mssr_bench::harness::CellPool::new(mssr_workloads::Scale::Test);
    mssr_bench::harness::experiment(universe).ok_or("unknown experiment")?.cells(&mut pool);
    let mut out = Replay {
        stats: Vec::new(),
        prof: ProfReport::default(),
        run_ms: BTreeMap::new(),
        ckpt_bytes: 0,
        ffwd_insts: 0,
    };
    let firsts = body
        .outcomes
        .iter()
        .filter(|o| o.req.class == serve::Class::Miss && o.req.group >> 32 == 0);
    for o in firsts {
        let (i, g) = (o.req.cell, o.req.group);
        let spec = pool.cell_spec(i);
        let w = pool.workload(spec.workload);
        let t = Instant::now();
        let mut sim = tr.span("sim.instantiate", g, parent, |_| match spec.engine.build() {
            Some(e) => w.instantiate_with(spec.cfg.clone(), e),
            None => w.instantiate(spec.cfg.clone()),
        });
        sim.set_profiling(mssr_sim::PROF_DEFAULT_STRIDE);
        out.ffwd_insts += tr.span("sim.ffwd", g, parent, |_| sim.fast_forward(serve::FFWD));
        let snap = tr.span("ckpt.snapshot", g, parent, |_| sim.snapshot());
        let stats = tr.span("sim.run", g, parent, |_| sim.run());
        out.run_ms.insert(i, t.elapsed().as_secs_f64() * 1e3);
        w.verify(&sim).map_err(|e| format!("replay of cell {i}: {e}"))?;
        out.ckpt_bytes += snap.len() as u64;
        let mut fresh = tr.span("sim.instantiate", g, parent, |_| match spec.engine.build() {
            Some(e) => w.instantiate_with(spec.cfg.clone(), e),
            None => w.instantiate(spec.cfg.clone()),
        });
        tr.span("ckpt.restore", g, parent, |_| fresh.restore(&snap))
            .map_err(|e| format!("restore of cell {i}: {e}"))?;
        out.prof.merge(&sim.profile_report());
        out.stats.push(stats);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(args("--workload suite --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "suite", seed: 42, seconds: 10, trace: true });
        assert!(parse_args(args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(args("--workload suite --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(args("--workload suite --seed 1 --seconds 1")).is_err());
        assert!(parse_args(args("--workload suite --seed x --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[metric("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        let nan = result_json(false, 1, 1, &[metric("x", "s", f64::NAN)]);
        assert!(nan.contains("\"value\":0.0"), "non-finite values print as 0: {nan}");
    }

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// with the same unit, and every declared per-layer metric is printed.
    #[test]
    fn metric_names_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in per_layer_names() {
            assert!(declared(&name, unit), "per-layer {name} [{unit}] not in BENCHMARK.json");
        }
        let n_declared = spec.matches("\"unit\":").count();
        assert_eq!(n_declared, per_layer_names().len() + END_TO_END.len(), "no stray declarations");
        for (name, unit) in END_TO_END {
            assert!(declared(name, unit), "end-to-end {name} [{unit}] not in BENCHMARK.json");
        }
    }
}
