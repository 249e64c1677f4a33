//! The parallel experiment grid: cell pool, deduplication, workload
//! caching, and the work-stealing scoped-thread runner.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use std::path::Path;

use mssr_core::{MemCheckPolicy, MssrConfig, MultiStreamReuse, RegisterIntegration, RiConfig};
use mssr_sim::{
    fnv1a64, BbvCollector, BpredKind, CycleAccount, ProfReport, ReuseEngine, SimConfig, SimStats,
    Simulator, TraceEvent, TraceKind, TraceSink, PROF_DEFAULT_STRIDE,
};
use mssr_workloads::{Scale, Workload};

use super::metrics::warn;
use super::simpoint::{self, SimpointPlan};
use super::{cell_seed, splitmix64, HarnessOpts};
use crate::EngineSpec;

/// Salt mixed into the root seed for SimPoint clustering, so the
/// clustering's random choices are independent of the per-cell seed
/// stream while remaining a pure function of the root seed.
const SIMPOINT_SEED_SALT: u64 = 0x5350_4f49_4e54; // "SPOINT"

/// Detailed warmup prefix of each representative interval, as a
/// fraction of the interval length (interval/4). The warmup runs in
/// detail before the measured region and its counters are subtracted
/// out, removing the cold-pipeline fill bias a representative would
/// otherwise pay at its start (a real mid-program interval runs with a
/// full ROB; a fast-forwarded one starts empty). Warmup instructions
/// still count against the detailed-simulation budget.
const SIMPOINT_WARMUP_DIV: u64 = 4;

/// Index of a cell in its [`CellPool`] (and of its result in the vector
/// returned by [`CellPool::run`]).
pub type CellId = usize;

/// An engine configuration under evaluation: a base [`EngineSpec`] plus
/// the ablation axes (memory-check policy, reconvergence timeout,
/// single-page WPB restriction) the `ablation` experiment sweeps.
#[derive(Clone, Debug)]
pub struct EngineCfg {
    /// The base engine shape.
    pub spec: EngineSpec,
    /// Override of the reused-load memory-check policy.
    pub mem_policy: Option<MemCheckPolicy>,
    /// Override of the reconvergence timeout (renamed instructions).
    pub timeout: Option<u64>,
    /// Override of the single-page WPB restriction.
    pub vpn_restrict: Option<bool>,
}

impl From<EngineSpec> for EngineCfg {
    fn from(spec: EngineSpec) -> EngineCfg {
        EngineCfg { spec, mem_policy: None, timeout: None, vpn_restrict: None }
    }
}

impl EngineCfg {
    /// Sets the memory-check policy override.
    pub fn with_mem_policy(mut self, p: MemCheckPolicy) -> EngineCfg {
        self.mem_policy = Some(p);
        self
    }

    /// Sets the reconvergence-timeout override.
    pub fn with_timeout(mut self, t: u64) -> EngineCfg {
        self.timeout = Some(t);
        self
    }

    /// Sets the single-page WPB override.
    pub fn with_vpn_restrict(mut self, on: bool) -> EngineCfg {
        self.vpn_restrict = Some(on);
        self
    }

    /// The configuration's label: the spec label plus one suffix per
    /// override, so deduplication and reports distinguish ablations.
    pub fn label(&self) -> String {
        let mut l = self.spec.label();
        match self.mem_policy {
            Some(MemCheckPolicy::LoadVerification) => l.push_str("+ldverify"),
            Some(MemCheckPolicy::BloomFilter) => l.push_str("+bloom"),
            None => {}
        }
        if let Some(t) = self.timeout {
            l.push_str(&format!("+t{t}"));
        }
        match self.vpn_restrict {
            Some(true) => l.push_str("+vpn"),
            Some(false) => l.push_str("+fullpc"),
            None => {}
        }
        l
    }

    fn mssr_config(&self, streams: usize, log_entries: usize) -> MssrConfig {
        let mut cfg = MssrConfig::default()
            .with_streams(streams)
            .with_log_entries(log_entries)
            .with_wpb_entries((log_entries / 4).max(4));
        if let Some(p) = self.mem_policy {
            cfg = cfg.with_mem_policy(p);
        }
        if let Some(t) = self.timeout {
            cfg = cfg.with_timeout(t);
        }
        if let Some(v) = self.vpn_restrict {
            cfg = cfg.with_vpn_restrict(v);
        }
        cfg
    }

    /// Builds the Register Integration engine, if this is an RI spec
    /// (separate from [`EngineCfg::build`] so the grid runner can keep
    /// the per-set replacement-counter handle).
    pub fn build_ri(&self) -> Option<RegisterIntegration> {
        match self.spec {
            EngineSpec::Ri { sets, ways } => {
                let mut cfg = RiConfig::default().with_sets(sets).with_ways(ways);
                if let Some(p) = self.mem_policy {
                    cfg = cfg.with_mem_policy(p);
                }
                Some(RegisterIntegration::new(cfg))
            }
            _ => None,
        }
    }

    /// Builds the engine, or `None` for the baseline.
    pub fn build(&self) -> Option<Box<dyn ReuseEngine>> {
        match self.spec {
            EngineSpec::Baseline => None,
            EngineSpec::Mssr { streams, log_entries } => {
                Some(Box::new(MultiStreamReuse::new(self.mssr_config(streams, log_entries))))
            }
            EngineSpec::Ri { .. } => {
                Some(Box::new(self.build_ri().expect("ri spec")) as Box<dyn ReuseEngine>)
            }
        }
    }
}

/// One experiment cell: workload × engine configuration × simulator
/// configuration.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Workload id in the pool.
    pub workload: usize,
    /// Engine configuration.
    pub engine: EngineCfg,
    /// Simulator configuration.
    pub cfg: SimConfig,
}

/// The result of one cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell's deterministic seed (derived from the root seed).
    pub seed: u64,
    /// Simulated statistics.
    pub stats: SimStats,
    /// Register Integration per-set replacement counts (RI cells only).
    pub ri_set_replacements: Option<Vec<u64>>,
    /// The cell's JSON-lines event trace (`--trace` runs only). Events
    /// are collected per cell on the worker thread that ran it and
    /// emitted in cell order, so trace output is byte-identical across
    /// `--jobs` values like every other grid output.
    pub trace: Option<String>,
    /// The cell's sampling plan and per-representative measurements
    /// (`--simpoint` runs only). [`CellResult::stats`] then holds the
    /// field-wise sum over representatives, not a whole-program run;
    /// `mssr-report` reconstructs whole-program CPI from this record.
    pub simpoint: Option<SimpointCellResult>,
    /// The cell's host wall-clock profile (`--profile` runs only). Like
    /// `--timing`, this is machine-dependent — which is why the harness
    /// emits it on stderr, never into the trajectory.
    pub profile: Option<CellProfile>,
}

/// One cell's self-profile: the simulator's per-bucket wall-clock
/// attribution plus the cell's total wall time (the sim-MIPS and
/// cycles-per-second denominator).
#[derive(Clone, Debug)]
pub struct CellProfile {
    /// Whole-cell wall time in microseconds (≥ 1).
    pub total_us: u64,
    /// Per-stage sampled nanoseconds and whole-call ckpt/ffwd/bbv
    /// timings (see [`mssr_sim::ProfBucket`]).
    pub report: ProfReport,
}

/// One representative interval's detailed measurement under `--simpoint`.
#[derive(Clone, Debug)]
pub struct SimpointRep {
    /// Interval index in the BBV trace.
    pub index: u64,
    /// First instruction of the interval (the measurement start; the
    /// detailed run begins `warmup_insts` earlier).
    pub start_inst: u64,
    /// Instructions the plan assigned to the interval.
    pub planned_insts: u64,
    /// Cluster weight: instructions across the cluster's members.
    pub weight_insts: u64,
    /// Mean normalized-L1 BBV distance of cluster members to this
    /// representative, in thousandths (the error-bound input).
    pub spread_milli: u64,
    /// Detailed warmup instructions run before the measured region
    /// (their counters are excluded from `cycles`/`insts`/`account` but
    /// count against the detailed-simulation budget).
    pub warmup_insts: u64,
    /// Detailed cycles simulated in the measured region.
    pub cycles: u64,
    /// Detailed instructions committed in the measured region (the
    /// plan's count, give or take commit-width overshoot on the stop
    /// boundaries).
    pub insts: u64,
    /// The measured region's CPI-stack account.
    pub account: CycleAccount,
}

/// A cell's `--simpoint` record: the plan plus per-representative
/// measurements.
#[derive(Clone, Debug)]
pub struct SimpointCellResult {
    /// Interval length in instructions.
    pub interval: u64,
    /// Total instructions of the functional pass.
    pub total_insts: u64,
    /// Number of intervals clustered.
    pub n_intervals: u64,
    /// Chosen cluster count.
    pub k: u64,
    /// Per-representative measurements, in interval order.
    pub reps: Vec<SimpointRep>,
}

/// A process-wide in-memory checkpoint cache keyed by checkpoint stem —
/// the `mssr-serve` analogue of `--ckpt-dir`. It holds fast-forward
/// *boundary* snapshots only (taken before any detailed cycle has run),
/// which is what makes sharing them across sampling modes safe: a
/// restored boundary snapshot has no event-stream history to truncate,
/// unlike the mid-run checkpoints `--ckpt-every` writes to disk.
/// Bounded like the result cache: past `cap` snapshots the oldest is
/// evicted first (an evicted stem is simply fast-forwarded again).
pub(crate) struct CkptMem {
    cap: usize,
    inner: Mutex<CkptMemInner>,
}

#[derive(Default)]
struct CkptMemInner {
    map: HashMap<String, Arc<Vec<u8>>>,
    /// Insertion order, oldest first (each stem at most once).
    order: VecDeque<String>,
}

impl CkptMem {
    /// An empty cache holding at most `cap` snapshots (at least one).
    pub(crate) fn new(cap: usize) -> CkptMem {
        CkptMem { cap: cap.max(1), inner: Mutex::new(CkptMemInner::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CkptMemInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached snapshot for `stem`, if one exists.
    pub(crate) fn get(&self, stem: &str) -> Option<Arc<Vec<u8>>> {
        self.lock().map.get(stem).cloned()
    }

    /// Caches `bytes` for `stem`; the first snapshot for a stem wins
    /// (identical stems are snapshots of identical simulator states).
    pub(crate) fn put(&self, stem: &str, bytes: Vec<u8>) {
        let mut m = self.lock();
        if m.map.contains_key(stem) {
            return;
        }
        m.map.insert(stem.to_string(), Arc::new(bytes));
        m.order.push_back(stem.to_string());
        while m.order.len() > self.cap {
            let Some(old) = m.order.pop_front() else { break };
            m.map.remove(&old);
        }
    }

    /// Number of cached snapshots.
    pub(crate) fn entries(&self) -> usize {
        self.lock().map.len()
    }

    /// Total bytes of the cached snapshots.
    pub(crate) fn bytes(&self) -> usize {
        self.lock().map.values().map(|b| b.len()).sum()
    }
}

/// A per-line observer of a cell's live trace stream: called with each
/// raw event line as the simulator emits it, before the line lands in
/// the cell's buffer. `mssr-serve` uses this to stream progress samples
/// to the requesting client while the cell is still running.
pub(crate) type LiveSink = Box<dyn FnMut(&str) + Send>;

/// A cell's event buffer plus its optional live observer, shared by the
/// sinks of all the cell's segments so their events concatenate in plan
/// order.
struct EventBuf {
    text: String,
    live: Option<LiveSink>,
}

/// The grid's trace sink: feeds each raw event line to the live
/// observer, then appends it to the cell's buffer (the bytes and order
/// of a [`mssr_sim::BufferSink`]).
struct CallbackSink(Arc<Mutex<EventBuf>>);

impl TraceSink for CallbackSink {
    fn record(&mut self, ev: &TraceEvent) {
        let line = ev.to_json();
        let mut b = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = &mut b.live {
            f(&line);
        }
        b.text.push_str(&line);
        b.text.push('\n');
    }
}

/// Where a segment's measured region ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stop {
    /// Run to halt through [`Workload::finish`] (which verifies the
    /// architectural results); the whole detailed run is measured.
    Halt,
    /// Measure this many committed instructions after the warm-up.
    Insts(u64),
}

/// One step of a cell's execution plan: a fresh simulator is restored or
/// fast-forwarded to `ffwd` instructions, runs `warm` detailed
/// instructions whose counters are discarded, then is measured until
/// `stop`. A whole-program run is one `Halt` segment; `--simpoint` runs
/// one `Insts` segment per representative interval.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Segment {
    /// Functional fast-forward depth in instructions.
    ffwd: u64,
    /// Detailed warm-up instructions (`Insts` segments only).
    warm: u64,
    /// The end of the measured region.
    stop: Stop,
}

impl Segment {
    /// The plan of a whole-program run: fast-forward, then run to halt.
    pub(crate) fn to_halt(ffwd: u64) -> Segment {
        Segment { ffwd, warm: 0, stop: Stop::Halt }
    }
}

/// One segment's measured region, as the executor reports it back to
/// the plan's producer.
pub(crate) struct Measured {
    /// Detailed warm-up instructions committed before the region.
    warmup_insts: u64,
    /// The region's counters (warm-up subtracted).
    stats: SimStats,
}

/// The shared cell pool of one harness invocation.
///
/// Workloads are interned by name, so each assembled `Program` (plus its
/// memory image and reference results) is built once and shared
/// immutably — `&Workload` — across every engine and worker thread.
/// Cells are deduplicated on (workload, engine label, simulator config),
/// so e.g. a GAP baseline declared by both `fig12` and `rollup` is
/// simulated once.
pub struct CellPool {
    scale: Scale,
    workloads: Vec<Workload>,
    by_name: HashMap<String, usize>,
    cells: Vec<CellSpec>,
    dedup: HashMap<(usize, String, String), CellId>,
    bpred_override: Option<BpredKind>,
}

impl CellPool {
    /// An empty pool at a workload scale.
    pub fn new(scale: Scale) -> CellPool {
        CellPool {
            scale,
            workloads: Vec::new(),
            by_name: HashMap::new(),
            cells: Vec::new(),
            dedup: HashMap::new(),
            bpred_override: None,
        }
    }

    /// Forces every subsequently declared cell onto one branch predictor
    /// (the harness's `--bpred` axis). Applied before deduplication and
    /// checkpoint-stem derivation, so overridden cells never collide
    /// with default ones.
    pub fn set_bpred_override(&mut self, kind: Option<BpredKind>) {
        self.bpred_override = kind;
    }

    /// The pool's workload scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Interns a workload by name (workload names encode their
    /// parameters, so equal names mean equal workloads).
    pub fn intern(&mut self, w: Workload) -> usize {
        if let Some(&id) = self.by_name.get(w.name()) {
            debug_assert_eq!(
                self.workloads[id].static_insts(),
                w.static_insts(),
                "name collision with different program: {}",
                w.name()
            );
            return id;
        }
        let id = self.workloads.len();
        self.by_name.insert(w.name().to_string(), id);
        self.workloads.push(w);
        id
    }

    /// The interned workload with id `id`.
    pub fn workload(&self, id: usize) -> &Workload {
        &self.workloads[id]
    }

    /// Declares a cell, returning its id (an existing id if an identical
    /// cell was declared before).
    pub fn cell(&mut self, workload: usize, engine: EngineCfg, mut cfg: SimConfig) -> CellId {
        if let Some(kind) = self.bpred_override {
            cfg = cfg.with_bpred(kind);
        }
        let key = (workload, engine.label(), format!("{cfg:?}"));
        if let Some(&id) = self.dedup.get(&key) {
            return id;
        }
        let id = self.cells.len();
        self.dedup.insert(key, id);
        self.cells.push(CellSpec { workload, engine, cfg });
        id
    }

    /// The spec of cell `id`.
    pub fn cell_spec(&self, id: CellId) -> &CellSpec {
        &self.cells[id]
    }

    /// The workload of cell `id`.
    pub fn cell_workload(&self, id: CellId) -> &Workload {
        &self.workloads[self.cells[id].workload]
    }

    /// Number of (deduplicated) cells declared.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are declared.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Runs every cell across `opts.jobs` workers; `results[i]` is cell
    /// `i`'s result regardless of which worker ran it or when.
    pub fn run(&self, opts: &HarnessOpts) -> Vec<CellResult> {
        let plans = opts.simpoint.map(|_| self.simpoint_plans(opts));
        run_cells(self.cells.len(), opts.jobs, |i| {
            let seed = cell_seed(opts.root_seed, i as u64);
            let Some(sp) = plans.as_ref().and_then(|p| p[self.cells[i].workload].as_ref()) else {
                return self.run_cell(i, seed, &[Segment::to_halt(opts.ffwd)], opts, None, None).0;
            };
            // Detailed warm-up: back each fast-forward off by a quarter
            // interval (bounded by the program start) so the measured
            // region runs on a filled pipeline.
            let plan: Vec<Segment> = sp
                .reps
                .iter()
                .map(|rep| {
                    let warm = (sp.interval / SIMPOINT_WARMUP_DIV).min(rep.start_inst);
                    Segment { ffwd: rep.start_inst - warm, warm, stop: Stop::Insts(rep.insts) }
                })
                .collect();
            let (mut res, measured) = self.run_cell(i, seed, &plan, opts, None, None);
            let reps = sp.reps.iter().zip(measured).map(|(rep, m)| SimpointRep {
                index: rep.index,
                start_inst: rep.start_inst,
                planned_insts: rep.insts,
                weight_insts: rep.weight_insts,
                spread_milli: rep.spread_milli,
                warmup_insts: m.warmup_insts,
                cycles: m.stats.cycles,
                insts: m.stats.committed_instructions,
                account: m.stats.account,
            });
            res.simpoint = Some(SimpointCellResult {
                interval: sp.interval,
                total_insts: sp.total_insts,
                n_intervals: sp.n_intervals,
                k: sp.k,
                reps: reps.collect(),
            });
            res
        })
    }

    /// The SimPoint analysis pass: one functional run per workload
    /// referenced by at least one cell, collecting basic-block vectors
    /// and clustering them into a sampling plan. Runs on the same
    /// work-stealing grid as the cells; plans are a pure function of
    /// (workload, interval, maxk, root seed), independent of `--jobs`.
    /// Workloads no cell references get no plan.
    fn simpoint_plans(&self, opts: &HarnessOpts) -> Vec<Option<SimpointPlan>> {
        let (interval, max_k) = opts.simpoint.expect("caller checked --simpoint");
        // The functional pass is engine-independent; only the simulator
        // config's instruction bound matters, taken from the first cell
        // that references the workload.
        let cfg_of: Vec<Option<&SimConfig>> = (0..self.workloads.len())
            .map(|w| self.cells.iter().find(|c| c.workload == w).map(|c| &c.cfg))
            .collect();
        run_cells(self.workloads.len(), opts.jobs, |w| {
            let cfg = cfg_of[w]?;
            let mut sim = self.workloads[w].instantiate(cfg.clone());
            let mut bbv = BbvCollector::new(interval);
            let executed = sim.fast_forward_collect(cfg.max_insts, &mut bbv);
            let trace = bbv.finish(executed);
            Some(simpoint::plan(
                &trace,
                max_k,
                cell_seed(opts.root_seed ^ splitmix64(SIMPOINT_SEED_SALT), w as u64),
            ))
        })
    }

    /// The stable checkpoint-file stem of a cell: everything that shapes
    /// its simulation (workload, engine, simulator config, seed, scale,
    /// fast-forward) is hashed in, so a stale directory can never hand a
    /// cell another cell's state. (`Simulator::restore` re-checks the
    /// config/program/engine identity anyway; the stem just makes
    /// distinct cells use distinct files.)
    fn ckpt_stem(&self, spec: &CellSpec, seed: u64, ffwd: u64) -> String {
        let w = &self.workloads[spec.workload];
        let key = fnv1a64(
            format!(
                "{}|{}|{:?}|{seed:#x}|{:?}|{ffwd}",
                w.name(),
                spec.engine.label(),
                spec.cfg,
                self.scale
            )
            .as_bytes(),
        );
        format!("{:016x}", key)
    }

    /// Runs cell `i` through `plan` — the one execution path of batch,
    /// `--simpoint` and `mssr-serve` cells, which is what keeps served
    /// results byte-identical to batch trajectories. Each segment starts
    /// a fresh simulator at its fast-forward depth (restoring a snapshot
    /// when one is available), runs the detailed warm-up and measures
    /// until its stop point; the cell's stats are the field-wise sum of
    /// the measured regions, also returned one per segment. `mem` is
    /// serve's shared boundary-snapshot cache; `live` sees each raw event
    /// line as it is emitted.
    pub(crate) fn run_cell(
        &self,
        i: CellId,
        seed: u64,
        plan: &[Segment],
        opts: &HarnessOpts,
        mem: Option<&CkptMem>,
        live: Option<LiveSink>,
    ) -> (CellResult, Vec<Measured>) {
        let spec = &self.cells[i];
        let w = &self.workloads[spec.workload];
        // Without `--trace` the sink's kind mask admits sample events only.
        let events = opts.trace || opts.sample > 0;
        let mask = if !opts.trace && opts.sample > 0 { TraceKind::Sample.bit() } else { !0 };
        let buf = events.then(|| Arc::new(Mutex::new(EventBuf { text: String::new(), live })));
        let dir = opts.ckpt_dir.as_deref();
        let started = (opts.timing || opts.profile).then(std::time::Instant::now);
        let mut stats = SimStats::default();
        let mut prof = ProfReport::default();
        let mut ri_set_replacements: Option<Vec<u64>> = None;
        let mut skips: Vec<String> = Vec::new();
        let mut measured = Vec::with_capacity(plan.len());
        for seg in plan {
            let ri = spec.engine.build_ri();
            // Keep the replacement-counter handle across the run (fig3's
            // per-set replacement-frequency data).
            let counters = ri.as_ref().map(RegisterIntegration::replacement_counters);
            let engine = match ri {
                Some(r) => Some(Box::new(r) as Box<dyn ReuseEngine>),
                None => spec.engine.build(),
            };
            let mut sim = match engine {
                Some(e) => w.instantiate_with(spec.cfg.clone(), e),
                None => w.instantiate(spec.cfg.clone()),
            };
            if opts.profile {
                sim.set_profiling(PROF_DEFAULT_STRIDE);
            }
            if opts.sample > 0 {
                sim.set_sample_interval(opts.sample);
            }
            let stem = self.ckpt_stem(spec, seed, seg.ffwd);
            // The checkpoint rule of every mode: runs that record events,
            // and instruction-bounded segments, resume from fast-forward
            // boundaries only. A mid-run snapshot cannot replay the events
            // (or the warm-up) before it; a boundary has none behind it.
            let mid_run = !events && seg.stop == Stop::Halt;
            // Restore before the sink attaches: the donor may have saved
            // under a different trace configuration, and nothing it
            // replays (the restore event included) belongs in this run's
            // stream.
            let restored = restore_ckpt(&mut sim, &stem, mid_run, dir, mem, &mut skips);
            if let Some(b) = &buf {
                sim.set_trace_sink(Box::new(CallbackSink(Arc::clone(b))));
                sim.set_trace_mask(mask);
            }
            if restored && sim.cycle() == 0 {
                // A snapshot carries its saver's sampler, trace mask and
                // event counters. At a boundary — zero detailed cycles
                // behind it — a fresh sampler plus the re-armed tracer
                // (which re-emits the fast-forward event) is exactly the
                // state a cold run of this configuration has here.
                sim.set_sample_interval(opts.sample);
                sim.rearm_tracing(mask);
            }
            if !restored && seg.ffwd > 0 {
                sim.fast_forward(seg.ffwd);
                // The boundary is the shareable artifact: any later run of
                // this cell identity, in any sampling mode, can start its
                // detailed simulation from it.
                if let Some(dir) = dir {
                    write_ckpt(&sim, dir, &stem);
                }
                if let Some(mem) = mem {
                    mem.put(&stem, sim.snapshot());
                }
            }
            let (st, warmup_insts) = match seg.stop {
                Stop::Halt => {
                    if let Some(dir) = dir.filter(|_| mid_run && opts.ckpt_every > 0) {
                        save_periodic_ckpts(&mut sim, dir, &stem, opts.ckpt_every);
                    }
                    (w.finish(&mut sim), 0)
                }
                Stop::Insts(n) => {
                    sim.run_until_insts(seg.warm);
                    let warm = sim.stats();
                    sim.run_until_insts(warm.committed_instructions + n);
                    let mut st = sim.stats();
                    if sim.take_trace_sink().is_some() {
                        st = sim.stats(); // trace_* counters final only after flush
                    }
                    // The measured region is the post-warm-up delta; the
                    // warm-up and the fast-forward count as skipped work.
                    let mut delta = st.clone();
                    merge_stats(&mut delta, &warm, u64::saturating_sub);
                    delta.ffwd_insts = st.ffwd_insts + warm.committed_instructions;
                    delta.skipped_cycles = st.skipped_cycles + warm.cycles;
                    (delta, warm.committed_instructions)
                }
            };
            if let Some(c) = counters {
                let snap = c.borrow();
                match &mut ri_set_replacements {
                    Some(acc) => acc.iter_mut().zip(snap.iter()).for_each(|(a, b)| *a += b),
                    None => ri_set_replacements = Some(snap.clone()),
                }
            }
            merge_stats(&mut stats, &st, u64::wrapping_add);
            prof.merge(&sim.profile_report());
            measured.push(Measured { warmup_insts, stats: st });
        }
        let total_us = started.map(|t0| (t0.elapsed().as_micros().max(1) as u64).max(1));
        if opts.timing {
            // MIPS = insts / µs; thousandths keep the trajectory integer.
            let us = total_us.expect("timed above");
            stats.engine.sim_mips_milli =
                (stats.committed_instructions.saturating_mul(1000) / us).max(1);
        }
        let profile = opts
            .profile
            .then(|| CellProfile { total_us: total_us.expect("timed above"), report: prof });
        record_ckpt_skips(&mut stats, &skips, i, w.name(), &spec.engine.label());
        let trace = buf.map(|b| std::mem::take(&mut b.lock().expect("trace buffer poisoned").text));
        (CellResult { seed, stats, ri_set_replacements, trace, simpoint: None, profile }, measured)
    }
}

/// Field-wise merge of two stats records through `f` — `a = f(a, b)`
/// per counter. With `wrapping_add` it sums representative intervals
/// into the cell total; with `saturating_sub` it subtracts a warmup
/// snapshot to isolate the measured region. `sim_mips_milli` is
/// excluded — wall-clock throughput is recomputed over the whole cell
/// when `--timing` asks for it.
fn merge_stats(a: &mut SimStats, b: &SimStats, f: fn(u64, u64) -> u64) {
    a.cycles = f(a.cycles, b.cycles);
    a.committed_instructions = f(a.committed_instructions, b.committed_instructions);
    a.committed_branches = f(a.committed_branches, b.committed_branches);
    a.committed_cond_branches = f(a.committed_cond_branches, b.committed_cond_branches);
    a.mispredictions = f(a.mispredictions, b.mispredictions);
    a.renamed_instructions = f(a.renamed_instructions, b.renamed_instructions);
    a.squashed_instructions = f(a.squashed_instructions, b.squashed_instructions);
    a.flushes_branch = f(a.flushes_branch, b.flushes_branch);
    a.flushes_mem_order = f(a.flushes_mem_order, b.flushes_mem_order);
    a.flushes_reuse_verify = f(a.flushes_reuse_verify, b.flushes_reuse_verify);
    a.committed_loads = f(a.committed_loads, b.committed_loads);
    a.committed_stores = f(a.committed_stores, b.committed_stores);
    a.store_forwards = f(a.store_forwards, b.store_forwards);
    a.store_forward_stalls = f(a.store_forward_stalls, b.store_forward_stalls);
    a.l1_hits = f(a.l1_hits, b.l1_hits);
    a.l1_misses = f(a.l1_misses, b.l1_misses);
    a.l2_hits = f(a.l2_hits, b.l2_hits);
    a.l2_misses = f(a.l2_misses, b.l2_misses);
    a.snoops = f(a.snoops, b.snoops);
    a.ffwd_insts = f(a.ffwd_insts, b.ffwd_insts);
    a.skipped_cycles = f(a.skipped_cycles, b.skipped_cycles);
    let (e, g) = (&mut a.engine, &b.engine);
    e.reuse_tests = f(e.reuse_tests, g.reuse_tests);
    e.reuse_grants = f(e.reuse_grants, g.reuse_grants);
    e.reused_loads = f(e.reused_loads, g.reused_loads);
    e.reuse_fail_stale = f(e.reuse_fail_stale, g.reuse_fail_stale);
    e.reuse_fail_not_executed = f(e.reuse_fail_not_executed, g.reuse_fail_not_executed);
    e.reuse_fail_mem = f(e.reuse_fail_mem, g.reuse_fail_mem);
    e.reconvergences = f(e.reconvergences, g.reconvergences);
    e.recon_simple = f(e.recon_simple, g.recon_simple);
    e.recon_software = f(e.recon_software, g.recon_software);
    e.recon_hardware = f(e.recon_hardware, g.recon_hardware);
    for (d, s) in e.stream_distance.iter_mut().zip(g.stream_distance) {
        *d = f(*d, s);
    }
    e.divergences = f(e.divergences, g.divergences);
    e.timeouts = f(e.timeouts, g.timeouts);
    e.rgid_overflows = f(e.rgid_overflows, g.rgid_overflows);
    e.rgid_resets = f(e.rgid_resets, g.rgid_resets);
    e.streams_captured = f(e.streams_captured, g.streams_captured);
    e.entries_logged = f(e.entries_logged, g.entries_logged);
    e.pressure_reclaims = f(e.pressure_reclaims, g.pressure_reclaims);
    e.table_replacements = f(e.table_replacements, g.table_replacements);
    for (k, v) in &g.extra {
        match e.extra.iter_mut().find(|(key, _)| key == k) {
            Some((_, slot)) => *slot = f(*slot, *v),
            None => e.extra.push((k.clone(), f(0, *v))),
        }
    }
    for (d, s) in a.account.slots.iter_mut().zip(b.account.slots) {
        *d = f(*d, s);
    }
    a.account.credit_reuse_cycles = f(a.account.credit_reuse_cycles, b.account.credit_reuse_cycles);
    a.account.credit_recon_fetches =
        f(a.account.credit_recon_fetches, b.account.credit_recon_fetches);
}

/// Reports a cell's skipped-checkpoint tally: one stderr warning naming
/// every skipped file and its [`mssr_sim::CkptError`], plus a
/// `ckpt_restore_skips` counter in the cell's `EngineStats::extra` so
/// trajectories record the degraded restore. Clean cells emit nothing,
/// keeping their trajectory bytes unchanged.
fn record_ckpt_skips(stats: &mut SimStats, skips: &[String], i: CellId, w: &str, engine: &str) {
    if skips.is_empty() {
        return;
    }
    warn(format_args!(
        "cell {i} ({w}/{engine}): skipped {} invalid checkpoint(s), ran cold: {}",
        skips.len(),
        skips.join("; ")
    ));
    stats.engine.extra.push(("ckpt_restore_skips".to_string(), skips.len() as u64));
}

/// The one checkpoint-restore step: the shared in-memory boundary
/// snapshot for `stem` if `mem` holds one, else the newest valid file
/// for `stem` in `dir`. `mid_run` admits periodic (mid-run) checkpoints;
/// without it only the fast-forward boundary `{stem}.0.ckpt` qualifies.
/// Every snapshot that fails to restore is reported into `skips`.
fn restore_ckpt(
    sim: &mut Simulator,
    stem: &str,
    mid_run: bool,
    dir: Option<&Path>,
    mem: Option<&CkptMem>,
    skips: &mut Vec<String>,
) -> bool {
    if let Some(bytes) = mem.and_then(|m| m.get(stem)) {
        match sim.restore(&bytes) {
            Ok(()) => return true,
            Err(e) => skips.push(format!("<memory snapshot>: {e}")),
        }
    }
    dir.is_some_and(|dir| restore_newest_ckpt(sim, dir, stem, mid_run, skips))
}

/// Restores the newest valid checkpoint for `stem` from `dir` into `sim`
/// (boundary files only unless `mid_run`). Invalid or mismatched files
/// (corruption, a different build's config) are skipped in favour of the
/// next-newest; with none valid the cell just runs from scratch —
/// checkpoints are an accelerator, never a correctness dependency. Each
/// skipped file is reported as `"<name>: <reason>"` so the caller can
/// surface the degradation instead of silently eating the cold-start
/// cost.
fn restore_newest_ckpt(
    sim: &mut Simulator,
    dir: &Path,
    stem: &str,
    mid_run: bool,
    skips: &mut Vec<String>,
) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else { return false };
    let mut found: Vec<(u64, std::path::PathBuf)> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let rest = name.strip_prefix(stem)?.strip_prefix('.')?;
            let insts: u64 = rest.strip_suffix(".ckpt")?.parse().ok()?;
            (mid_run || insts == 0).then_some((insts, path))
        })
        .collect();
    found.sort_unstable_by_key(|&(insts, _)| std::cmp::Reverse(insts));
    for (_, path) in found {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("<checkpoint>").to_string();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                skips.push(format!("{name}: unreadable ({e})"));
                continue;
            }
        };
        match sim.restore(&bytes) {
            Ok(()) => return true,
            Err(e) => skips.push(format!("{name}: {e}")),
        }
    }
    false
}

/// Saves `sim` as `{stem}.{committed}.ckpt` in `dir` unless that file
/// exists. Files are written to a temporary name and renamed into place
/// so concurrent readers never see a torn file.
fn write_ckpt(sim: &Simulator, dir: &Path, stem: &str) {
    let committed = sim.stats().committed_instructions;
    let path = dir.join(format!("{stem}.{committed}.ckpt"));
    if path.exists() {
        return;
    }
    let _ = std::fs::create_dir_all(dir);
    let tmp = dir.join(format!("{stem}.{committed}.ckpt.tmp"));
    if std::fs::write(&tmp, sim.snapshot()).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

/// Runs `sim` to completion, saving a checkpoint into `dir` every
/// `every` committed instructions.
fn save_periodic_ckpts(sim: &mut Simulator, dir: &Path, stem: &str, every: u64) {
    loop {
        let committed = sim.stats().committed_instructions;
        sim.run_until_insts(committed + every);
        if sim.is_halted() || sim.stats().committed_instructions < committed + every {
            // Halted, or stopped short (cycle bound): the final state is
            // the run's result, not a resume point worth saving.
            return;
        }
        write_ckpt(sim, dir, stem);
    }
}

/// Runs `n` independent cells across `jobs` scoped worker threads with a
/// work-stealing index queue (an atomic next-cell counter: idle workers
/// steal the next undone index, so long cells never serialize behind
/// short ones). Returns results in cell order — output is independent of
/// scheduling, which is what makes `--jobs N` byte-identical to
/// `--jobs 1`.
pub fn run_cells<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let jobs = jobs.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    // Each worker catches its cell's panic and parks the payload in the
    // cell's slot; the collector below re-raises it with the failing
    // cell index attached. Without this, a worker panic surfaces only
    // as the scope's opaque "a scoped thread panicked" (the original
    // payload is lost) plus poisoned-mutex panics from the other
    // workers' slots.
    type Slot<T> = Mutex<Option<std::thread::Result<T>>>;
    let slots: Vec<Slot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = catch_unwind(AssertUnwindSafe(|| f(i)));
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| match m.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok(v)) => v,
            Some(Err(payload)) => {
                panic!("grid cell {i} panicked: {}", panic_message(payload.as_ref()))
            }
            None => panic!("grid cell {i} was never run"),
        })
        .collect()
}

/// Best-effort text of a caught panic payload (`&str` and `String`
/// cover every `panic!` in this workspace).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssr_workloads::microbench;

    #[test]
    fn run_cells_preserves_order_under_parallelism() {
        // Uneven work so threads finish out of order.
        let out = run_cells(64, 8, |i| {
            let mut acc = 0u64;
            for k in 0..((64 - i as u64) * 1000) {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            (i, acc % 2)
        });
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.0, i);
        }
    }

    #[test]
    fn run_cells_handles_empty_and_oversubscribed() {
        assert!(run_cells(0, 8, |i| i).is_empty());
        assert_eq!(run_cells(3, 64, |i| i * 2), vec![0, 2, 4]);
    }

    #[test]
    fn run_cells_reports_the_failing_cell_on_worker_panic() {
        // Pre-fix, a worker panic surfaced as the scope's opaque
        // "a scoped thread panicked": no cell index, no original payload.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output quiet
        let res = std::panic::catch_unwind(|| {
            run_cells(8, 4, |i| {
                if i == 5 {
                    panic!("boom in cell five");
                }
                i
            })
        });
        std::panic::set_hook(hook);
        let payload = res.expect_err("a panicking cell must fail the grid");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("cell 5"), "failing index must be named: {msg}");
        assert!(msg.contains("boom in cell five"), "original payload must survive: {msg}");
    }

    #[test]
    fn restore_newest_ckpt_reports_each_skipped_invalid_file() {
        let dir = std::env::temp_dir().join(format!("mssr-grid-skips-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("aa.100.ckpt"), b"definitely not a checkpoint").unwrap();
        std::fs::write(dir.join("aa.50.ckpt"), b"also garbage").unwrap();
        std::fs::write(dir.join("aa.0.ckpt"), b"a garbage boundary").unwrap();
        std::fs::write(dir.join("bb.100.ckpt"), b"other stem, ignored").unwrap();
        let w = microbench::nested_mispred(10);
        let mut sim = w.instantiate(SimConfig::default().with_max_cycles(100_000));
        let mut skips = Vec::new();
        let ok = restore_newest_ckpt(&mut sim, &dir, "aa", true, &mut skips);
        assert!(!ok, "garbage files must not restore");
        assert_eq!(skips.len(), 3, "every invalid file for the stem is reported: {skips:?}");
        assert!(skips[0].contains("aa.100.ckpt"), "newest first: {skips:?}");
        assert!(skips[1].contains("aa.50.ckpt"), "{skips:?}");
        assert!(skips[2].contains("aa.0.ckpt"), "{skips:?}");
        // Boundary-only restores never consider mid-run checkpoints.
        skips.clear();
        assert!(!restore_newest_ckpt(&mut sim, &dir, "aa", false, &mut skips));
        assert_eq!(skips.len(), 1, "{skips:?}");
        assert!(skips[0].contains("aa.0.ckpt"), "{skips:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_ckpt_skips_counts_into_extra_and_leaves_clean_cells_alone() {
        let mut stats = SimStats::default();
        record_ckpt_skips(&mut stats, &[], 0, "w", "BASE");
        assert!(stats.engine.extra.is_empty(), "clean cells must not grow extra counters");
        record_ckpt_skips(
            &mut stats,
            &["a.1.ckpt: bad".into(), "a.0.ckpt: bad".into()],
            0,
            "w",
            "BASE",
        );
        assert_eq!(stats.engine.extra, vec![("ckpt_restore_skips".to_string(), 2)]);
    }

    #[test]
    fn ckpt_mem_first_snapshot_wins_and_counts() {
        let mem = CkptMem::new(4);
        assert!(mem.get("s").is_none());
        assert_eq!(mem.entries(), 0);
        mem.put("s", vec![1, 2, 3]);
        mem.put("s", vec![9, 9, 9]);
        assert_eq!(*mem.get("s").expect("cached"), vec![1, 2, 3]);
        assert_eq!(mem.entries(), 1);
        assert_eq!(mem.bytes(), 3);
    }

    #[test]
    fn ckpt_mem_evicts_oldest_past_cap() {
        let mem = CkptMem::new(2);
        mem.put("a", vec![0; 10]);
        mem.put("b", vec![0; 20]);
        mem.put("a", vec![0; 99]); // already cached: no reinsertion, no refresh
        mem.put("c", vec![0; 30]);
        assert!(mem.get("a").is_none(), "the oldest snapshot is evicted");
        assert!(mem.get("b").is_some() && mem.get("c").is_some());
        assert_eq!((mem.entries(), mem.bytes()), (2, 50));
        mem.put("a", vec![0; 5]); // an evicted stem can be cached again
        assert!(mem.get("b").is_none());
        assert_eq!((mem.entries(), mem.bytes()), (2, 35));
        let one = CkptMem::new(0);
        one.put("x", vec![1]);
        assert_eq!(one.entries(), 1, "a zero cap still holds one snapshot");
    }

    #[test]
    fn pool_dedups_workloads_and_cells() {
        let mut pool = CellPool::new(Scale::Test);
        let a = pool.intern(microbench::nested_mispred(50));
        let b = pool.intern(microbench::nested_mispred(50));
        let c = pool.intern(microbench::nested_mispred(60));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let cfg = SimConfig::default().with_max_cycles(1_000_000);
        let c1 = pool.cell(a, EngineSpec::Baseline.into(), cfg.clone());
        let c2 = pool.cell(a, EngineSpec::Baseline.into(), cfg.clone());
        let c3 = pool.cell(a, EngineSpec::Mssr { streams: 4, log_entries: 64 }.into(), cfg.clone());
        let c4 = pool.cell(
            a,
            EngineCfg::from(EngineSpec::Mssr { streams: 4, log_entries: 64 }).with_timeout(64),
            cfg,
        );
        assert_eq!(c1, c2, "identical cells dedup");
        assert_ne!(c1, c3);
        assert_ne!(c3, c4, "ablation overrides are distinct cells");
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn engine_cfg_labels_and_builds() {
        let e = EngineCfg::from(EngineSpec::Mssr { streams: 4, log_entries: 64 })
            .with_mem_policy(MemCheckPolicy::BloomFilter)
            .with_timeout(64)
            .with_vpn_restrict(true);
        assert_eq!(e.label(), "RCVG_4_64+bloom+t64+vpn");
        assert_eq!(e.build().unwrap().name(), "mssr");
        assert!(EngineCfg::from(EngineSpec::Baseline).build().is_none());
        let ri = EngineCfg::from(EngineSpec::Ri { sets: 64, ways: 2 });
        assert_eq!(ri.label(), "RI_64x2");
        assert!(ri.build_ri().is_some());
        assert_eq!(ri.build().unwrap().name(), "ri");
    }
}
