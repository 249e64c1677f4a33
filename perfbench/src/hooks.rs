//! A delegating [`ReuseEngine`] that counts and times every hook call
//! before forwarding it to the wrapped engine. The traced run installs
//! it around each cell's engine (and around `NoReuse` for BASE cells);
//! it changes no simulated state, which the self-tests pin by digest.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mssr_isa::Opcode;
use mssr_sim::{
    CkptError, CkptReader, CkptWriter, EngineCtx, EngineStats, FlushKind, PhysReg, PredBlock,
    RenamedInst, ReuseEngine, ReuseGrant, ReuseQuery, SquashEvent,
};

/// The hooks the wrapper times, in report order.
pub const HOOKS: [&str; 8] = [
    "on_block",
    "on_mispredict_squash",
    "try_reuse",
    "on_renamed",
    "on_preg_freed",
    "on_commit",
    "on_store_executed",
    "on_flush",
];

const ON_BLOCK: usize = 0;
const ON_MISPREDICT_SQUASH: usize = 1;
const TRY_REUSE: usize = 2;
const ON_RENAMED: usize = 3;
const ON_PREG_FREED: usize = 4;
const ON_COMMIT: usize = 5;
const ON_STORE_EXECUTED: usize = 6;
const ON_FLUSH: usize = 7;

/// Calls and nanoseconds per hook of [`HOOKS`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HookTally {
    /// Calls per hook.
    pub calls: [u64; HOOKS.len()],
    /// Wall nanoseconds spent inside the wrapped engine per hook.
    pub ns: [u64; HOOKS.len()],
}

impl HookTally {
    /// Adds another tally into this one.
    pub fn add(&mut self, o: &HookTally) {
        for k in 0..HOOKS.len() {
            self.calls[k] += o.calls[k];
            self.ns[k] += o.ns[k];
        }
    }

    /// Nanoseconds in hook `k` less the clock's cost of timing each call
    /// (`floor_ns` per call, from [`timer_floor_ns`]), never below zero.
    pub fn net_ns(&self, k: usize, floor_ns: f64) -> f64 {
        (self.ns[k] as f64 - self.calls[k] as f64 * floor_ns).max(0.0)
    }

    /// [`HookTally::net_ns`] summed over every hook.
    pub fn net_total_ns(&self, floor_ns: f64) -> f64 {
        (0..HOOKS.len()).map(|k| self.net_ns(k, floor_ns)).sum()
    }
}

/// What one timed hook call reads on an empty body, in nanoseconds: the
/// clock's own cost, which [`HookTally::net_ns`] takes back out. The
/// median of several batches, so a preempted batch does not count.
pub fn timer_floor_ns() -> f64 {
    const CALLS: u32 = 20_000;
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let mut sum = 0u64;
            for _ in 0..CALLS {
                let t0 = Instant::now();
                sum += std::hint::black_box(t0).elapsed().as_nanos() as u64;
            }
            sum as f64 / f64::from(CALLS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// A shared handle on one engine's [`HookTally`].
pub type Tally = Rc<RefCell<HookTally>>;

/// The delegating engine. Keep the [`Traced::tally`] handle to read the
/// counts after the simulator (which owns the engine) has run.
pub struct Traced {
    inner: Box<dyn ReuseEngine>,
    tally: Tally,
}

impl Traced {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ReuseEngine>) -> Traced {
        Traced { inner, tally: Rc::new(RefCell::new(HookTally::default())) }
    }

    /// A shared handle on the tally.
    pub fn tally(&self) -> Tally {
        Rc::clone(&self.tally)
    }

    fn done(&self, hook: usize, t0: Instant) {
        let mut t = self.tally.borrow_mut();
        t.calls[hook] += 1;
        t.ns[hook] += t0.elapsed().as_nanos() as u64;
    }
}

impl ReuseEngine for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_block(&mut self, block: &PredBlock, ctx: &mut EngineCtx<'_>) {
        let t0 = Instant::now();
        self.inner.on_block(block, ctx);
        self.done(ON_BLOCK, t0);
    }

    fn on_mispredict_squash(&mut self, ev: &SquashEvent, ctx: &mut EngineCtx<'_>) {
        let t0 = Instant::now();
        self.inner.on_mispredict_squash(ev, ctx);
        self.done(ON_MISPREDICT_SQUASH, t0);
    }

    fn on_flush(&mut self, kind: FlushKind, ctx: &mut EngineCtx<'_>) {
        let t0 = Instant::now();
        self.inner.on_flush(kind, ctx);
        self.done(ON_FLUSH, t0);
    }

    fn try_reuse(&mut self, q: &ReuseQuery<'_>, ctx: &mut EngineCtx<'_>) -> Option<ReuseGrant> {
        let t0 = Instant::now();
        let grant = self.inner.try_reuse(q, ctx);
        self.done(TRY_REUSE, t0);
        grant
    }

    fn on_renamed(&mut self, r: &RenamedInst, ctx: &mut EngineCtx<'_>) {
        let t0 = Instant::now();
        self.inner.on_renamed(r, ctx);
        self.done(ON_RENAMED, t0);
    }

    fn on_register_pressure(&mut self, ctx: &mut EngineCtx<'_>) {
        self.inner.on_register_pressure(ctx);
    }

    fn on_preg_freed(&mut self, p: PhysReg, ctx: &mut EngineCtx<'_>) {
        let t0 = Instant::now();
        self.inner.on_preg_freed(p, ctx);
        self.done(ON_PREG_FREED, t0);
    }

    fn on_store_executed(&mut self, addr: u64, ctx: &mut EngineCtx<'_>) {
        let t0 = Instant::now();
        self.inner.on_store_executed(addr, ctx);
        self.done(ON_STORE_EXECUTED, t0);
    }

    fn on_snoop(&mut self, addr: u64, ctx: &mut EngineCtx<'_>) {
        self.inner.on_snoop(addr, ctx);
    }

    fn on_commit(&mut self, n: u64, ctx: &mut EngineCtx<'_>) {
        let t0 = Instant::now();
        self.inner.on_commit(n, ctx);
        self.done(ON_COMMIT, t0);
    }

    fn on_rgid_overflow(&mut self, ctx: &mut EngineCtx<'_>) {
        self.inner.on_rgid_overflow(ctx);
    }

    fn on_rgid_reset(&mut self, ctx: &mut EngineCtx<'_>) {
        self.inner.on_rgid_reset(ctx);
    }

    fn reuse_credit_latency(&self, op: Opcode, pipeline_estimate: u64) -> u64 {
        self.inner.reuse_credit_latency(op, pipeline_estimate)
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn reserved_hold_count(&self) -> u64 {
        self.inner.reserved_hold_count()
    }

    fn ckpt_save(&self, w: &mut CkptWriter) {
        self.inner.ckpt_save(w);
    }

    fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.inner.ckpt_load(r)
    }
}
