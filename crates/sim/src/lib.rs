//! # mssr-sim
//!
//! A cycle-level, execution-driven out-of-order superscalar simulator —
//! the substrate on which the Multi-Stream Squash Reuse mechanism (and
//! its baselines) is evaluated.
//!
//! The model follows the paper's gem5 O3CPU configuration (Table 3):
//!
//! * a decoupled, block-based frontend — bimodal + TAGE prediction, one
//!   prediction block (up to 32 B) per cycle, a latency queue modelling
//!   5 frontend stages;
//! * 8-wide rename over a RAT with per-mapping **RGIDs**, a free list
//!   with *hold counts* (so reuse engines can reserve squashed values),
//!   and precise ROB-walk recovery;
//! * out-of-order issue to 4 ALUs, 2 BRUs and 2 LSUs from 64-entry
//!   reservation stations; 256-entry ROB; 96/96 load/store queues with
//!   store-to-load forwarding and ordering-violation replay;
//! * a 64 KB L1D / 2 MB L2 / DRAM latency hierarchy.
//!
//! Crucially, the simulator **functionally executes wrong paths**: after
//! a misprediction the squashed instructions have already computed real
//! values into physical registers, which is exactly what squash reuse
//! recycles. Reuse mechanisms plug in through the [`ReuseEngine`] trait
//! ([`NoReuse`] is the baseline); the paper's engine lives in the
//! `mssr-core` crate.
//!
//! # Example
//!
//! ```
//! use mssr_isa::{regs::*, Assembler};
//! use mssr_sim::{SimConfig, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Assembler::new();
//! a.li(T0, 0);
//! a.li(T1, 64);
//! a.label("loop");
//! a.addi(T0, T0, 1);
//! a.blt(T0, T1, "loop");
//! a.halt();
//!
//! let mut sim = Simulator::new(SimConfig::default(), a.assemble()?);
//! let stats = sim.run();
//! assert_eq!(stats.committed_instructions, 2 + 64 * 2 + 1);
//! println!("IPC = {:.2}", stats.ipc());
//! # Ok(())
//! # }
//! ```

mod account;
mod bbv;
mod bpred;
mod check;
mod ckpt;
mod config;
mod dump;
mod engine;
mod exec;
mod interp;
mod iq;
mod lsq;
mod mem;
mod pipeline;
mod prof;
#[cfg(test)]
#[path = "../../../tests/common/prop.rs"]
mod prop;
mod rename;
mod rob;
mod sample;
mod stage;
mod stats;
mod trace;
mod types;

pub use account::{Category, CycleAccount};
pub use bbv::{BbvCollector, BbvInterval, BbvTrace};
pub use bpred::{
    BpredKind, BranchPredictor, CondPredictor, IndirectPredictor, OracleFeed, PredMeta,
};
pub use check::{
    check_age_order, check_bbv, check_commit_entry, check_conservation, check_cpi_account,
    check_lsq, check_reuse_safety, check_rgids, Rule, Violation,
};
pub use ckpt::{fnv1a64, CkptError, CkptReader, CkptWriter, CKPT_MAGIC, CKPT_VERSION};
pub use config::{CacheConfig, ConfigError, SimConfig};
pub use engine::{
    BlockRange, DstBinding, EngineCtx, NoReuse, PredBlock, RenamedInst, ReuseEngine, ReuseGrant,
    ReuseQuery, SquashEvent, SquashedInst, StageCtx,
};
pub use exec::{alu, branch_taken, mem_addr};
pub use interp::{Interpreter, StopReason};
pub use lsq::{Forward, LqEntry, Lsq, SqEntry};
pub use mem::{Cache, Hierarchy, MainMemory};
pub use pipeline::Simulator;
pub use prof::{Prof, ProfBucket, ProfReport, StageStamp, DEFAULT_STRIDE as PROF_DEFAULT_STRIDE};
pub use rename::{FreeList, Prf, Rat, RgidAlloc};
pub use rob::{BranchOutcome, BranchState, DstInfo, Rob, RobEntry};
pub use sample::{Sample, SampleRing, Sampler, DEFAULT_RING_CAPACITY};
pub use stats::{json_escape, EngineStats, SimStats};
pub use trace::{
    BufferSink, CkptAction, JsonLinesSink, RingSink, TraceEvent, TraceKind, TraceSink,
};
pub use types::{FlushKind, FuClass, PhysReg, Rgid, SeqNum};
