//! Versioned, checksummed binary checkpoints of simulator state.
//!
//! A checkpoint file is an envelope around an opaque payload:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "MSSRCKPT"
//! 8       4     format version, u32 LE (CKPT_VERSION)
//! 12      8     total file length in bytes, u64 LE (envelope included)
//! 20      ..    payload
//! len-8   8     FNV-1a over bytes [0, len-8), u64 LE
//! ```
//!
//! [`seal`] wraps a payload; [`open`] validates an envelope and returns
//! the payload slice. Validation order is fixed — magic, then version,
//! then length, then checksum — so each corruption mode maps to a
//! distinct [`CkptError`] and a damaged file can never be half-applied:
//! nothing is read from the payload until the whole envelope verifies.
//!
//! The payload codec ([`CkptWriter`] / [`CkptReader`]) is deliberately
//! dumb: little-endian fixed-width integers and length-prefixed byte
//! strings, written and read in lock-step field order. There is no
//! schema evolution within a version; any layout change bumps
//! [`CKPT_VERSION`] and older files are rejected with
//! [`CkptError::BadVersion`] — readers never guess (see DESIGN.md,
//! "Checkpoint format").

use mssr_isa::Pc;

use crate::types::{PhysReg, Rgid, SeqNum};

/// Magic bytes opening every checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"MSSRCKPT";

/// Current checkpoint format version. Bump on any payload layout change.
pub const CKPT_VERSION: u32 = 2;

const ENVELOPE_HEADER: usize = 20;
const CHECKSUM_BYTES: usize = 8;

/// Why a checkpoint was rejected. Every failure mode is distinct and
/// terminal: a checkpoint either restores completely or not at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// The file is shorter than its header claims (or than the minimum
    /// envelope).
    Truncated { need: usize, have: usize },
    /// The magic bytes are wrong — not a checkpoint file.
    BadMagic,
    /// Written by a different (incompatible) format version.
    BadVersion { found: u32, expect: u32 },
    /// The trailing FNV-1a checksum does not match the contents.
    BadChecksum { stored: u64, computed: u64 },
    /// The snapshot was taken of a different program.
    ProgramMismatch,
    /// The snapshot was taken under a different simulator configuration.
    ConfigMismatch,
    /// The snapshot was taken with a different reuse engine.
    EngineMismatch { found: String, expect: String },
    /// The envelope verified but the payload decoded inconsistently
    /// (a codec bug or a hand-crafted file).
    Corrupt(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Truncated { need, have } => {
                write!(f, "truncated checkpoint: need {need} bytes, have {have}")
            }
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::BadVersion { found, expect } => {
                write!(f, "checkpoint version {found} unsupported (expect {expect})")
            }
            CkptError::BadChecksum { stored, computed } => {
                write!(f, "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            CkptError::ProgramMismatch => write!(f, "checkpoint was taken of a different program"),
            CkptError::ConfigMismatch => {
                write!(f, "checkpoint was taken under a different configuration")
            }
            CkptError::EngineMismatch { found, expect } => {
                write!(f, "checkpoint engine mismatch: found {found:?}, expect {expect:?}")
            }
            CkptError::Corrupt(detail) => write!(f, "corrupt checkpoint payload: {detail}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// 64-bit FNV-1a over a byte slice — the checkpoint checksum and the
/// identity hash used for program/config compatibility checks and grid
/// checkpoint file names.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wraps a payload in the checkpoint envelope (magic, version, length,
/// trailing checksum).
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let total = ENVELOPE_HEADER + payload.len() + CHECKSUM_BYTES;
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(&CKPT_MAGIC);
    buf.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(total as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Validates a checkpoint envelope and returns the payload slice.
/// Checks in order: magic, version, declared length, checksum — so a
/// truncation, a version skew, and a flipped byte each surface as their
/// own [`CkptError`].
pub fn open(buf: &[u8]) -> Result<&[u8], CkptError> {
    if buf.len() < 8 {
        return Err(CkptError::Truncated {
            need: ENVELOPE_HEADER + CHECKSUM_BYTES,
            have: buf.len(),
        });
    }
    if buf[..8] != CKPT_MAGIC {
        return Err(CkptError::BadMagic);
    }
    if buf.len() < ENVELOPE_HEADER {
        return Err(CkptError::Truncated {
            need: ENVELOPE_HEADER + CHECKSUM_BYTES,
            have: buf.len(),
        });
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    if version != CKPT_VERSION {
        return Err(CkptError::BadVersion { found: version, expect: CKPT_VERSION });
    }
    let total = u64::from_le_bytes(buf[12..20].try_into().expect("8 bytes")) as usize;
    if total < ENVELOPE_HEADER + CHECKSUM_BYTES {
        return Err(CkptError::Corrupt(format!("declared length {total} below envelope minimum")));
    }
    if buf.len() < total {
        return Err(CkptError::Truncated { need: total, have: buf.len() });
    }
    if buf.len() > total {
        return Err(CkptError::Corrupt(format!(
            "{} trailing bytes beyond declared length {total}",
            buf.len() - total
        )));
    }
    let body = &buf[..total - CHECKSUM_BYTES];
    let stored = u64::from_le_bytes(buf[total - CHECKSUM_BYTES..].try_into().expect("8 bytes"));
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(CkptError::BadChecksum { stored, computed });
    }
    Ok(&buf[ENVELOPE_HEADER..total - CHECKSUM_BYTES])
}

/// Sequential payload writer: fixed-width little-endian fields and
/// length-prefixed byte strings, in lock-step with [`CkptReader`].
#[derive(Default)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    pub fn new() -> CkptWriter {
        CkptWriter::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i8(&mut self, v: i8) {
        self.buf.push(v as u8);
    }

    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn pc(&mut self, pc: Pc) {
        self.u64(pc.addr());
    }

    pub fn opt_pc(&mut self, pc: Option<Pc>) {
        self.opt_u64(pc.map(|p| p.addr()));
    }

    pub fn seq(&mut self, s: SeqNum) {
        self.u64(s.value());
    }

    pub fn preg(&mut self, p: PhysReg) {
        self.u16(p.index() as u16);
    }

    pub fn opt_preg(&mut self, p: Option<PhysReg>) {
        match p {
            Some(p) => {
                self.bool(true);
                self.preg(p);
            }
            None => self.bool(false),
        }
    }

    pub fn rgid(&mut self, g: Rgid) {
        self.u16(g.value());
    }

    pub fn opt_rgid(&mut self, g: Option<Rgid>) {
        match g {
            Some(g) => {
                self.bool(true);
                self.rgid(g);
            }
            None => self.bool(false),
        }
    }

    /// The accumulated payload (no envelope; see [`seal`]).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential payload reader; every accessor is bounds-checked and
/// over-reads report [`CkptError::Truncated`] with exact positions.
pub struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    pub fn new(payload: &'a [u8]) -> CkptReader<'a> {
        CkptReader { buf: payload, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.buf.len() - self.pos < n {
            return Err(CkptError::Truncated { need: self.pos + n, have: self.buf.len() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::Corrupt(format!("bool byte {b} at offset {}", self.pos - 1))),
        }
    }

    pub fn u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn i8(&mut self) -> Result<i8, CkptError> {
        Ok(self.u8()? as i8)
    }

    pub fn opt_u64(&mut self) -> Result<Option<u64>, CkptError> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.u64()? as usize;
        self.take(n)
    }

    pub fn str(&mut self) -> Result<String, CkptError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| CkptError::Corrupt("non-UTF-8 string field".into()))
    }

    /// A bounded sequence length: rejects lengths that could not fit in
    /// the remaining payload before any allocation happens.
    pub fn seq_len(&mut self, elem_min_bytes: usize) -> Result<usize, CkptError> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len() - self.pos;
        if elem_min_bytes > 0 && n > remaining / elem_min_bytes {
            return Err(CkptError::Corrupt(format!(
                "sequence of {n} elements cannot fit in {remaining} remaining bytes"
            )));
        }
        Ok(n)
    }

    pub fn pc(&mut self) -> Result<Pc, CkptError> {
        Ok(Pc::new(self.u64()?))
    }

    pub fn opt_pc(&mut self) -> Result<Option<Pc>, CkptError> {
        Ok(self.opt_u64()?.map(Pc::new))
    }

    pub fn seq(&mut self) -> Result<SeqNum, CkptError> {
        Ok(SeqNum::new(self.u64()?))
    }

    pub fn preg(&mut self) -> Result<PhysReg, CkptError> {
        Ok(PhysReg::new(self.u16()? as usize))
    }

    pub fn opt_preg(&mut self) -> Result<Option<PhysReg>, CkptError> {
        Ok(if self.bool()? { Some(self.preg()?) } else { None })
    }

    pub fn rgid(&mut self) -> Result<Rgid, CkptError> {
        let v = self.u16()?;
        Ok(if v == u16::MAX { Rgid::NULL } else { Rgid::new(v) })
    }

    pub fn opt_rgid(&mut self) -> Result<Option<Rgid>, CkptError> {
        Ok(if self.bool()? { Some(self.rgid()?) } else { None })
    }

    /// Asserts the payload was consumed exactly.
    pub fn done(&self) -> Result<(), CkptError> {
        if self.pos != self.buf.len() {
            return Err(CkptError::Corrupt(format!(
                "{} unread payload bytes at offset {}",
                self.buf.len() - self.pos,
                self.pos
            )));
        }
        Ok(())
    }
}

/// Machine-state serialization: the payload layout of a full simulator
/// checkpoint, decomposed per pipeline stage. Field order is the format —
/// [`save`] and [`restore`] call the per-stage `save_*`/`load_*` pairs in
/// the same fixed sequence, and any layout change bumps `CKPT_VERSION`.
pub(crate) mod machine {
    use std::cmp::Reverse;

    use mssr_isa::{ArchReg, Inst, Pc, Program};

    use super::{CkptError, CkptReader, CkptWriter};
    use crate::bpred::PredMeta;
    use crate::config::SimConfig;
    use crate::engine::ReuseEngine;
    use crate::lsq::{LqEntry, Lsq, SqEntry};
    use crate::rob::{BranchOutcome, BranchState, DstInfo, Rob, RobEntry};
    use crate::sample::Sampler;
    use crate::stage::{FrontInst, MachineState, PendingFlush};
    use crate::trace::{CkptAction, TraceEvent, Tracer};
    use crate::types::{FlushKind, SeqNum};

    /// Payload terminator, checked before [`CkptReader::done`] so a codec
    /// drift shows up as a missing marker rather than a trailing-bytes
    /// error.
    const CKPT_END: u32 = 0x444e_4521;

    /// A stable identity hash of the loaded program (base address plus
    /// every instruction), used to reject checkpoints taken of a
    /// different program. In-flight instructions are checkpointed by PC
    /// only and re-fetched through this guard.
    fn program_hash(program: &Program) -> u64 {
        let mut text = program.base().addr().to_string();
        for (pc, inst) in program.iter() {
            text.push_str(&format!("|{}:{inst:?}", pc.addr()));
        }
        super::fnv1a64(text.as_bytes())
    }

    /// A stable identity hash of the simulator configuration. Structure
    /// sizes (ROB, queues, caches) shape the serialized state, so a
    /// checkpoint only restores under the exact configuration that took
    /// it; the `Debug` rendering covers every field.
    fn config_hash(cfg: &SimConfig) -> u64 {
        super::fnv1a64(format!("{cfg:?}").as_bytes())
    }

    fn refetch(program: &Program, pc: Pc) -> Result<Inst, CkptError> {
        program
            .fetch(pc)
            .copied()
            .ok_or_else(|| CkptError::Corrupt(format!("checkpointed PC {pc} outside the program")))
    }

    fn flush_kind_code(k: FlushKind) -> u8 {
        match k {
            FlushKind::BranchMispredict => 0,
            FlushKind::MemoryOrder => 1,
            FlushKind::ReuseVerification => 2,
        }
    }

    fn flush_kind_from(b: u8) -> Result<FlushKind, CkptError> {
        match b {
            0 => Ok(FlushKind::BranchMispredict),
            1 => Ok(FlushKind::MemoryOrder),
            2 => Ok(FlushKind::ReuseVerification),
            _ => Err(CkptError::Corrupt(format!("unknown flush kind byte {b}"))),
        }
    }

    fn load_arch_reg(r: &mut CkptReader) -> Result<ArchReg, CkptError> {
        let i = r.u8()? as usize;
        ArchReg::all()
            .nth(i)
            .ok_or_else(|| CkptError::Corrupt(format!("arch register index {i} out of range")))
    }

    // --- Control scalars, statistics, and the CPI-stack account -------

    fn save_control(st: &MachineState, w: &mut CkptWriter) {
        w.u64(st.cycle);
        w.u64(st.next_seq);
        w.u64(st.squash_ctr);
        w.bool(st.halted);
        w.opt_pc(st.fetch_pc);
        w.u64(st.fetch_resume_at);
        w.bool(st.rgid_reset_requested);
        w.u64(st.rgid_overflows_total);
        w.u64(st.rgid_resets_total);
        w.u64(st.grants_total);
        match st.refill_blame {
            None => w.bool(false),
            Some((kind, seq)) => {
                w.bool(true);
                w.u8(flush_kind_code(kind));
                w.seq(seq);
            }
        }

        // Cumulative statistics. Cache counters live in the hierarchy
        // section and engine counters in the engine blob; `stats()`
        // recomposes them, so only the pipeline-owned counters go here.
        for v in [
            st.stats.committed_instructions,
            st.stats.committed_branches,
            st.stats.committed_cond_branches,
            st.stats.mispredictions,
            st.stats.renamed_instructions,
            st.stats.squashed_instructions,
            st.stats.flushes_branch,
            st.stats.flushes_mem_order,
            st.stats.flushes_reuse_verify,
            st.stats.committed_loads,
            st.stats.committed_stores,
            st.stats.store_forwards,
            st.stats.store_forward_stalls,
            st.stats.snoops,
            st.stats.ffwd_insts,
            st.stats.skipped_cycles,
        ] {
            w.u64(v);
        }

        // CPI-stack account.
        for s in st.account.slots {
            w.u64(s);
        }
        w.u64(st.account.credit_reuse_cycles);
        w.u64(st.account.credit_recon_fetches);
    }

    fn load_control(st: &mut MachineState, r: &mut CkptReader) -> Result<(), CkptError> {
        st.cycle = r.u64()?;
        st.next_seq = r.u64()?;
        st.squash_ctr = r.u64()?;
        st.halted = r.bool()?;
        st.fetch_pc = r.opt_pc()?;
        st.fetch_resume_at = r.u64()?;
        st.rgid_reset_requested = r.bool()?;
        st.rgid_overflows_total = r.u64()?;
        st.rgid_resets_total = r.u64()?;
        st.grants_total = r.u64()?;
        st.refill_blame =
            if r.bool()? { Some((flush_kind_from(r.u8()?)?, r.seq()?)) } else { None };

        st.stats.committed_instructions = r.u64()?;
        st.stats.committed_branches = r.u64()?;
        st.stats.committed_cond_branches = r.u64()?;
        st.stats.mispredictions = r.u64()?;
        st.stats.renamed_instructions = r.u64()?;
        st.stats.squashed_instructions = r.u64()?;
        st.stats.flushes_branch = r.u64()?;
        st.stats.flushes_mem_order = r.u64()?;
        st.stats.flushes_reuse_verify = r.u64()?;
        st.stats.committed_loads = r.u64()?;
        st.stats.committed_stores = r.u64()?;
        st.stats.store_forwards = r.u64()?;
        st.stats.store_forward_stalls = r.u64()?;
        st.stats.snoops = r.u64()?;
        st.stats.ffwd_insts = r.u64()?;
        st.stats.skipped_cycles = r.u64()?;

        for s in &mut st.account.slots {
            *s = r.u64()?;
        }
        st.account.credit_reuse_cycles = r.u64()?;
        st.account.credit_recon_fetches = r.u64()?;
        Ok(())
    }

    // --- Fetch stage: predictor and in-flight frontend queue -----------

    fn save_fetch(st: &MachineState, w: &mut CkptWriter) {
        st.bpred.ckpt_save(w);

        // Frontend queue (instructions by PC).
        w.u64(st.frontend_q.len() as u64);
        for fi in &st.frontend_q {
            w.u64(fi.ready_cycle);
            w.pc(fi.pc);
            w.bool(fi.pred_taken);
            w.pc(fi.pred_next);
            w.u64(fi.meta.ghr_before);
            w.u64(fi.ghr_before);
            w.u64(fi.ras_sp_before);
        }
    }

    fn load_fetch(st: &mut MachineState, r: &mut CkptReader) -> Result<(), CkptError> {
        st.bpred.ckpt_load(r)?;

        let n = r.seq_len(34)?;
        st.frontend_q.clear();
        for _ in 0..n {
            let ready_cycle = r.u64()?;
            let pc = r.pc()?;
            let inst = refetch(&st.program, pc)?;
            st.frontend_q.push_back(FrontInst {
                ready_cycle,
                pc,
                inst,
                pred_taken: r.bool()?,
                pred_next: r.pc()?,
                meta: PredMeta { ghr_before: r.u64()? },
                ghr_before: r.u64()?,
                ras_sp_before: r.u64()?,
            });
        }
        Ok(())
    }

    // --- Rename stage: RAT, free list, PRF, RGID allocator -------------

    fn save_rename(st: &MachineState, w: &mut CkptWriter) {
        st.rat.ckpt_save(w);
        st.free_list.ckpt_save(w);
        st.prf.ckpt_save(w);
        st.rgids.ckpt_save(w);
    }

    fn load_rename(st: &mut MachineState, r: &mut CkptReader) -> Result<(), CkptError> {
        st.rat.ckpt_load(r)?;
        st.free_list.ckpt_load(r)?;
        st.prf.ckpt_load(r)?;
        st.rgids.ckpt_load(r)?;
        Ok(())
    }

    // --- Commit stage: the reorder buffer -------------------------------

    fn save_rob_entry(w: &mut CkptWriter, e: &RobEntry) {
        w.seq(e.seq);
        w.pc(e.pc);
        match e.dst {
            None => w.bool(false),
            Some(d) => {
                w.bool(true);
                w.u8(d.arch.index() as u8);
                w.preg(d.new_preg);
                w.preg(d.prev_preg);
                w.rgid(d.new_rgid);
                w.rgid(d.prev_rgid);
            }
        }
        for p in e.src_pregs {
            w.opt_preg(p);
        }
        for g in e.src_rgids {
            w.opt_rgid(g);
        }
        w.bool(e.completed);
        w.bool(e.reused);
        w.bool(e.verify_pending);
        w.bool(e.fwd_stalled);
        w.opt_u64(e.pending_value);
        match e.branch {
            None => w.bool(false),
            Some(b) => {
                w.bool(true);
                w.pc(b.pred_next);
                w.bool(b.pred_taken);
                w.u64(b.meta.ghr_before);
                match b.resolved {
                    None => w.bool(false),
                    Some(o) => {
                        w.bool(true);
                        w.bool(o.taken);
                        w.pc(o.next);
                    }
                }
            }
        }
        w.opt_u64(e.mem_addr);
        w.u64(e.ghr_before);
        w.u64(e.ras_sp_before);
    }

    fn load_rob_entry(r: &mut CkptReader, program: &Program) -> Result<RobEntry, CkptError> {
        let seq = r.seq()?;
        let pc = r.pc()?;
        let inst = refetch(program, pc)?;
        let dst = if r.bool()? {
            Some(DstInfo {
                arch: load_arch_reg(r)?,
                new_preg: r.preg()?,
                prev_preg: r.preg()?,
                new_rgid: r.rgid()?,
                prev_rgid: r.rgid()?,
            })
        } else {
            None
        };
        let src_pregs = [r.opt_preg()?, r.opt_preg()?];
        let src_rgids = [r.opt_rgid()?, r.opt_rgid()?];
        let completed = r.bool()?;
        let reused = r.bool()?;
        let verify_pending = r.bool()?;
        let fwd_stalled = r.bool()?;
        let pending_value = r.opt_u64()?;
        let branch = if r.bool()? {
            let pred_next = r.pc()?;
            let pred_taken = r.bool()?;
            let meta = PredMeta { ghr_before: r.u64()? };
            let resolved = if r.bool()? {
                Some(BranchOutcome { taken: r.bool()?, next: r.pc()? })
            } else {
                None
            };
            Some(BranchState { pred_next, pred_taken, meta, resolved })
        } else {
            None
        };
        Ok(RobEntry {
            seq,
            pc,
            inst,
            dst,
            src_pregs,
            src_rgids,
            completed,
            reused,
            verify_pending,
            fwd_stalled,
            pending_value,
            branch,
            mem_addr: r.opt_u64()?,
            ghr_before: r.u64()?,
            ras_sp_before: r.u64()?,
        })
    }

    fn save_commit(st: &MachineState, w: &mut CkptWriter) {
        w.u64(st.rob.len() as u64);
        for e in st.rob.iter() {
            save_rob_entry(w, e);
        }
    }

    fn load_commit(st: &mut MachineState, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.seq_len(40)?;
        if n > st.cfg.rob_size {
            return Err(CkptError::Corrupt(format!(
                "{n} ROB entries in checkpoint, capacity {}",
                st.cfg.rob_size
            )));
        }
        let mut rob = Rob::new(st.cfg.rob_size);
        let mut prev: Option<SeqNum> = None;
        for _ in 0..n {
            let e = load_rob_entry(r, &st.program)?;
            if prev.is_some_and(|p| e.seq <= p) {
                return Err(CkptError::Corrupt("ROB entries out of age order".into()));
            }
            prev = Some(e.seq);
            rob.push(e);
        }
        st.rob = rob;
        Ok(())
    }

    // --- Issue stage: the reservation stations ---------------------------

    fn save_issue(st: &MachineState, w: &mut CkptWriter) {
        st.iq_int.ckpt_save(w);
        st.iq_mem.ckpt_save(w);
    }

    fn load_issue(st: &mut MachineState, r: &mut CkptReader) -> Result<(), CkptError> {
        st.iq_int.ckpt_load(r)?;
        st.iq_mem.ckpt_load(r)?;
        Ok(())
    }

    // --- Execute stage: LSQ, completion events, pending flushes ----------

    fn save_execute(st: &MachineState, w: &mut CkptWriter) {
        w.u64(st.lsq.lq_len() as u64);
        for l in st.lsq.loads() {
            w.seq(l.seq);
            w.opt_u64(l.addr);
            w.bool(l.issued);
            w.opt_u64(l.value);
            w.bool(l.reused);
        }
        w.u64(st.lsq.sq_len() as u64);
        for s in st.lsq.stores() {
            w.seq(s.seq);
            w.opt_u64(s.addr);
            w.opt_u64(s.data);
        }

        // Completion events. Heap iteration order is arbitrary; sort so
        // identical machine states serialize to identical bytes.
        let mut comps: Vec<(u64, u64)> = st.completions.iter().map(|&Reverse(p)| p).collect();
        comps.sort_unstable();
        w.u64(comps.len() as u64);
        for (c, s) in comps {
            w.u64(c);
            w.u64(s);
        }

        w.u64(st.pending_flushes.len() as u64);
        for f in &st.pending_flushes {
            w.seq(f.first_squashed);
            w.pc(f.redirect);
            w.u8(flush_kind_code(f.kind));
            w.seq(f.cause_seq);
            w.pc(f.cause_pc);
        }
    }

    fn load_execute(st: &mut MachineState, r: &mut CkptReader) -> Result<(), CkptError> {
        let nl = r.seq_len(27)?;
        let mut lsq = Lsq::new(st.cfg.lq_size, st.cfg.sq_size);
        if nl > st.cfg.lq_size {
            return Err(CkptError::Corrupt(format!(
                "{nl} load-queue entries in checkpoint, capacity {}",
                st.cfg.lq_size
            )));
        }
        let mut prev: Option<SeqNum> = None;
        for _ in 0..nl {
            let seq = r.seq()?;
            if prev.is_some_and(|p| seq <= p) {
                return Err(CkptError::Corrupt("load queue out of age order".into()));
            }
            prev = Some(seq);
            lsq.push_load(LqEntry {
                seq,
                addr: r.opt_u64()?,
                issued: r.bool()?,
                value: r.opt_u64()?,
                reused: r.bool()?,
            });
        }
        let ns = r.seq_len(26)?;
        if ns > st.cfg.sq_size {
            return Err(CkptError::Corrupt(format!(
                "{ns} store-queue entries in checkpoint, capacity {}",
                st.cfg.sq_size
            )));
        }
        let mut prev: Option<SeqNum> = None;
        for _ in 0..ns {
            let seq = r.seq()?;
            if prev.is_some_and(|p| seq <= p) {
                return Err(CkptError::Corrupt("store queue out of age order".into()));
            }
            prev = Some(seq);
            lsq.push_store(SqEntry { seq, addr: r.opt_u64()?, data: r.opt_u64()? });
        }
        st.lsq = lsq;

        let n = r.seq_len(16)?;
        st.completions.clear();
        for _ in 0..n {
            let c = r.u64()?;
            let s = r.u64()?;
            st.completions.push(Reverse((c, s)));
        }

        let n = r.seq_len(33)?;
        st.pending_flushes.clear();
        for _ in 0..n {
            st.pending_flushes.push(PendingFlush {
                first_squashed: r.seq()?,
                redirect: r.pc()?,
                kind: flush_kind_from(r.u8()?)?,
                cause_seq: r.seq()?,
                cause_pc: r.pc()?,
            });
        }
        Ok(())
    }

    // --- Memory: backing store and cache hierarchy -----------------------
    //
    // The backing store is written as its non-zero 4 KiB pages in
    // ascending order. `MainMemory` tracks which pages were ever written,
    // so saving walks (and loading zeroes) only that touched footprint;
    // the bytes are exactly those of a scan over the whole window.

    fn save_memory(st: &MachineState, w: &mut CkptWriter) {
        st.memory.ckpt_save(w);
        st.hier.ckpt_save(w);
    }

    fn load_memory(st: &mut MachineState, r: &mut CkptReader) -> Result<(), CkptError> {
        st.memory.ckpt_load(r)?;
        st.hier.ckpt_load(r)?;
        Ok(())
    }

    /// Serializes the complete simulation state — architectural and
    /// microarchitectural, in-flight instructions included — into a
    /// versioned, checksummed envelope (see the module docs). The
    /// pipeline is captured exactly as it stands, never drained, so a
    /// restored simulator continues bit-identically.
    pub(crate) fn save(
        st: &MachineState,
        engine: &dyn ReuseEngine,
        sampler: &Sampler,
        tracer: &Tracer,
    ) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.u64(config_hash(&st.cfg));
        w.u64(program_hash(&st.program));
        w.str(engine.name());

        save_control(st, &mut w);
        save_fetch(st, &mut w);
        save_rename(st, &mut w);
        save_commit(st, &mut w);
        save_issue(st, &mut w);
        save_execute(st, &mut w);
        save_memory(st, &mut w);

        // Engine state, as a length-prefixed blob so the pipeline can
        // frame it without knowing its layout.
        let mut ew = CkptWriter::new();
        engine.ckpt_save(&mut ew);
        w.bytes(&ew.finish());

        sampler.ckpt_save(&mut w);
        tracer.ckpt_save(&mut w);
        w.u32(CKPT_END);

        super::seal(&w.finish())
    }

    /// Restores a snapshot taken by [`save`] over this machine, which
    /// must carry the same configuration, program, and engine (checked
    /// via identity hashes in the payload — mismatches are rejected
    /// before any state is touched, as are all envelope corruptions).
    ///
    /// On a mid-payload [`CkptError::Corrupt`] the machine may be
    /// partially overwritten and must be discarded; no error path leaves
    /// a *silently* inconsistent machine.
    pub(crate) fn restore(
        st: &mut MachineState,
        engine: &mut dyn ReuseEngine,
        sampler: &mut Sampler,
        tracer: &mut Tracer,
        bytes: &[u8],
    ) -> Result<(), CkptError> {
        let payload = super::open(bytes)?;
        let mut r = CkptReader::new(payload);
        if r.u64()? != config_hash(&st.cfg) {
            return Err(CkptError::ConfigMismatch);
        }
        if r.u64()? != program_hash(&st.program) {
            return Err(CkptError::ProgramMismatch);
        }
        let name = r.str()?;
        if name != engine.name() {
            return Err(CkptError::EngineMismatch {
                found: name,
                expect: engine.name().to_string(),
            });
        }

        load_control(st, &mut r)?;
        load_fetch(st, &mut r)?;
        load_rename(st, &mut r)?;
        load_commit(st, &mut r)?;
        load_issue(st, &mut r)?;
        load_execute(st, &mut r)?;
        load_memory(st, &mut r)?;

        let blob = r.bytes()?;
        let mut er = CkptReader::new(blob);
        engine.ckpt_load(&mut er)?;
        er.done()?;

        sampler.ckpt_load(&mut r)?;
        tracer.ckpt_load(&mut r)?;
        if r.u32()? != CKPT_END {
            return Err(CkptError::Corrupt("missing end marker".into()));
        }
        r.done()?;

        tracer.emit(TraceEvent::Ckpt {
            cycle: st.cycle,
            action: CkptAction::Restore,
            insts: st.stats.committed_instructions,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_envelope() {
        let mut w = CkptWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(0x0123_4567_89ab_cdef);
        w.i8(-5);
        w.opt_u64(None);
        w.opt_u64(Some(42));
        w.str("mssr");
        w.bytes(&[1, 2, 3]);
        let file = seal(&w.finish());

        let payload = open(&file).expect("valid envelope");
        let mut r = CkptReader::new(payload);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.i8().unwrap(), -5);
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.str().unwrap(), "mssr");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.done().expect("fully consumed");
    }

    #[test]
    fn truncation_is_detected_by_length_not_checksum() {
        let file = seal(&[9; 64]);
        for cut in [0, 7, 19, 20, file.len() - 9, file.len() - 1] {
            match open(&file[..cut]) {
                Err(CkptError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_distinct() {
        let mut file = seal(&[1, 2, 3]);
        file[0] ^= 0xff;
        assert_eq!(open(&file).unwrap_err(), CkptError::BadMagic);
    }

    #[test]
    fn version_skew_is_detected_before_the_checksum() {
        let mut file = seal(&[1, 2, 3]);
        file[8] = CKPT_VERSION as u8 + 1;
        // No checksum fix-up: the version check must fire first.
        assert_eq!(
            open(&file).unwrap_err(),
            CkptError::BadVersion { found: CKPT_VERSION + 1, expect: CKPT_VERSION }
        );
    }

    #[test]
    fn flipped_byte_is_a_checksum_error() {
        let mut file = seal(&[5; 32]);
        let mid = ENVELOPE_HEADER + 16;
        file[mid] ^= 0x01;
        assert!(matches!(open(&file).unwrap_err(), CkptError::BadChecksum { .. }));
        // Flipping a checksum byte itself is equally fatal.
        let mut file = seal(&[5; 32]);
        let last = file.len() - 1;
        file[last] ^= 0x01;
        assert!(matches!(open(&file).unwrap_err(), CkptError::BadChecksum { .. }));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut file = seal(&[1]);
        file.push(0);
        assert!(matches!(open(&file).unwrap_err(), CkptError::Corrupt(_)));
    }

    #[test]
    fn reader_overrun_reports_truncated() {
        let mut r = CkptReader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(CkptError::Truncated { need: 8, have: 2 })));
    }

    #[test]
    fn errors_render_distinct_messages() {
        let msgs: Vec<String> = [
            CkptError::Truncated { need: 10, have: 2 },
            CkptError::BadMagic,
            CkptError::BadVersion { found: 9, expect: CKPT_VERSION },
            CkptError::BadChecksum { stored: 1, computed: 2 },
            CkptError::ProgramMismatch,
            CkptError::ConfigMismatch,
            CkptError::EngineMismatch { found: "a".into(), expect: "b".into() },
            CkptError::Corrupt("x".into()),
        ]
        .iter()
        .map(|e| e.to_string())
        .collect();
        for (i, a) in msgs.iter().enumerate() {
            for b in &msgs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
