//! A pure, in-order functional interpreter for the toy ISA.
//!
//! The interpreter shares the pipeline's value semantics ([`crate::exec`])
//! and memory model but has no timing, speculation, or renaming — it is
//! an independent architectural oracle. Differential tests run the same
//! program through the out-of-order pipeline (with and without reuse
//! engines) and through this interpreter, and require bit-identical final
//! state; that catches bugs in either implementation.

use mssr_isa::{ArchReg, Opcode, Pc, Program, NUM_ARCH_REGS};

use crate::exec;
use crate::mem::MainMemory;

/// Architectural state as one step of execution sees it: registers and
/// memory, nothing else. The interpreter implements it over its own
/// flat register file; the pipeline's functional fast-forward implements
/// it over the RAT/PRF and simulated memory, so both run the *same*
/// [`arch_step`] semantics and cannot drift apart.
pub(crate) trait ArchState {
    /// Reads an architectural register.
    fn reg(&self, a: ArchReg) -> u64;
    /// Writes an architectural register. Callers never pass `x0`
    /// ([`arch_step`] centralizes that guard).
    fn set_reg(&mut self, a: ArchReg, v: u64);
    /// Reads a 64-bit word (address already wrapped).
    fn mem_read(&mut self, addr: u64) -> u64;
    /// Writes a 64-bit word (address already wrapped).
    fn mem_write(&mut self, addr: u64, v: u64);
    /// Wraps an address into the memory image.
    fn wrap(&self, addr: u64) -> u64;
}

/// What one architectural step was, for consumers (the functional
/// fast-forward) that warm microarchitectural structures alongside the
/// execution. Plain ALU ops, `nop`, and `jal` carry nothing a warmer
/// needs beyond the PC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ArchKind {
    /// No side information.
    Plain,
    /// A conditional branch and its resolved direction.
    Cond {
        /// Whether the branch was taken.
        taken: bool,
    },
    /// An indirect jump and its resolved target.
    Jalr {
        /// The target PC.
        target: Pc,
    },
    /// A load and its (wrapped) address.
    Load {
        /// The accessed address.
        addr: u64,
    },
    /// A store and its (wrapped) address.
    Store {
        /// The accessed address.
        addr: u64,
    },
}

/// The result of one architectural step.
pub(crate) struct ArchOutcome {
    /// Where control flow goes next; `None` after `halt`.
    pub next: Option<Pc>,
    /// What the step was.
    pub kind: ArchKind,
}

fn write_dst(st: &mut impl ArchState, dst: Option<ArchReg>, v: u64) {
    if let Some(d) = dst {
        if !d.is_zero() {
            st.set_reg(d, v);
        }
    }
}

/// Executes the instruction at `pc` against `st`. Returns `None` when
/// `pc` is outside the program image.
///
/// `#[inline]`: left to the heuristic, the fast-forward loop's copy
/// stops being inlined once memory writes grow, which costs that loop
/// about 15% of its speed.
#[inline]
pub(crate) fn arch_step(program: &Program, pc: Pc, st: &mut impl ArchState) -> Option<ArchOutcome> {
    let inst = *program.fetch(pc)?;
    let a = inst.src1().map_or(0, |r| st.reg(r));
    let b = inst.src2().map_or(0, |r| st.reg(r));
    let op = inst.op();
    let fallthrough = pc.next();
    let mut next = fallthrough;
    let mut kind = ArchKind::Plain;
    match op {
        Opcode::Halt => return Some(ArchOutcome { next: None, kind }),
        Opcode::Nop => {}
        Opcode::Ld => {
            let addr = st.wrap(exec::mem_addr(&inst, a));
            let v = st.mem_read(addr);
            write_dst(st, inst.dst(), v);
            kind = ArchKind::Load { addr };
        }
        Opcode::St => {
            let addr = st.wrap(exec::mem_addr(&inst, a));
            st.mem_write(addr, b);
            kind = ArchKind::Store { addr };
        }
        Opcode::Jal => {
            write_dst(st, inst.dst(), fallthrough.addr());
            next = inst.target().expect("jal has a target");
        }
        Opcode::Jalr => {
            let target = Pc::new(a.wrapping_add(inst.imm() as u64));
            write_dst(st, inst.dst(), fallthrough.addr());
            next = target;
            kind = ArchKind::Jalr { target };
        }
        op if op.is_cond_branch() => {
            let taken = exec::branch_taken(op, a, b);
            if taken {
                next = inst.target().expect("branch has a target");
            }
            kind = ArchKind::Cond { taken };
        }
        _ => {
            let v = exec::alu(op, a, b, inst.imm()).expect("ALU opcode");
            write_dst(st, inst.dst(), v);
        }
    }
    Some(ArchOutcome { next: Some(next), kind })
}

/// Why an interpretation run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// A `halt` instruction executed.
    Halted,
    /// The instruction bound was reached first.
    InstLimit,
    /// Control flow left the program image (an architectural bug in the
    /// program itself — correct programs end in `halt`).
    OutOfProgram,
}

/// The functional interpreter.
///
/// # Example
///
/// ```
/// use mssr_isa::{regs::*, Assembler};
/// use mssr_sim::{Interpreter, StopReason};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Assembler::new();
/// a.li(T0, 6);
/// a.li(T1, 7);
/// a.mul(T2, T0, T1);
/// a.st(ZERO, T2, 0x100);
/// a.halt();
/// let mut it = Interpreter::new(a.assemble()?, 1 << 16);
/// assert_eq!(it.run(1000), StopReason::Halted);
/// assert_eq!(it.read_mem_u64(0x100), 42);
/// assert_eq!(it.reg(T2), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Interpreter {
    program: Program,
    regs: [u64; NUM_ARCH_REGS],
    memory: MainMemory,
    pc: Pc,
    executed: u64,
}

impl Interpreter {
    /// Creates an interpreter with `mem_bytes` of zeroed memory
    /// (power of two, like the simulator's).
    ///
    /// # Panics
    ///
    /// Panics if `mem_bytes` is not a power of two.
    pub fn new(program: Program, mem_bytes: usize) -> Interpreter {
        let pc = program.base();
        Interpreter {
            program,
            regs: [0; NUM_ARCH_REGS],
            memory: MainMemory::new(mem_bytes),
            pc,
            executed: 0,
        }
    }

    /// Reads an architectural register.
    pub fn reg(&self, a: ArchReg) -> u64 {
        self.regs[a.index()]
    }

    /// Writes an architectural register (`x0` writes are ignored).
    pub fn set_reg(&mut self, a: ArchReg, v: u64) {
        if !a.is_zero() {
            self.regs[a.index()] = v;
        }
    }

    /// Writes a 64-bit word of memory (program setup).
    pub fn write_mem_u64(&mut self, addr: u64, v: u64) {
        self.memory.write_u64(addr, v);
    }

    /// Reads a 64-bit word of memory.
    pub fn read_mem_u64(&self, addr: u64) -> u64 {
        self.memory.read_u64(addr)
    }

    /// Instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Current program counter.
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Executes one instruction. Returns `None` while running, or the
    /// stop reason.
    pub fn step(&mut self) -> Option<StopReason> {
        let mut st = FlatState { regs: &mut self.regs, memory: &mut self.memory };
        let Some(out) = arch_step(&self.program, self.pc, &mut st) else {
            return Some(StopReason::OutOfProgram);
        };
        self.executed += 1;
        match out.next {
            Some(next) => {
                self.pc = next;
                None
            }
            None => Some(StopReason::Halted),
        }
    }

    /// Runs until halt, departure from the program, or `max_insts`.
    pub fn run(&mut self, max_insts: u64) -> StopReason {
        while self.executed < max_insts {
            if let Some(r) = self.step() {
                return r;
            }
        }
        StopReason::InstLimit
    }
}

/// The interpreter's flat register file and memory as an [`ArchState`].
struct FlatState<'a> {
    regs: &'a mut [u64; NUM_ARCH_REGS],
    memory: &'a mut MainMemory,
}

impl ArchState for FlatState<'_> {
    fn reg(&self, a: ArchReg) -> u64 {
        self.regs[a.index()]
    }

    fn set_reg(&mut self, a: ArchReg, v: u64) {
        self.regs[a.index()] = v;
    }

    fn mem_read(&mut self, addr: u64) -> u64 {
        self.memory.read_u64(addr)
    }

    fn mem_write(&mut self, addr: u64, v: u64) {
        self.memory.write_u64(addr, v)
    }

    fn wrap(&self, addr: u64) -> u64 {
        self.memory.wrap(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssr_isa::{regs::*, Assembler};

    fn run_program(build: impl FnOnce(&mut Assembler)) -> Interpreter {
        let mut a = Assembler::new();
        build(&mut a);
        let mut it = Interpreter::new(a.assemble().unwrap(), 1 << 16);
        assert_eq!(it.run(1_000_000), StopReason::Halted);
        it
    }

    #[test]
    fn arithmetic_and_memory() {
        let it = run_program(|a| {
            a.li(T0, 5);
            a.li(T1, 3);
            a.sub(T2, T0, T1);
            a.st(ZERO, T2, 0x80);
            a.ld(T3, ZERO, 0x80);
            a.slli(T3, T3, 4);
            a.halt();
        });
        assert_eq!(it.reg(T2), 2);
        assert_eq!(it.reg(T3), 32);
        assert_eq!(it.read_mem_u64(0x80), 2);
    }

    #[test]
    fn loops_and_branches() {
        let it = run_program(|a| {
            a.li(T0, 0);
            a.li(T1, 10);
            a.label("loop");
            a.addi(T0, T0, 1);
            a.blt(T0, T1, "loop");
            a.halt();
        });
        assert_eq!(it.reg(T0), 10);
        assert_eq!(it.executed(), 2 + 20 + 1);
    }

    #[test]
    fn calls_and_returns() {
        let it = run_program(|a| {
            a.li(A0, 4);
            a.call("double");
            a.mv(S0, A0);
            a.call("double");
            a.halt();
            a.label("double");
            a.slli(A0, A0, 1);
            a.ret();
        });
        assert_eq!(it.reg(S0), 8);
        assert_eq!(it.reg(A0), 16);
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut it = run_program(|a| {
            a.li(T0, 7);
            a.add(ZERO, T0, T0); // discarded
            a.halt();
        });
        assert_eq!(it.reg(ZERO), 0);
        it.set_reg(ZERO, 99);
        assert_eq!(it.reg(ZERO), 0);
    }

    #[test]
    fn out_of_program_detected() {
        let mut a = Assembler::new();
        a.nop(); // falls off the end, no halt
        let mut it = Interpreter::new(a.assemble().unwrap(), 1 << 12);
        assert_eq!(it.run(100), StopReason::OutOfProgram);
    }

    #[test]
    fn inst_limit() {
        let mut a = Assembler::new();
        a.label("spin");
        a.j("spin");
        let mut it = Interpreter::new(a.assemble().unwrap(), 1 << 12);
        assert_eq!(it.run(50), StopReason::InstLimit);
        assert_eq!(it.executed(), 50);
    }

    #[test]
    fn matches_pipeline_on_a_branchy_kernel() {
        let build = |a: &mut Assembler| {
            a.li(S0, 0);
            a.li(S1, 64);
            a.li(S3, 0x777);
            a.li(S4, 0x9e3779b97f4a7c15u64 as i64);
            a.label("loop");
            a.mul(S3, S3, S4);
            a.srli(T0, S3, 29);
            a.xor(S3, S3, T0);
            a.andi(T1, S3, 1);
            a.beq(T1, ZERO, "skip");
            a.addi(S5, S5, 3);
            a.label("skip");
            a.slli(T2, S0, 3);
            a.st(T2, S3, 0x1000);
            a.addi(S0, S0, 1);
            a.blt(S0, S1, "loop");
            a.halt();
        };
        let mut a1 = Assembler::new();
        build(&mut a1);
        let program = a1.assemble().unwrap();
        let mut it = Interpreter::new(program.clone(), 1 << 20);
        assert_eq!(it.run(1_000_000), StopReason::Halted);
        let mut sim = crate::Simulator::new(
            crate::SimConfig::default().with_mem_bytes(1 << 20).with_max_cycles(1_000_000),
            program,
        );
        sim.run();
        for i in 0..64u64 {
            assert_eq!(
                it.read_mem_u64(0x1000 + 8 * i),
                sim.read_mem_u64(0x1000 + 8 * i),
                "slot {i}"
            );
        }
    }
}
