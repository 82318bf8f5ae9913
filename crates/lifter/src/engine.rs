//! The IR-level symbolic executor and its engine personas.
//!
//! Executes lifted [`IrBlock`]s concolically, recording the same kind of
//! path trail as the formal-semantics engine, and plugs into the shared DSE
//! loop via [`binsym::PathExecutor`]. Three personas model the paper's §V
//! baselines:
//!
//! * **angr** ([`EngineConfig::angr`]): all five lifter bugs, no lift cache
//!   (every instruction is re-lifted on every execution), and a per-IR-
//!   statement interpretation overhead that models angr's Python-based
//!   symbolic execution — the paper attributes angr's two-orders-of-
//!   magnitude slowdown to exactly this (§V-B, citing Poeplau et al.).
//! * **angr (fixed)** ([`EngineConfig::angr_fixed`]): the same engine after
//!   the five bug reports — used for the Fig. 6 performance comparison.
//! * **BINSEC** ([`EngineConfig::binsec`]): no bugs, block-lift caching, no
//!   interpretation overhead — a mature, optimized native IR engine.

use std::collections::HashMap;
use std::hint::black_box;

use binsym::memory::{self, Resolution};
use binsym::{
    AddressPolicyKind, Error, ExecError, Observer, PathExecutor, PathOutcome, StepResult, SymByte,
    SymWord, TrailEntry,
};
use binsym_elf::ElfFile;
use binsym_isa::{Memory, Reg, RegFile};
use binsym_smt::{Term, TermManager};

use crate::ir::{AccessWidth, IrBinop, IrBlock, IrExpr, IrStmt, TempId};

use crate::lift::{LiftError, Lifter, LifterBugs};

/// Persona configuration of the IR engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Lifter bugs to reinstate.
    pub bugs: LifterBugs,
    /// Cache lifted blocks across instructions and paths.
    pub cache_blocks: bool,
    /// Artificial interpretation work per executed IR statement, modeling a
    /// Python-based engine (0 = native speed).
    pub interp_overhead: u32,
}

impl EngineConfig {
    /// angr before the paper's bug reports: buggy, uncached, slow.
    pub fn angr() -> EngineConfig {
        EngineConfig {
            bugs: LifterBugs::ANGR,
            cache_blocks: false,
            interp_overhead: 30_000,
        }
    }

    /// angr after the five fixes (used for the Fig. 6 timing comparison).
    pub fn angr_fixed() -> EngineConfig {
        EngineConfig {
            bugs: LifterBugs::NONE,
            cache_blocks: false,
            interp_overhead: 30_000,
        }
    }

    /// BINSEC-like: correct, cached, native speed.
    pub fn binsec() -> EngineConfig {
        EngineConfig {
            bugs: LifterBugs::NONE,
            cache_blocks: true,
            interp_overhead: 0,
        }
    }
}

#[inline]
fn mask(v: u64, w: u32) -> u64 {
    if w >= 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

#[inline]
fn sxt(v: u64, w: u32) -> i64 {
    let sh = 64 - w;
    ((v << sh) as i64) >> sh
}

/// Concolic IR value.
#[derive(Debug, Clone, Copy)]
struct Val {
    c: u64,
    t: Option<TermV>,
}

#[derive(Debug, Clone, Copy)]
enum TermV {
    Bv(Term),
    Bool(Term),
}

impl Val {
    fn concrete(c: u64) -> Val {
        Val { c, t: None }
    }

    fn is_symbolic(self) -> bool {
        self.t.is_some()
    }

    fn bv(self, tm: &mut TermManager, w: u32) -> Term {
        match self.t {
            Some(TermV::Bv(t)) => t,
            Some(TermV::Bool(b)) => tm.bool_to_bv(b, w),
            None => tm.bv_const(self.c, w),
        }
    }

    fn boolean(self, tm: &mut TermManager) -> Term {
        match self.t {
            Some(TermV::Bool(b)) => b,
            Some(TermV::Bv(t)) => {
                let one = tm.bv_const(1, tm.width(t));
                tm.eq(t, one)
            }
            None => tm.bool_const(self.c != 0),
        }
    }
}

/// IR machine state for one path.
struct IrMachine {
    regs: RegFile<SymWord>,
    mem: Memory<SymByte>,
    pc: u32,
    steps: u64,
    trail: Vec<TrailEntry>,
    policy: AddressPolicyKind,
    temps: HashMap<TempId, Val>,
}

enum BlockExit {
    Fallthrough,
    Jump(u32),
    Exited(u32),
    Break,
}

impl IrMachine {
    fn new(policy: AddressPolicyKind) -> IrMachine {
        IrMachine {
            regs: RegFile::new(SymWord::concrete(0)),
            mem: Memory::new(SymByte::concrete(0)),
            pc: 0,
            steps: 0,
            trail: Vec::new(),
            policy,
            temps: HashMap::new(),
        }
    }

    fn eval(&mut self, tm: &mut TermManager, e: &IrExpr) -> Val {
        let w = e.width();
        match e {
            IrExpr::Const { value, width } => Val::concrete(mask(*value, *width)),
            IrExpr::Temp(t) => *self.temps.get(t).expect("temp defined before use"),
            IrExpr::GetReg(r) => {
                let v = *self.regs.read(Reg::new(*r));
                Val {
                    c: u64::from(v.concrete),
                    t: v.term.map(TermV::Bv),
                }
            }
            IrExpr::Binop { op, lhs, rhs } => {
                let a = self.eval(tm, lhs);
                let b = self.eval(tm, rhs);
                let aw = lhs.width();
                self.binop(tm, *op, a, b, w, aw)
            }
            IrExpr::Load { width, addr } => {
                let a = self.eval(tm, addr);
                match self.resolve_addr(tm, a, width.bytes()) {
                    Resolution::Concrete(ca) => self.load(tm, ca, *width),
                    Resolution::Window {
                        concrete,
                        base,
                        term,
                        window,
                    } => {
                        let (c, t) = memory::load_window_bytes(
                            tm,
                            &self.mem,
                            base,
                            window,
                            term,
                            concrete,
                            width.bytes(),
                        );
                        Val {
                            c: u64::from(c),
                            t: Some(TermV::Bv(t)),
                        }
                    }
                }
            }
            IrExpr::Widen { signed, to, arg } => {
                let aw = arg.width();
                let a = self.eval(tm, arg);
                let c = if *signed {
                    mask(sxt(a.c, aw) as u64, *to)
                } else {
                    a.c
                };
                let t = if a.is_symbolic() {
                    let ta = a.bv(tm, aw);
                    Some(TermV::Bv(if *signed {
                        tm.sext(ta, *to)
                    } else {
                        tm.zext(ta, *to)
                    }))
                } else {
                    None
                };
                Val { c, t }
            }
            IrExpr::Extract { hi, lo, arg } => {
                let aw = arg.width();
                let a = self.eval(tm, arg);
                let t = if a.is_symbolic() {
                    let ta = a.bv(tm, aw);
                    Some(TermV::Bv(tm.extract(ta, *hi, *lo)))
                } else {
                    None
                };
                Val {
                    c: mask(a.c >> lo, hi - lo + 1),
                    t,
                }
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn binop(&mut self, tm: &mut TermManager, op: IrBinop, a: Val, b: Val, w: u32, aw: u32) -> Val {
        use IrBinop::*;
        let sym = a.is_symbolic() || b.is_symbolic();
        let c = match op {
            Add => mask(a.c.wrapping_add(b.c), w),
            Sub => mask(a.c.wrapping_sub(b.c), w),
            Mul => mask(a.c.wrapping_mul(b.c), w),
            // RISC-V semantics: unsigned division by zero yields all-ones.
            DivU => a.c.checked_div(b.c).unwrap_or(mask(u64::MAX, w)),
            DivS => {
                let (x, y) = (sxt(a.c, w), sxt(b.c, w));
                let r = if y == 0 { -1 } else { x.wrapping_div(y) };
                mask(r as u64, w)
            }
            RemU => {
                if b.c == 0 {
                    a.c
                } else {
                    a.c % b.c
                }
            }
            RemS => {
                let (x, y) = (sxt(a.c, w), sxt(b.c, w));
                let r = if y == 0 { x } else { x.wrapping_rem(y) };
                mask(r as u64, w)
            }
            And => a.c & b.c,
            Or => a.c | b.c,
            Xor => a.c ^ b.c,
            Shl => {
                if b.c >= u64::from(w) {
                    0
                } else {
                    mask(a.c << b.c, w)
                }
            }
            Shr => {
                if b.c >= u64::from(w) {
                    0
                } else {
                    a.c >> b.c
                }
            }
            Sar => {
                let x = sxt(a.c, w);
                let sh = b.c.min(u64::from(w) - 1) as u32;
                mask((x >> sh) as u64, w)
            }
            CmpEq => u64::from(a.c == b.c),
            CmpNe => u64::from(a.c != b.c),
            CmpLtU => u64::from(a.c < b.c),
            CmpLtS => u64::from(sxt(a.c, aw) < sxt(b.c, aw)),
            CmpGeU => u64::from(a.c >= b.c),
            CmpGeS => u64::from(sxt(a.c, aw) >= sxt(b.c, aw)),
        };
        let t = if sym {
            Some(match op {
                CmpEq | CmpNe | CmpLtU | CmpLtS | CmpGeU | CmpGeS => {
                    let ta = a.bv(tm, aw);
                    let tb = b.bv(tm, aw);
                    TermV::Bool(match op {
                        CmpEq => tm.eq(ta, tb),
                        CmpNe => tm.ne(ta, tb),
                        CmpLtU => tm.ult(ta, tb),
                        CmpLtS => tm.slt(ta, tb),
                        CmpGeU => tm.uge(ta, tb),
                        CmpGeS => tm.sge(ta, tb),
                        _ => unreachable!(),
                    })
                }
                _ => {
                    let ta = a.bv(tm, w);
                    let tb = b.bv(tm, w);
                    TermV::Bv(match op {
                        Add => tm.add(ta, tb),
                        Sub => tm.sub(ta, tb),
                        Mul => tm.mul(ta, tb),
                        DivU => tm.udiv(ta, tb),
                        DivS => tm.sdiv(ta, tb),
                        RemU => tm.urem(ta, tb),
                        RemS => tm.srem(ta, tb),
                        And => tm.bv_and(ta, tb),
                        Or => tm.bv_or(ta, tb),
                        Xor => tm.bv_xor(ta, tb),
                        Shl => tm.shl(ta, tb),
                        Shr => tm.lshr(ta, tb),
                        Sar => tm.ashr(ta, tb),
                        _ => unreachable!(),
                    })
                }
            })
        } else {
            None
        };
        Val { c, t }
    }

    /// Resolves a (possibly symbolic) data address for a `size`-byte access
    /// through the shared [`binsym::memory`] policy seam — the same
    /// implementation the formal-semantics engine uses.
    fn resolve_addr(&mut self, tm: &mut TermManager, v: Val, size: u32) -> Resolution {
        let word = SymWord {
            concrete: v.c as u32,
            term: v.t.map(|_| v.bv(tm, 32)),
        };
        self.policy
            .resolve(tm, word, size, self.pc, &mut self.trail)
    }

    fn load(&mut self, tm: &mut TermManager, addr: u32, width: AccessWidth) -> Val {
        let n = width.bytes();
        let bytes: Vec<SymByte> = (0..n)
            .map(|i| *self.mem.load(addr.wrapping_add(i)))
            .collect();
        let mut c: u64 = 0;
        for (i, b) in bytes.iter().enumerate() {
            c |= u64::from(b.concrete) << (8 * i);
        }
        let t = if bytes.iter().any(|b| b.is_symbolic()) {
            let mut t = bytes[bytes.len() - 1].term_or_const(tm);
            for b in bytes.iter().rev().skip(1) {
                let tb = b.term_or_const(tm);
                t = tm.concat(t, tb);
            }
            Some(TermV::Bv(t))
        } else {
            None
        };
        Val { c, t }
    }

    fn store(&mut self, tm: &mut TermManager, addr: u32, width: AccessWidth, v: Val) {
        let vw = width.bits();
        let term32 = v.t.map(|_| v.bv(tm, vw.max(32)));
        for i in 0..width.bytes() {
            let c = (v.c >> (8 * i)) as u8;
            let t = term32
                .map(|t| tm.extract(t, 8 * i + 7, 8 * i))
                .filter(|t| tm.as_const(*t).is_none());
            self.mem.store(
                addr.wrapping_add(i),
                SymByte {
                    concrete: c,
                    term: t,
                },
            );
        }
    }

    fn exec_block(
        &mut self,
        tm: &mut TermManager,
        block: &IrBlock,
        overhead: u32,
    ) -> Result<BlockExit, ExecError> {
        self.temps.clear();
        for s in &block.stmts {
            if overhead > 0 {
                interp_overhead_spin(overhead);
            }
            match s {
                IrStmt::SetTemp { temp, value } => {
                    let v = self.eval(tm, value);
                    self.temps.insert(*temp, v);
                }
                IrStmt::PutReg { reg, value } => {
                    let v = self.eval(tm, value);
                    let word = SymWord {
                        concrete: v.c as u32,
                        term: v.t.map(|t| match t {
                            TermV::Bv(t) => t,
                            TermV::Bool(b) => tm.bool_to_bv(b, 32),
                        }),
                    };
                    self.regs.write(Reg::new(*reg), word);
                }
                IrStmt::Store { width, addr, value } => {
                    let a = self.eval(tm, addr);
                    match self.resolve_addr(tm, a, width.bytes()) {
                        Resolution::Concrete(ca) => {
                            let v = self.eval(tm, value);
                            self.store(tm, ca, *width, v);
                        }
                        Resolution::Window {
                            concrete,
                            base,
                            term,
                            window,
                        } => {
                            let v = self.eval(tm, value);
                            let vw = width.bits();
                            let vt = v.t.map(|_| v.bv(tm, vw.max(32)));
                            memory::store_window_bytes(
                                tm,
                                &mut self.mem,
                                base,
                                window,
                                term,
                                concrete,
                                v.c as u32,
                                vt,
                                width.bytes(),
                            );
                        }
                    }
                }
                IrStmt::Exit { cond, target } => {
                    let c = self.eval(tm, cond);
                    let taken = c.c != 0;
                    if c.is_symbolic() {
                        let cb = c.boolean(tm);
                        if tm.as_bool_const(cb).is_none() {
                            self.trail.push(TrailEntry::Branch {
                                cond: cb,
                                taken,
                                pc: self.pc,
                            });
                        }
                    }
                    if taken {
                        return Ok(BlockExit::Jump(*target));
                    }
                }
                IrStmt::JumpConst(t) => return Ok(BlockExit::Jump(*t)),
                IrStmt::JumpInd(e) => {
                    // Jump targets always concretize by equality, whatever
                    // the data-access policy (the pc stays concrete).
                    let v = self.eval(tm, e);
                    let word = SymWord {
                        concrete: v.c as u32,
                        term: v.t.map(|_| v.bv(tm, 32)),
                    };
                    let target = memory::concretize_jump(tm, word, self.pc, &mut self.trail);
                    return Ok(BlockExit::Jump(target));
                }
                IrStmt::Syscall => {
                    let num = self.regs.read(Reg::A7).concrete;
                    if num == binsym::SYSCALL_EXIT {
                        return Ok(BlockExit::Exited(self.regs.read(Reg::A0).concrete));
                    }
                    return Err(ExecError::UnknownSyscall {
                        number: num,
                        pc: self.pc,
                    });
                }
                IrStmt::Breakpoint => return Ok(BlockExit::Break),
            }
        }
        Ok(BlockExit::Fallthrough)
    }
}

/// Deterministic busy work modeling per-statement interpretation overhead.
#[inline]
fn interp_overhead_spin(iters: u32) {
    let mut x = 0x9e37_79b9u32;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x = x.wrapping_add(i);
    }
    black_box(x);
}

/// The IR-based path executor (one of the paper's baseline engines),
/// pluggable into a [`binsym::Session`] via
/// [`binsym::Session::executor_builder`] or [`binsym::Session::factory_builder`].
#[derive(Debug)]
pub struct LifterExecutor {
    lifter: Lifter,
    config: EngineConfig,
    policy: AddressPolicyKind,
    elf: ElfFile,
    sym_addr: u32,
    sym_len: u32,
    cache: HashMap<u32, IrBlock>,
    scratch: Option<IrBlock>,
    /// Number of lift operations performed (cache misses + uncached lifts).
    pub lift_count: u64,
}

impl LifterExecutor {
    /// Creates an executor for a binary with a `__sym_input` region.
    ///
    /// # Errors
    /// Returns [`Error::NoSymbolicInput`] if the symbol is missing.
    pub fn new(elf: &ElfFile, config: EngineConfig) -> Result<Self, Error> {
        let (sym_addr, sym_len) = binsym::find_sym_input(elf, None)?;
        Ok(LifterExecutor {
            lifter: Lifter::new(config.bugs),
            config,
            policy: AddressPolicyKind::default(),
            elf: elf.clone(),
            sym_addr,
            sym_len,
            cache: HashMap::new(),
            scratch: None,
            lift_count: 0,
        })
    }

    /// Sets the address-concretization policy (default:
    /// [`AddressPolicyKind::ConcretizeEq`]).
    #[must_use]
    pub fn with_policy(mut self, policy: AddressPolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// The persona configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    fn fetch(m: &IrMachine, pc: u32) -> u32 {
        u32::from(m.mem.load(pc).concrete)
            | (u32::from(m.mem.load(pc.wrapping_add(1)).concrete) << 8)
            | (u32::from(m.mem.load(pc.wrapping_add(2)).concrete) << 16)
            | (u32::from(m.mem.load(pc.wrapping_add(3)).concrete) << 24)
    }

    /// Returns the lifted block for `pc`, from the cache when enabled. The
    /// uncached persona re-lifts on every fetch (into a scratch slot), like
    /// a lifter without translation caching.
    fn lift_at(&mut self, raw: u32, pc: u32) -> Result<&IrBlock, LiftError> {
        if self.config.cache_blocks {
            if !self.cache.contains_key(&pc) {
                let b = self.lifter.lift(raw, pc)?;
                self.lift_count += 1;
                self.cache.insert(pc, b);
            }
            Ok(&self.cache[&pc])
        } else {
            self.lift_count += 1;
            self.scratch = Some(self.lifter.lift(raw, pc)?);
            Ok(self.scratch.as_ref().expect("just set"))
        }
    }
}

impl PathExecutor for LifterExecutor {
    fn execute_path(
        &mut self,
        tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        obs: &mut dyn Observer,
    ) -> Result<PathOutcome, Error> {
        let mut m = IrMachine::new(self.policy);
        for seg in &self.elf.segments {
            for (i, &b) in seg.data.iter().enumerate() {
                m.mem
                    .store(seg.vaddr.wrapping_add(i as u32), SymByte::concrete(b));
            }
        }
        m.pc = self.elf.entry;
        for i in 0..self.sym_len {
            let var = tm.var(&format!("in{i}"), 8);
            let c = input.get(i as usize).copied().unwrap_or(0);
            m.mem
                .store(self.sym_addr.wrapping_add(i), SymByte::symbolic(c, var));
        }
        for _ in 0..fuel {
            obs.on_step(m.pc, m.steps);
            let raw = Self::fetch(&m, m.pc);
            let overhead = self.config.interp_overhead;
            let block = self.lift_at(raw, m.pc).map_err(|e| match e {
                LiftError::UnknownInstruction { raw, addr } => {
                    Error::Exec(ExecError::Decode(binsym_isa::DecodeError {
                        raw,
                        addr: Some(addr),
                    }))
                }
                LiftError::Unsupported { .. } => {
                    Error::Exec(ExecError::Decode(binsym_isa::DecodeError {
                        raw,
                        addr: Some(m.pc),
                    }))
                }
            })?;
            let trail_before = m.trail.len();
            let exit = m.exec_block(tm, block, overhead)?;
            m.steps += 1;
            for entry in &m.trail[trail_before..] {
                if let TrailEntry::Branch { cond, taken, pc } = *entry {
                    obs.on_branch(pc, cond, taken);
                }
            }
            match exit {
                BlockExit::Fallthrough => m.pc = block.fallthrough,
                BlockExit::Jump(t) => m.pc = t,
                BlockExit::Exited(code) => {
                    return Ok(PathOutcome {
                        exit: StepResult::Exited(code),
                        trail: m.trail,
                        steps: m.steps,
                        input: input.to_vec(),
                    })
                }
                BlockExit::Break => {
                    return Ok(PathOutcome {
                        exit: StepResult::Break,
                        trail: m.trail,
                        steps: m.steps,
                        input: input.to_vec(),
                    })
                }
            }
        }
        Err(Error::OutOfFuel {
            input: input.to_vec(),
        })
    }

    fn input_len(&self) -> u32 {
        self.sym_len
    }

    fn policy(&self) -> AddressPolicyKind {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use binsym::{NullObserver, Session};
    use binsym_asm::Assembler;

    fn explore_with(src: &str, config: EngineConfig) -> binsym::Summary {
        let elf = Assembler::new().assemble(src).expect("assembles");
        let exec = LifterExecutor::new(&elf, config).expect("sym input");
        Session::executor_builder(exec)
            .build()
            .expect("builds")
            .run_all()
            .expect("explores")
    }

    const SIGN_CHECK: &str = r#"
        .data
__sym_input: .byte 0
        .text
_start:
    la a0, __sym_input
    lb a1, 0(a0)          # signed load
    bltz a1, negative
    li a0, 0
    li a7, 93
    ecall
negative:
    li a0, 0
    li a7, 93
    ecall
"#;

    #[test]
    fn fixed_engine_finds_both_sign_paths() {
        let s = explore_with(SIGN_CHECK, EngineConfig::binsec());
        assert_eq!(s.paths, 2);
    }

    #[test]
    fn buggy_engine_misses_negative_path() {
        // With the load-extension bug, lb zero-extends: the value can never
        // be negative, so the `negative` path is lost — the Table I effect.
        let s = explore_with(SIGN_CHECK, EngineConfig::angr());
        assert_eq!(s.paths, 1);
    }

    #[test]
    fn agreement_with_spec_engine_when_fixed() {
        let src = r#"
        .data
__sym_input: .byte 0, 0
        .text
_start:
    la a0, __sym_input
    lb a1, 0(a0)
    lb a2, 1(a0)
    blt a1, a2, less
    li a0, 0
    li a7, 93
    ecall
less:
    li a0, 0
    li a7, 93
    ecall
"#;
        let elf = Assembler::new().assemble(src).unwrap();
        let s_lifter = explore_with(src, EngineConfig::binsec());
        let s_spec = Session::builder(binsym_isa::Spec::rv32im())
            .binary(&elf)
            .build()
            .unwrap()
            .run_all()
            .unwrap();
        assert_eq!(s_lifter.paths, s_spec.paths);
        assert_eq!(s_lifter.error_paths, s_spec.error_paths);
    }

    #[test]
    fn concretization_decisions_agree_with_spec_engine_across_policies() {
        // Both executors resolve symbolic addresses through the shared
        // `binsym::memory` policy seam, so on the same program and input
        // their trails must record the identical decision sequence —
        // branch directions AND concretization (pc, choice) pairs — under
        // every address policy. This is the contract that lets spec- and
        // lifter-produced prescriptions replay on either engine.
        const TABLE_LOOKUP: &str = r#"
        .data
__sym_input: .byte 0
table: .byte 10, 20, 30, 40
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    andi a1, a1, 3
    la a2, table
    add a2, a2, a1
    lbu a3, 0(a2)
    li a4, 10
    beq a3, a4, ten
    li a0, 0
    li a7, 93
    ecall
ten:
    li a0, 0
    li a7, 93
    ecall
"#;
        use binsym::{AddressPolicyKind, SpecExecutor, TrailEntry};
        let elf = Assembler::new().assemble(TABLE_LOOKUP).unwrap();
        // The trail's decision fingerprint, term handles stripped (the two
        // engines intern into different term managers).
        fn decisions(trail: &[TrailEntry]) -> Vec<(&'static str, u32, u64)> {
            trail
                .iter()
                .map(|e| match *e {
                    TrailEntry::Branch { pc, taken, .. } => ("branch", pc, u64::from(taken)),
                    TrailEntry::Concretize { pc, choice, .. } => ("concretize", pc, choice),
                })
                .collect()
        }
        for policy in [
            AddressPolicyKind::ConcretizeEq,
            AddressPolicyKind::Symbolic { window: 4 },
        ] {
            let mut spec = SpecExecutor::new(binsym_isa::Spec::rv32im(), &elf, None)
                .unwrap()
                .with_policy(policy);
            let mut lifter = LifterExecutor::new(&elf, EngineConfig::binsec())
                .unwrap()
                .with_policy(policy);
            let mut spec_tm = TermManager::new();
            let mut lifter_tm = TermManager::new();
            let s = spec
                .execute_path(&mut spec_tm, &[0], 10_000, &mut NullObserver)
                .unwrap();
            let l = lifter
                .execute_path(&mut lifter_tm, &[0], 10_000, &mut NullObserver)
                .unwrap();
            let spec_decisions = decisions(&s.trail);
            assert_eq!(
                spec_decisions,
                decisions(&l.trail),
                "{policy}: executor trails diverge"
            );
            assert!(
                spec_decisions
                    .iter()
                    .any(|(kind, _, _)| *kind == "concretize"),
                "{policy}: the symbolic load must reach the policy seam"
            );
        }
    }

    #[test]
    fn fig5_false_positive_and_negative() {
        // The paper's Fig. 5: mask = x << 31.
        //   if (x == 1)  assert(mask == 0x80000000)   // buggy: false positive
        //   else         assert(mask != 0x80000000)   // buggy: false negative
        let src = r#"
        .data
__sym_input: .word 0
        .text
_start:
    la a0, __sym_input
    lw a1, 0(a0)          # x
    slli a2, a1, 31       # mask = x << 31
    li a3, 1
    li a4, 0x80000000
    bne a1, a3, else_case
    # x == 1: assert(mask == 0x80000000)
    beq a2, a4, ok
    ebreak                 # assertion failure
else_case:
    # x != 1: assert(mask != 0x80000000)
    bne a2, a4, ok
    ebreak                 # assertion failure
ok:
    li a0, 0
    li a7, 93
    ecall
"#;
        // Correct engine: the x==1 assert holds; the x!=1 assert FAILS for
        // odd x != 1 (e.g. 3): exactly one error class, reachable.
        let fixed = explore_with(src, EngineConfig::binsec());
        assert!(
            !fixed.error_paths.is_empty(),
            "correct engine finds the real assertion failure (x odd, != 1)"
        );
        // All failures found by the fixed engine are on the else branch.
        // Buggy engine: shift by "-1" makes mask always 0 =>
        //   x==1 path: mask != 0x80000000 -> spurious failure (false positive)
        //   x!=1 path: mask never equals 0x80000000 -> misses the real
        //   failure (false negative).
        let buggy = explore_with(src, EngineConfig::angr());
        let buggy_fp = buggy
            .error_paths
            .iter()
            .any(|e| u32::from_le_bytes([e.input[0], e.input[1], e.input[2], e.input[3]]) == 1);
        assert!(buggy_fp, "buggy engine reports the spurious x == 1 failure");
        let fixed_has_x1 = fixed
            .error_paths
            .iter()
            .any(|e| u32::from_le_bytes([e.input[0], e.input[1], e.input[2], e.input[3]]) == 1);
        assert!(!fixed_has_x1, "correct engine does not fail for x == 1");
    }

    #[test]
    fn custom_instruction_fails_in_lifter() {
        use binsym_isa::encoding::MADD_YAML;
        use binsym_isa::spec::madd_semantics;
        let mut spec = binsym_isa::Spec::rv32im();
        spec.register_custom(MADD_YAML, madd_semantics()).unwrap();
        let asm = Assembler::new().with_table(spec.table().clone());
        let elf = asm
            .assemble(
                r#"
        .data
__sym_input: .byte 0
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    li a2, 3
    li a3, 4
    madd a4, a1, a2, a3
    li a0, 0
    li a7, 93
    ecall
"#,
            )
            .unwrap();
        // The lifter-based engine cannot execute the custom instruction.
        let exec = LifterExecutor::new(&elf, EngineConfig::binsec()).unwrap();
        let mut session = Session::executor_builder(exec).build().unwrap();
        assert!(session.run_all().is_err(), "lifter must reject MADD");
        // The formal-semantics engine handles it (after the 14-line spec
        // extension of the paper's case study).
        let s = Session::builder(spec)
            .binary(&elf)
            .build()
            .unwrap()
            .run_all()
            .unwrap();
        assert_eq!(s.paths, 1);
    }

    #[test]
    fn block_cache_reduces_lift_count() {
        let src = r#"
        .data
__sym_input: .byte 0
        .text
_start:
    li a2, 0
    li a3, 10
loop:
    addi a2, a2, 1
    bne a2, a3, loop
    li a0, 0
    li a7, 93
    ecall
"#;
        let elf = Assembler::new().assemble(src).unwrap();
        let mut cached = LifterExecutor::new(&elf, EngineConfig::binsec()).unwrap();
        let mut tm = TermManager::new();
        cached
            .execute_path(&mut tm, &[0], 10_000, &mut NullObserver)
            .unwrap();
        let cached_lifts = cached.lift_count;
        let mut uncached = LifterExecutor::new(
            &elf,
            EngineConfig {
                cache_blocks: false,
                interp_overhead: 0,
                bugs: LifterBugs::NONE,
            },
        )
        .unwrap();
        let mut tm = TermManager::new();
        uncached
            .execute_path(&mut tm, &[0], 10_000, &mut NullObserver)
            .unwrap();
        assert!(
            cached_lifts < uncached.lift_count,
            "cache must avoid re-lifting loop bodies ({cached_lifts} vs {})",
            uncached.lift_count
        );
    }
}
