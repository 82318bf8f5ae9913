//! Tseitin bit-blasting of bitvector terms into CNF.
//!
//! Every bitvector term is mapped to a vector of SAT literals (LSB first) and
//! every boolean term to a single literal; definitional clauses are emitted
//! into the underlying [`SatSolver`]. Results are cached per term, so the
//! hash-consed DAG structure of [`TermManager`] translates into shared
//! circuitry.
//!
//! Circuit constructions: ripple-carry adders, shift-add multipliers, barrel
//! shifters, a borrow-chain comparator, and a restoring-division circuit
//! whose divide-by-zero behaviour coincides with SMT-LIB/RISC-V (`x/0` is
//! all-ones, `x%0` is `x`).
//!
//! Adders and comparators use the compact three-input gates of Eén and
//! Sörensson ("Translating Pseudo-Boolean Constraints into SAT", JSAT
//! 2006). A full adder is an XOR3 sum and a majority carry: 2 variables
//! and 14 clauses, against 5 and 17 for the xor/and/or form. `a <u b` is
//! the borrow chain of `a - b`, one majority gate per bit: 1 variable and
//! 6 clauses, against 4 and 13 for an and/iff/and/or comparison step. A
//! 32-bit `bvult` blasts to 189 clauses and a 32-bit `bvadd` to 441. Every
//! comparison (`ult`/`ule`/`slt`/`sle`, the divider's trial subtraction,
//! the shift-overflow test) and every adder (`add`/`sub`/`neg`, `mul`,
//! `div`/`rem`, `abs`) goes through these two gates. Fewer Tseitin
//! variables also make each SAT query cheaper, since a satisfiable query
//! assigns every variable of its solver.
//!
//! A gate with constant, equal or complementary inputs folds instead of
//! allocating a variable where the result allows. A three-input gate with
//! a constant input hands the other two to a 2-input gate, which folds in
//! turn; an equal or complementary pair decides it outright.

use crate::hash::FxHashMap;
use crate::sat::{Lit, RollbackError, SatSolver};
use crate::term::{Op, Sort, Term, TermManager, VarId};

/// Blasted form of a term: one literal per bit (LSB first) or a single
/// boolean literal. Bitvector results live in the blaster's flat bits
/// arena as an `(offset, len)` window, keeping the cache `Copy` and the
/// per-flip scratch clone a plain memcpy.
#[derive(Debug, Clone, Copy)]
enum Blasted {
    Bool(Lit),
    Bits { off: u32, len: u32 },
}

/// One journaled cache insertion of a journaling blaster (see
/// [`BitBlaster::with_journal`]). The maps are insert-only, so undoing an
/// insertion restores them exactly.
#[derive(Debug, Clone, Copy)]
enum JournalEntry {
    Cache(Term),
    VarBits(VarId),
    TrueLit,
}

/// Opaque handle to a cache state of a journaling [`BitBlaster`], paired
/// with the [`crate::sat::SatCheckpoint`] of the solver it blasts into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlastCheckpoint {
    blaster: u64,
    len: usize,
    /// Bits-arena length at issue time: the arena is append-only, so
    /// rollback truncates it exactly here.
    bits_len: usize,
    /// Journal-version counter at issue time (see the solver-side
    /// equivalent in [`crate::sat`]): detects a prefix that was truncated
    /// and regrown with different insertions after this checkpoint.
    version: u64,
}

/// The bit-blaster. Owns the term→literal cache; clauses are appended to the
/// [`SatSolver`] passed to each call.
///
/// A `BitBlaster` (like the [`crate::Solver`] that wraps it) must only be
/// used with a single [`TermManager`]: term handles from different managers
/// would alias in the cache.
#[derive(Debug, Default)]
pub struct BitBlaster {
    cache: FxHashMap<Term, Blasted>,
    var_bits: FxHashMap<VarId, (u32, u32)>,
    /// Flat arena backing every [`Blasted::Bits`] window and every
    /// `var_bits` slice, LSB first. Append-only between checkpoints.
    bits: Vec<Lit>,
    true_lit: Option<Lit>,
    /// Insertion journal for [`BitBlaster::rollback`] (`None` unless the
    /// blaster was created with [`BitBlaster::with_journal`]).
    journal: Option<Vec<JournalEntry>>,
    /// Instance id tying checkpoints to the blaster that issued them
    /// (0 = unjournaled).
    journal_id: u64,
    /// Per-entry append versions (parallel to `journal`) from the
    /// monotone `journal_version` counter — detects truncated-and-regrown
    /// prefixes exactly like the solver's op versions.
    entry_versions: Vec<u64>,
    /// Next value of the append-version counter (never reset).
    journal_version: u64,
}

/// Monotonic instance ids for journaling blasters (see the solver's
/// equivalent in [`crate::sat`]).
static NEXT_JOURNAL_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl BitBlaster {
    /// Creates an empty blaster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty blaster that journals its cache insertions,
    /// enabling [`BitBlaster::checkpoint`] / [`BitBlaster::rollback`] —
    /// the cache-side half of a prefix context (the solver side is
    /// [`SatSolver::rollback`]; the two must be checkpointed and rolled
    /// back together to stay consistent). No engine code uses the journal
    /// any more: the hunt benchmark's layer rows are its last callers.
    pub fn with_journal() -> Self {
        let mut b = BitBlaster::new();
        b.journal = Some(Vec::new());
        b.journal_id = NEXT_JOURNAL_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        b
    }

    /// A checkpoint denoting the current cache state.
    ///
    /// # Errors
    /// [`RollbackError::LogDisabled`] unless the blaster was created with
    /// [`BitBlaster::with_journal`].
    pub fn checkpoint(&self) -> Result<BlastCheckpoint, RollbackError> {
        match &self.journal {
            Some(journal) => Ok(BlastCheckpoint {
                blaster: self.journal_id,
                len: journal.len(),
                bits_len: self.bits.len(),
                version: self.journal_version,
            }),
            None => Err(RollbackError::LogDisabled),
        }
    }

    /// Removes every cache entry inserted after `cp`, restoring the maps
    /// exactly (entries are only ever inserted when absent, so removal is
    /// a perfect inverse).
    ///
    /// # Errors
    /// [`RollbackError`] when the checkpoint is stale, foreign, or the
    /// blaster has no journal; the blaster is left unchanged.
    pub fn rollback(&mut self, cp: &BlastCheckpoint) -> Result<(), RollbackError> {
        let journal = self.journal.as_ref().ok_or(RollbackError::LogDisabled)?;
        if cp.blaster != self.journal_id {
            return Err(RollbackError::ForeignCheckpoint);
        }
        if cp.len > journal.len() {
            return Err(RollbackError::StaleCheckpoint);
        }
        // Same-length is not enough: a regrown prefix carries newer
        // versions than the checkpoint and is a different state.
        if cp.len > 0 && self.entry_versions[cp.len - 1] >= cp.version {
            return Err(RollbackError::StaleCheckpoint);
        }
        let mut journal = self.journal.take().expect("journal checked above");
        for entry in journal.drain(cp.len..).rev() {
            match entry {
                JournalEntry::Cache(t) => {
                    self.cache.remove(&t);
                }
                JournalEntry::VarBits(v) => {
                    self.var_bits.remove(&v);
                }
                JournalEntry::TrueLit => self.true_lit = None,
            }
        }
        self.journal = Some(journal);
        self.entry_versions.truncate(cp.len);
        // Every arena append is paired with a journal record in the same
        // call, so truncating here sheds exactly the rolled-back windows.
        self.bits.truncate(cp.bits_len);
        Ok(())
    }

    /// A clone sharing the full cache but carrying no journal — the
    /// scratch instance a prefix context blasts a flip query with.
    pub fn clone_unjournaled(&self) -> BitBlaster {
        BitBlaster {
            cache: self.cache.clone(),
            var_bits: self.var_bits.clone(),
            bits: self.bits.clone(),
            true_lit: self.true_lit,
            journal: None,
            journal_id: 0,
            entry_versions: Vec::new(),
            journal_version: 0,
        }
    }

    fn record(&mut self, entry: JournalEntry) {
        if let Some(journal) = &mut self.journal {
            journal.push(entry);
            self.entry_versions.push(self.journal_version);
            self.journal_version += 1;
        }
    }

    /// The constant-true literal (allocated on first use).
    fn tru(&mut self, sat: &mut SatSolver) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let v = sat.new_var();
        let l = Lit::pos(v);
        sat.add_clause(&[l]);
        self.true_lit = Some(l);
        self.record(JournalEntry::TrueLit);
        l
    }

    fn fls(&mut self, sat: &mut SatSolver) -> Lit {
        !self.tru(sat)
    }

    /// SAT literals backing a bitvector variable, if it has been blasted.
    pub fn var_literals(&self, v: VarId) -> Option<&[Lit]> {
        self.var_bits
            .get(&v)
            .map(|&(off, len)| &self.bits[off as usize..(off + len) as usize])
    }

    /// Copies `lits` into the bits arena and returns its window.
    fn intern_bits(&mut self, lits: &[Lit]) -> Blasted {
        let off = self.bits.len() as u32;
        self.bits.extend_from_slice(lits);
        Blasted::Bits {
            off,
            len: lits.len() as u32,
        }
    }

    /// The arena slice behind a [`Blasted::Bits`] window.
    fn window(&self, b: Blasted) -> &[Lit] {
        match b {
            Blasted::Bits { off, len } => &self.bits[off as usize..(off + len) as usize],
            Blasted::Bool(_) => panic!("expected bits"),
        }
    }

    /// Blasts a boolean term, returning its literal.
    ///
    /// # Panics
    /// Panics if `t` is not boolean.
    pub fn blast_bool(&mut self, tm: &TermManager, sat: &mut SatSolver, t: Term) -> Lit {
        match self.blast(tm, sat, t) {
            Blasted::Bool(l) => l,
            Blasted::Bits { .. } => panic!("expected boolean term"),
        }
    }

    /// Blasts a bitvector term, returning its literals (LSB first).
    ///
    /// # Panics
    /// Panics if `t` is boolean.
    pub fn blast_bits(&mut self, tm: &TermManager, sat: &mut SatSolver, t: Term) -> Vec<Lit> {
        match self.blast(tm, sat, t) {
            b @ Blasted::Bits { .. } => self.window(b).to_vec(),
            Blasted::Bool(_) => panic!("expected bitvector term"),
        }
    }

    fn blast(&mut self, tm: &TermManager, sat: &mut SatSolver, t: Term) -> Blasted {
        if let Some(&b) = self.cache.get(&t) {
            return b;
        }
        // Iterative post-order to avoid recursion depth issues on long
        // ite-chains produced by symbolic execution.
        let mut stack = vec![(t, false)];
        while let Some((cur, expanded)) = stack.pop() {
            if self.cache.contains_key(&cur) {
                continue;
            }
            if !expanded {
                stack.push((cur, true));
                for &a in tm.args(cur) {
                    stack.push((a, false));
                }
                continue;
            }
            let blasted = self.blast_node(tm, sat, cur);
            self.cache.insert(cur, blasted);
            self.record(JournalEntry::Cache(cur));
        }
        self.cache[&t]
    }

    fn blast_node(&mut self, tm: &TermManager, sat: &mut SatSolver, t: Term) -> Blasted {
        let args = tm.args(t);
        let get = |bb: &Self, i: usize| bb.cache[&args[i]];
        let bits = |bb: &Self, i: usize| bb.window(bb.cache[&args[i]]).to_vec();
        let blit = |bb: &Self, i: usize| match bb.cache[&args[i]] {
            Blasted::Bool(l) => l,
            Blasted::Bits { .. } => panic!("expected bool"),
        };
        match tm.op(t) {
            Op::BvConst(v) => {
                let w = tm.width(t);
                let out: Vec<Lit> = (0..w)
                    .map(|i| {
                        if (v >> i) & 1 == 1 {
                            self.tru(sat)
                        } else {
                            self.fls(sat)
                        }
                    })
                    .collect();
                self.intern_bits(&out)
            }
            Op::BoolConst(b) => Blasted::Bool(if b { self.tru(sat) } else { self.fls(sat) }),
            Op::Var(v) => {
                if !self.var_bits.contains_key(&v) {
                    let width = match tm.var_sort(v) {
                        Sort::Bool => 1,
                        Sort::BitVec(w) => w,
                        Sort::Array { .. } => {
                            unreachable!("array-sorted variables are not supported")
                        }
                    };
                    let off = self.bits.len() as u32;
                    for _ in 0..width {
                        let l = Lit::pos(sat.new_var());
                        self.bits.push(l);
                    }
                    self.var_bits.insert(v, (off, width));
                    self.record(JournalEntry::VarBits(v));
                }
                let (off, len) = self.var_bits[&v];
                match tm.var_sort(v) {
                    Sort::Bool => Blasted::Bool(self.bits[off as usize]),
                    Sort::BitVec(_) => Blasted::Bits { off, len },
                    Sort::Array { .. } => {
                        unreachable!("array-sorted variables are not supported")
                    }
                }
            }
            Op::Not => Blasted::Bool(!blit(self, 0)),
            Op::And => {
                let g = self.and_gate(sat, blit(self, 0), blit(self, 1));
                Blasted::Bool(g)
            }
            Op::Or => {
                let g = self.or_gate(sat, blit(self, 0), blit(self, 1));
                Blasted::Bool(g)
            }
            Op::Xor => {
                let g = self.xor_gate(sat, blit(self, 0), blit(self, 1));
                Blasted::Bool(g)
            }
            Op::Implies => {
                let g = self.or_gate(sat, !blit(self, 0), blit(self, 1));
                Blasted::Bool(g)
            }
            Op::Ite => match (get(self, 1), get(self, 2)) {
                (Blasted::Bool(a), Blasted::Bool(b)) => {
                    let g = self.mux_gate(sat, blit(self, 0), a, b);
                    Blasted::Bool(g)
                }
                (wa @ Blasted::Bits { .. }, wb @ Blasted::Bits { .. }) => {
                    let (a, b) = (self.window(wa).to_vec(), self.window(wb).to_vec());
                    let c = blit(self, 0);
                    let out: Vec<Lit> = a
                        .iter()
                        .zip(&b)
                        .map(|(&x, &y)| self.mux_gate(sat, c, x, y))
                        .collect();
                    self.intern_bits(&out)
                }
                _ => panic!("ite branch sorts differ"),
            },
            Op::Eq => match (get(self, 0), get(self, 1)) {
                (Blasted::Bool(a), Blasted::Bool(b)) => {
                    let g = self.iff_gate(sat, a, b);
                    Blasted::Bool(g)
                }
                (wa @ Blasted::Bits { .. }, wb @ Blasted::Bits { .. }) => {
                    let (a, b) = (self.window(wa).to_vec(), self.window(wb).to_vec());
                    let g = self.eq_bits(sat, &a, &b);
                    Blasted::Bool(g)
                }
                _ => panic!("eq sort mismatch"),
            },
            Op::Ult => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                Blasted::Bool(self.ult_bits(sat, &a, &b))
            }
            Op::Slt => {
                let (mut a, mut b) = (bits(self, 0), bits(self, 1));
                // Flip the sign bits and compare unsigned.
                let alen = a.len();
                a[alen - 1] = !a[alen - 1];
                let blen = b.len();
                b[blen - 1] = !b[blen - 1];
                Blasted::Bool(self.ult_bits(sat, &a, &b))
            }
            Op::Ule => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let gt = self.ult_bits(sat, &b, &a);
                Blasted::Bool(!gt)
            }
            Op::Sle => {
                let (mut a, mut b) = (bits(self, 0), bits(self, 1));
                let alen = a.len();
                a[alen - 1] = !a[alen - 1];
                let blen = b.len();
                b[blen - 1] = !b[blen - 1];
                let gt = self.ult_bits(sat, &b, &a);
                Blasted::Bool(!gt)
            }
            Op::BvNot => {
                let out: Vec<Lit> = bits(self, 0).iter().map(|&l| !l).collect();
                self.intern_bits(&out)
            }
            Op::BvNeg => {
                let a = bits(self, 0);
                let inv: Vec<Lit> = a.iter().map(|&l| !l).collect();
                let one = self.tru(sat);
                let out = self.add_with_carry(sat, &inv, None, one);
                self.intern_bits(&out)
            }
            Op::BvAnd => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let out: Vec<Lit> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| self.and_gate(sat, x, y))
                    .collect();
                self.intern_bits(&out)
            }
            Op::BvOr => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let out: Vec<Lit> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| self.or_gate(sat, x, y))
                    .collect();
                self.intern_bits(&out)
            }
            Op::BvXor => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let out: Vec<Lit> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| self.xor_gate(sat, x, y))
                    .collect();
                self.intern_bits(&out)
            }
            Op::BvAdd => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let f = self.fls(sat);
                let out = self.add_with_carry(sat, &a, Some(&b), f);
                self.intern_bits(&out)
            }
            Op::BvSub => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let binv: Vec<Lit> = b.iter().map(|&l| !l).collect();
                let t = self.tru(sat);
                let out = self.add_with_carry(sat, &a, Some(&binv), t);
                self.intern_bits(&out)
            }
            Op::BvMul => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let out = self.mul_bits(sat, &a, &b);
                self.intern_bits(&out)
            }
            Op::BvUdiv => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let (q, _r) = self.udivrem_bits(sat, &a, &b);
                self.intern_bits(&q)
            }
            Op::BvUrem => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let (_q, r) = self.udivrem_bits(sat, &a, &b);
                self.intern_bits(&r)
            }
            Op::BvSdiv => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let out = self.sdiv_bits(sat, &a, &b);
                self.intern_bits(&out)
            }
            Op::BvSrem => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let out = self.srem_bits(sat, &a, &b);
                self.intern_bits(&out)
            }
            Op::BvShl => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let f = self.fls(sat);
                let out = self.barrel_shift(sat, &a, &b, ShiftKind::Left, f);
                self.intern_bits(&out)
            }
            Op::BvLshr => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let f = self.fls(sat);
                let out = self.barrel_shift(sat, &a, &b, ShiftKind::LogicalRight, f);
                self.intern_bits(&out)
            }
            Op::BvAshr => {
                let (a, b) = (bits(self, 0), bits(self, 1));
                let sign = *a.last().expect("nonempty");
                let out = self.barrel_shift(sat, &a, &b, ShiftKind::ArithRight, sign);
                self.intern_bits(&out)
            }
            Op::Concat => {
                let (hi, lo) = (bits(self, 0), bits(self, 1));
                let mut out = lo;
                out.extend(hi);
                self.intern_bits(&out)
            }
            Op::Extract { hi, lo } => {
                let a = bits(self, 0);
                let out = a[lo as usize..=hi as usize].to_vec();
                self.intern_bits(&out)
            }
            Op::ZeroExt { add } => {
                let mut a = bits(self, 0);
                let f = self.fls(sat);
                a.extend(std::iter::repeat(f).take(add as usize));
                self.intern_bits(&a)
            }
            Op::SignExt { add } => {
                let mut a = bits(self, 0);
                let s = *a.last().expect("nonempty");
                a.extend(std::iter::repeat(s).take(add as usize));
                self.intern_bits(&a)
            }
            // Array nodes carry no bits of their own: selects walk the
            // ground chain directly, so the chain nodes blast to an empty
            // window (they still need a cache entry for the post-order
            // worklist to make progress past them).
            Op::ConstArray(_) | Op::Store => self.intern_bits(&[]),
            Op::Select => {
                // Store-chain flattening + ite-ladder: start from the
                // constant-array default and mux in each store innermost
                // to outermost, so the outermost (latest) write wins:
                //   select(store(A, i, v), j) = ite(j = i, v, select(A, j)).
                let idx = bits(self, 1);
                let w = tm.width(t);
                let mut chain: Vec<(Term, Term)> = Vec::new();
                let mut arr = args[0];
                let default = loop {
                    match tm.op(arr) {
                        Op::Store => {
                            let sa = tm.args(arr);
                            chain.push((sa[1], sa[2]));
                            arr = sa[0];
                        }
                        Op::ConstArray(d) => break d,
                        _ => unreachable!("array chains are rooted at a constant array"),
                    }
                };
                let mut acc: Vec<Lit> = (0..w)
                    .map(|i| {
                        if (default >> i) & 1 == 1 {
                            self.tru(sat)
                        } else {
                            self.fls(sat)
                        }
                    })
                    .collect();
                for &(it, vt) in chain.iter().rev() {
                    // Chain nodes are descendants of this select, so their
                    // index/value operands are already blasted and cached.
                    let ib = self.window(self.cache[&it]).to_vec();
                    let vb = self.window(self.cache[&vt]).to_vec();
                    let hit = self.eq_bits(sat, &idx, &ib);
                    acc = acc
                        .iter()
                        .zip(&vb)
                        .map(|(&old, &new)| self.mux_gate(sat, hit, new, old))
                        .collect();
                }
                self.intern_bits(&acc)
            }
        }
    }

    // ------------------------------------------------------------------
    // Gate library
    // ------------------------------------------------------------------

    fn and_gate(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        let t = self.tru(sat);
        if a == t {
            return b;
        }
        if b == t {
            return a;
        }
        if a == !t || b == !t {
            return !t;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return !t;
        }
        let g = Lit::pos(sat.new_var());
        sat.add_clause(&[!g, a]);
        sat.add_clause(&[!g, b]);
        sat.add_clause(&[g, !a, !b]);
        g
    }

    fn or_gate(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        !self.and_gate(sat, !a, !b)
    }

    fn xor_gate(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        let t = self.tru(sat);
        if a == t {
            return !b;
        }
        if b == t {
            return !a;
        }
        if a == !t {
            return b;
        }
        if b == !t {
            return a;
        }
        if a == b {
            return !t;
        }
        if a == !b {
            return t;
        }
        let g = Lit::pos(sat.new_var());
        sat.add_clause(&[!g, a, b]);
        sat.add_clause(&[!g, !a, !b]);
        sat.add_clause(&[g, !a, b]);
        sat.add_clause(&[g, a, !b]);
        g
    }

    fn iff_gate(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        !self.xor_gate(sat, a, b)
    }

    /// `cond ? a : b`
    fn mux_gate(&mut self, sat: &mut SatSolver, cond: Lit, a: Lit, b: Lit) -> Lit {
        let t = self.tru(sat);
        if cond == t {
            return a;
        }
        if cond == !t {
            return b;
        }
        if a == b {
            return a;
        }
        let g = Lit::pos(sat.new_var());
        sat.add_clause(&[!g, !cond, a]);
        sat.add_clause(&[!g, cond, b]);
        sat.add_clause(&[g, !cond, !a]);
        sat.add_clause(&[g, cond, !b]);
        g
    }

    /// `MAJ(a, b, c)`, true when at least two inputs are: one variable and
    /// six clauses. A constant input leaves the and (false) or the or
    /// (true) of the other two; an equal pair decides the vote, and a
    /// complementary pair leaves it to the third input.
    fn maj_gate(&mut self, sat: &mut SatSolver, a: Lit, b: Lit, c: Lit) -> Lit {
        let t = self.tru(sat);
        for (k, x, y) in [(a, b, c), (b, a, c), (c, a, b)] {
            if k == t {
                return self.or_gate(sat, x, y);
            }
            if k == !t {
                return self.and_gate(sat, x, y);
            }
        }
        for (x, y, z) in [(a, b, c), (a, c, b), (b, c, a)] {
            if x == y {
                return x;
            }
            if x == !y {
                return z;
            }
        }
        let g = Lit::pos(sat.new_var());
        for (x, y) in [(a, b), (a, c), (b, c)] {
            sat.add_clause(&[!g, x, y]);
            sat.add_clause(&[g, !x, !y]);
        }
        g
    }

    /// `a ⊕ b ⊕ c`: one variable and eight clauses, each ruling out the
    /// wrong output for one of the eight input rows. A constant input leaves
    /// the 2-input xor (false) or iff (true) of the other two; an equal
    /// pair cancels to the third input, a complementary one to its
    /// negation.
    fn xor3_gate(&mut self, sat: &mut SatSolver, a: Lit, b: Lit, c: Lit) -> Lit {
        let t = self.tru(sat);
        for (k, x, y) in [(a, b, c), (b, a, c), (c, a, b)] {
            if k == t {
                return self.iff_gate(sat, x, y);
            }
            if k == !t {
                return self.xor_gate(sat, x, y);
            }
        }
        for (x, y, z) in [(a, b, c), (a, c, b), (b, c, a)] {
            if x == y {
                return z;
            }
            if x == !y {
                return !z;
            }
        }
        let g = Lit::pos(sat.new_var());
        // Each pair excludes an even-parity row for `g` and the
        // complementary odd-parity row for `¬g`.
        for (x, y, z) in [(a, b, c), (!a, !b, c), (!a, b, !c), (a, !b, !c)] {
            sat.add_clause(&[!g, x, y, z]);
            sat.add_clause(&[g, !x, !y, !z]);
        }
        g
    }

    /// Full adder as an XOR3 sum and a majority carry: two variables and
    /// 14 clauses, where the xor/xor/and/and/or form took five and 17.
    fn full_adder(&mut self, sat: &mut SatSolver, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let sum = self.xor3_gate(sat, a, b, cin);
        let cout = self.maj_gate(sat, a, b, cin);
        (sum, cout)
    }

    /// Ripple-carry addition `a + b + cin` truncated to `a.len()` bits.
    /// `b = None` means zero.
    fn add_with_carry(
        &mut self,
        sat: &mut SatSolver,
        a: &[Lit],
        b: Option<&[Lit]>,
        cin: Lit,
    ) -> Vec<Lit> {
        let f = self.fls(sat);
        let mut carry = cin;
        let mut out = Vec::with_capacity(a.len());
        for (i, &ai) in a.iter().enumerate() {
            let bi = b.map_or(f, |b| b[i]);
            let (s, c) = self.full_adder(sat, ai, bi, carry);
            out.push(s);
            carry = c;
        }
        out
    }

    fn eq_bits(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.tru(sat);
        for (&x, &y) in a.iter().zip(b) {
            let e = self.iff_gate(sat, x, y);
            acc = self.and_gate(sat, acc, e);
        }
        acc
    }

    /// Unsigned `a < b` as the borrow chain of `a - b`, LSB first: bit
    /// `i` decides the borrow when `¬aᵢ` and `bᵢ` agree (`aᵢ < bᵢ`
    /// borrows, `aᵢ > bᵢ` does not) and otherwise passes the borrow from
    /// below on, so `lt' = MAJ(¬aᵢ, bᵢ, lt)`. That is one majority gate
    /// (1 variable, 6 clauses) per bit, where the and/iff/and/or form took
    /// 4 and 13; bit 0 has no borrow in and folds to a 2-input and.
    fn ult_bits(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> Lit {
        let mut lt = self.fls(sat);
        for (&x, &y) in a.iter().zip(b) {
            lt = self.maj_gate(sat, !x, y, lt);
        }
        lt
    }

    fn mul_bits(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let f = self.fls(sat);
        let mut acc = vec![f; w];
        for i in 0..w {
            // Partial product: (b << i) masked by a[i]; bits above w truncate.
            let mut partial = vec![f; w];
            for j in i..w {
                partial[j] = self.and_gate(sat, a[i], b[j - i]);
            }
            acc = self.add_with_carry(sat, &acc, Some(&partial), f);
        }
        acc
    }

    /// Restoring division: returns `(quotient, remainder)`.
    ///
    /// For a zero divisor the circuit naturally produces `q = all-ones`,
    /// `r = a`, matching SMT-LIB `bvudiv`/`bvurem` and RISC-V `DIVU`/`REMU`.
    fn udivrem_bits(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let f = self.fls(sat);
        // (w+1)-bit working remainder; divisor zero-extended.
        let mut rem: Vec<Lit> = vec![f; w + 1];
        let mut bext: Vec<Lit> = b.to_vec();
        bext.push(f);
        let mut q = vec![f; w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i]
            let mut shifted = Vec::with_capacity(w + 1);
            shifted.push(a[i]);
            shifted.extend_from_slice(&rem[..w]);
            // cmp = shifted >= bext  <=>  !(shifted < bext)
            let lt = self.ult_bits(sat, &shifted, &bext);
            let ge = !lt;
            // diff = shifted - bext
            let binv: Vec<Lit> = bext.iter().map(|&l| !l).collect();
            let t = self.tru(sat);
            let diff = self.add_with_carry(sat, &shifted, Some(&binv), t);
            // rem = ge ? diff : shifted
            rem = shifted
                .iter()
                .zip(&diff)
                .map(|(&s, &d)| self.mux_gate(sat, ge, d, s))
                .collect();
            q[i] = ge;
        }
        (q, rem[..w].to_vec())
    }

    fn neg_bits(&mut self, sat: &mut SatSolver, a: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = a.iter().map(|&l| !l).collect();
        let t = self.tru(sat);
        self.add_with_carry(sat, &inv, None, t)
    }

    fn abs_bits(&mut self, sat: &mut SatSolver, a: &[Lit]) -> Vec<Lit> {
        let sign = *a.last().expect("nonempty");
        let neg = self.neg_bits(sat, a);
        a.iter()
            .zip(&neg)
            .map(|(&x, &n)| self.mux_gate(sat, sign, n, x))
            .collect()
    }

    fn is_zero(&mut self, sat: &mut SatSolver, a: &[Lit]) -> Lit {
        let mut acc = self.tru(sat);
        for &l in a {
            acc = self.and_gate(sat, acc, !l);
        }
        acc
    }

    /// Signed division with RISC-V `DIV` semantics (`x / 0 = -1`,
    /// `MIN / -1 = MIN`).
    fn sdiv_bits(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let sa = *a.last().expect("nonempty");
        let sb = *b.last().expect("nonempty");
        let aa = self.abs_bits(sat, a);
        let ab = self.abs_bits(sat, b);
        let (q, _) = self.udivrem_bits(sat, &aa, &ab);
        let qneg = self.neg_bits(sat, &q);
        let flip = self.xor_gate(sat, sa, sb);
        let signed_q: Vec<Lit> = q
            .iter()
            .zip(&qneg)
            .map(|(&x, &n)| self.mux_gate(sat, flip, n, x))
            .collect();
        // Divide-by-zero override: result is all-ones.
        let bz = self.is_zero(sat, b);
        let t = self.tru(sat);
        signed_q
            .iter()
            .map(|&x| self.mux_gate(sat, bz, t, x))
            .collect()
    }

    /// Signed remainder with RISC-V `REM` semantics (`x % 0 = x`,
    /// `MIN % -1 = 0`); sign follows the dividend.
    fn srem_bits(&mut self, sat: &mut SatSolver, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let sa = *a.last().expect("nonempty");
        let aa = self.abs_bits(sat, a);
        let ab = self.abs_bits(sat, b);
        let (_, r) = self.udivrem_bits(sat, &aa, &ab);
        let rneg = self.neg_bits(sat, &r);
        let signed_r: Vec<Lit> = r
            .iter()
            .zip(&rneg)
            .map(|(&x, &n)| self.mux_gate(sat, sa, n, x))
            .collect();
        // Divide-by-zero override: remainder is the dividend.
        let bz = self.is_zero(sat, b);
        signed_r
            .iter()
            .zip(a)
            .map(|(&x, &orig)| self.mux_gate(sat, bz, orig, x))
            .collect()
    }

    fn barrel_shift(
        &mut self,
        sat: &mut SatSolver,
        a: &[Lit],
        amount: &[Lit],
        kind: ShiftKind,
        fill: Lit,
    ) -> Vec<Lit> {
        let w = a.len();
        let stages = usize::BITS - (w - 1).leading_zeros(); // ceil(log2(w))
        let mut cur = a.to_vec();
        for k in 0..stages {
            let sh = 1usize << k;
            let ctl = amount[k as usize];
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted_bit = match kind {
                    ShiftKind::Left => {
                        if i >= sh {
                            cur[i - sh]
                        } else {
                            fill
                        }
                    }
                    ShiftKind::LogicalRight | ShiftKind::ArithRight => {
                        if i + sh < w {
                            cur[i + sh]
                        } else {
                            fill
                        }
                    }
                };
                next.push(self.mux_gate(sat, ctl, shifted_bit, cur[i]));
            }
            cur = next;
        }
        // Any set bit of the amount at positions >= stages means shift >= w
        // (for widths that are powers of two; otherwise also check the
        // in-range stages overflow via comparison).
        let mut overflow = self.fls(sat);
        for &high_bit in &amount[stages as usize..] {
            overflow = self.or_gate(sat, overflow, high_bit);
        }
        if !w.is_power_of_two() {
            // amount[0..stages] may still encode a value >= w:
            // ge = !(amount[0..stages] <u w)
            let amt_low = &amount[..stages as usize];
            let wbits: Vec<Lit> = (0..stages)
                .map(|i| {
                    if (w >> i) & 1 == 1 {
                        self.tru(sat)
                    } else {
                        self.fls(sat)
                    }
                })
                .collect();
            let lt = self.ult_bits(sat, amt_low, &wbits);
            overflow = self.or_gate(sat, overflow, !lt);
        }
        cur.into_iter()
            .map(|l| self.mux_gate(sat, overflow, fill, l))
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithRight,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;

    /// Asserts that `t` (bool) is satisfiable and returns a model value of
    /// variable `name`.
    fn solve_for(tm: &mut TermManager, t: Term, name: &str) -> Option<u64> {
        let mut sat = SatSolver::new();
        let mut bb = BitBlaster::new();
        let lit = bb.blast_bool(tm, &mut sat, t);
        sat.add_clause(&[lit]);
        if sat.solve(&[]) != SatResult::Sat {
            return None;
        }
        let v = tm.find_var(name)?;
        let bits = bb.var_literals(v)?;
        let mut val = 0u64;
        for (i, &l) in bits.iter().enumerate() {
            if sat.value(l.var()) == Some(!l.is_neg()) {
                val |= 1 << i;
            }
        }
        Some(val)
    }

    fn is_sat(tm: &mut TermManager, t: Term) -> bool {
        let mut sat = SatSolver::new();
        let mut bb = BitBlaster::new();
        let lit = bb.blast_bool(tm, &mut sat, t);
        sat.add_clause(&[lit]);
        sat.solve(&[]) == SatResult::Sat
    }

    #[test]
    fn solve_addition() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let c3 = tm.bv_const(3, 8);
        let c10 = tm.bv_const(10, 8);
        let s = tm.add(x, c3);
        let eq = tm.eq(s, c10);
        assert_eq!(solve_for(&mut tm, eq, "x"), Some(7));
    }

    #[test]
    fn solve_multiplication() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let c6 = tm.bv_const(6, 8);
        let c42 = tm.bv_const(42, 8);
        let m = tm.mul(x, c6);
        let eq = tm.eq(m, c42);
        let v = solve_for(&mut tm, eq, "x").expect("sat");
        assert_eq!((v * 6) & 0xff, 42);
    }

    #[test]
    fn unsat_contradiction() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let c1 = tm.bv_const(1, 8);
        let s = tm.add(x, c1);
        let eq = tm.eq(s, x); // x + 1 == x is unsat
        assert!(!is_sat(&mut tm, eq));
    }

    #[test]
    fn division_circuit() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let c7 = tm.bv_const(7, 8);
        let c5 = tm.bv_const(5, 8);
        let q = tm.udiv(x, c7);
        let eq = tm.eq(q, c5); // x / 7 == 5  =>  x in 35..=41
        let v = solve_for(&mut tm, eq, "x").expect("sat");
        assert!((35..=41).contains(&v), "got {v}");
    }

    #[test]
    fn division_by_zero_circuit() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let z = tm.var("z", 8);
        let zero = tm.bv_const(0, 8);
        let allones = tm.bv_const(0xff, 8);
        let zz = tm.eq(z, zero);
        let q = tm.udiv(x, z);
        let qo = tm.eq(q, allones);
        let and = tm.and(zz, qo);
        assert!(is_sat(&mut tm, and));
        // But q == 0xff with z == 0 being *violated* is unsat:
        let nqo = tm.not(qo);
        let bad = tm.and(zz, nqo);
        assert!(!is_sat(&mut tm, bad));
    }

    #[test]
    fn signed_compare_circuit() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let zero = tm.bv_const(0, 8);
        let lt = tm.slt(x, zero);
        let v = solve_for(&mut tm, lt, "x").expect("sat");
        assert!(v & 0x80 != 0, "negative value expected, got {v:#x}");
    }

    #[test]
    fn shift_circuit() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let c3 = tm.bv_const(3, 8);
        let c8 = tm.bv_const(8, 8);
        let sh = tm.shl(x, c3);
        let eq = tm.eq(sh, c8); // x << 3 == 8 => x & 0x1f == 1
        let v = solve_for(&mut tm, eq, "x").expect("sat");
        assert_eq!((v << 3) & 0xff, 8);
    }

    #[test]
    fn variable_shift_amount() {
        let mut tm = TermManager::new();
        let s = tm.var("s", 8);
        let one = tm.bv_const(1, 8);
        let c16 = tm.bv_const(16, 8);
        let sh = tm.shl(one, s);
        let eq = tm.eq(sh, c16);
        assert_eq!(solve_for(&mut tm, eq, "s"), Some(4));
    }

    #[test]
    fn shift_overflow_yields_zero() {
        let mut tm = TermManager::new();
        let s = tm.var("s", 8);
        let one = tm.bv_const(1, 8);
        let c8 = tm.bv_const(8, 8);
        let zero = tm.bv_const(0, 8);
        let sh = tm.shl(one, s);
        let ge8 = tm.uge(s, c8);
        let nz = tm.ne(sh, zero);
        let both = tm.and(ge8, nz);
        assert!(!is_sat(&mut tm, both), "shift >= width must produce 0");
    }

    #[test]
    fn ashr_replicates_sign() {
        let mut tm = TermManager::new();
        let x = tm.bv_const(0x80, 8);
        let s = tm.var("s", 8);
        let c7 = tm.bv_const(7, 8);
        let sh = tm.ashr(x, s);
        let eqs = tm.eq(s, c7);
        let allones = tm.bv_const(0xff, 8);
        let eqr = tm.eq(sh, allones);
        let both = tm.and(eqs, eqr);
        assert!(is_sat(&mut tm, both));
    }

    #[test]
    fn journal_rollback_restores_cache_exactly() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let c3 = tm.bv_const(3, 8);
        let lt = tm.ult(x, c3);

        // Control: blast only `lt` on a fresh pair.
        let mut control_sat = SatSolver::new();
        let mut control_bb = BitBlaster::new();
        let control_lit = control_bb.blast_bool(&tm, &mut control_sat, lt);

        // Journaled: blast `lt`, checkpoint, blast an unrelated term on a
        // logged solver, roll both back — blasting `lt`-derived terms again
        // must be pure cache hits producing the control's literals.
        let mut sat = SatSolver::with_op_log();
        let mut bb = BitBlaster::with_journal();
        let lit = bb.blast_bool(&tm, &mut sat, lt);
        assert_eq!(lit, control_lit, "same op sequence, same literals");
        let sat_cp = sat.checkpoint().expect("logged");
        let bb_cp = bb.checkpoint().expect("journaled");
        let nvars = sat.num_vars();

        let y = tm.var("y", 8);
        let yy = tm.add(y, y);
        let extra = tm.eq(yy, c3);
        let _ = bb.blast_bool(&tm, &mut sat, extra);
        assert!(sat.num_vars() > nvars);

        bb.rollback(&bb_cp).expect("valid");
        sat.rollback(&sat_cp).expect("valid");
        assert_eq!(sat.num_vars(), nvars, "extra vars shed");
        assert_eq!(bb.blast_bool(&tm, &mut sat, lt), control_lit, "cache kept");
        assert_eq!(sat.num_vars(), nvars, "re-blast was a pure cache hit");
        // Re-blasting the unrelated term re-allocates deterministically.
        let again = bb.blast_bool(&tm, &mut sat, extra);
        let mut sat2 = SatSolver::new();
        let mut bb2 = BitBlaster::new();
        let _ = bb2.blast_bool(&tm, &mut sat2, lt);
        assert_eq!(again, bb2.blast_bool(&tm, &mut sat2, extra));
    }

    #[test]
    fn journal_rollback_rejects_stale_foreign_and_unjournaled() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 4);
        let mut bb = BitBlaster::with_journal();
        let mut sat = SatSolver::new();
        let early = bb.checkpoint().expect("journaled");
        let _ = bb.blast_bits(&tm, &mut sat, x);
        let late = bb.checkpoint().expect("journaled");
        bb.rollback(&early).expect("valid");
        assert_eq!(bb.rollback(&late), Err(RollbackError::StaleCheckpoint));
        // Regrowing the journal to the same length does not resurrect the
        // stale checkpoint: the content differs.
        let y = tm.var("y", 4);
        let _ = bb.blast_bits(&tm, &mut sat, y);
        assert_eq!(bb.rollback(&late), Err(RollbackError::StaleCheckpoint));
        let plain = BitBlaster::new();
        assert_eq!(plain.checkpoint(), Err(RollbackError::LogDisabled));
        let mut other = BitBlaster::with_journal();
        assert_eq!(
            other.rollback(&early),
            Err(RollbackError::ForeignCheckpoint)
        );
    }

    #[test]
    fn select_circuit_inverts_table() {
        // table = [0x10, 0x20, 0x30, 0x40] over a zero default; solving
        // select(table, i) == 0x30 must produce i == 2, and asking for a
        // value not in the table (with i bounded to it) must be unsat.
        let mut tm = TermManager::new();
        let mut arr = tm.array_const(0, 32, 8);
        for (k, v) in [0x10u64, 0x20, 0x30, 0x40].into_iter().enumerate() {
            let i = tm.bv_const(k as u64, 32);
            let v = tm.bv_const(v, 8);
            arr = tm.store(arr, i, v);
        }
        let i = tm.var("i", 32);
        let four = tm.bv_const(4, 32);
        let bound = tm.ult(i, four);
        let sel = tm.select(arr, i);
        let c30 = tm.bv_const(0x30, 8);
        let hit = tm.eq(sel, c30);
        let both = tm.and(bound, hit);
        assert_eq!(solve_for(&mut tm, both, "i"), Some(2));
        let c99 = tm.bv_const(0x99, 8);
        let miss = tm.eq(sel, c99);
        let bad = tm.and(bound, miss);
        assert!(!is_sat(&mut tm, bad));
    }

    #[test]
    fn select_circuit_latest_store_wins() {
        let mut tm = TermManager::new();
        let a0 = tm.array_const(0, 8, 8);
        let j = tm.var("j", 8);
        let k = tm.var("k", 8);
        let v1 = tm.bv_const(1, 8);
        let v2 = tm.bv_const(2, 8);
        let a1 = tm.store(a0, j, v1);
        let a2 = tm.store(a1, k, v2);
        let sel = tm.select(a2, j);
        // If j == k the outer store shadows the inner: sel must be 2.
        let jk = tm.eq(j, k);
        let one = tm.eq(sel, v1);
        let bad = tm.and(jk, one);
        assert!(!is_sat(&mut tm, bad), "outermost store must win");
        let two = tm.eq(sel, v2);
        let good = tm.and(jk, two);
        assert!(is_sat(&mut tm, good));
    }

    #[test]
    fn sext_zext_circuit() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let se = tm.sext(x, 16);
        let c = tm.bv_const(0xff80, 16);
        let eq = tm.eq(se, c);
        assert_eq!(solve_for(&mut tm, eq, "x"), Some(0x80));
    }
}
