//! Word-level static analysis over the hash-consed term DAG.
//!
//! A memoized bottom-up dataflow pass computes, per node, a [`BvFact`]
//! combining **known bits** (must-0 / must-1 masks) and an **unsigned
//! interval** `[lo, hi]`; boolean nodes get a three-valued verdict. On top
//! of the per-node lattice, an [`Analysis`] accumulates *assumptions*
//! (path-condition conjuncts): truth values for boolean terms, interval
//! refinements from comparisons against constants, and an **order
//! closure** — a `≤`/`<` digraph over bitvector term handles fed by
//! assumed `Ult`/`Ule`/`Eq` facts, queried by BFS reachability so that
//! transitive and complement consequences (`a ≤ b ∧ b ≤ c ⟹ a ≤ c`,
//! `a < b ⟹ ¬(b ≤ a)`) fold later comparisons without any SAT call.
//!
//! Every transfer function mirrors [`crate::eval`] exactly (division by
//! zero, shift clamping, sign extension), which the property suite in
//! `tests/prop_analysis.rs` pins at random points: a fact is *sound* iff
//! the concrete value of the term lies inside it for every assignment
//! satisfying the assumptions.
//!
//! The analysis never allocates terms — it reads the DAG through
//! `&TermManager` — so running it cannot perturb hash-consing order (and
//! therefore cannot perturb CNF encodings or solver models downstream).

use std::collections::VecDeque;

use crate::hash::FxHashMap;
use crate::term::{mask, to_signed, Op, Sort, Term, TermManager};

/// Known-bits + unsigned-interval abstract value of a bitvector term.
///
/// Invariants after [`BvFact::normalize`]: `zeros & ones == 0`,
/// `ones <= lo <= hi <= mask(width) & !zeros` — unless the fact is
/// [empty](BvFact::is_empty) (contradictory assumptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BvFact {
    /// Width of the described term in bits.
    pub width: u32,
    /// Bits known to be `0` in every satisfying assignment.
    pub zeros: u64,
    /// Bits known to be `1` in every satisfying assignment.
    pub ones: u64,
    /// Inclusive unsigned lower bound.
    pub lo: u64,
    /// Inclusive unsigned upper bound.
    pub hi: u64,
}

impl BvFact {
    /// The unconstrained fact: nothing known beyond the width.
    pub fn top(width: u32) -> Self {
        Self {
            width,
            zeros: 0,
            ones: 0,
            lo: 0,
            hi: mask(width),
        }
    }

    /// The singleton fact for a constant value (masked to the width).
    pub fn constant(v: u64, width: u32) -> Self {
        let v = v & mask(width);
        Self {
            width,
            zeros: !v & mask(width),
            ones: v,
            lo: v,
            hi: v,
        }
    }

    /// `Some(v)` iff the fact pins its term to the single value `v`.
    pub fn as_const(&self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        if self.lo == self.hi {
            return Some(self.lo);
        }
        if self.zeros | self.ones == mask(self.width) {
            return Some(self.ones);
        }
        None
    }

    /// True when no concrete value satisfies the fact — the assumptions
    /// that produced it are contradictory.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi || self.zeros & self.ones != 0
    }

    /// Tightens bits from the interval and the interval from bits (both
    /// directions commute after two rounds). Sound over-approximation.
    #[must_use]
    pub fn normalize(mut self) -> Self {
        let m = mask(self.width);
        for _ in 0..2 {
            if self.is_empty() {
                return self;
            }
            // Bits → interval.
            self.lo = self.lo.max(self.ones);
            self.hi = self.hi.min(m & !self.zeros);
            if self.lo > self.hi {
                return self;
            }
            // Interval → bits: every value in [lo, hi] agrees with `lo` on
            // all bits above the most significant differing bit.
            let diff = self.lo ^ self.hi;
            let fixed = if diff == 0 {
                m
            } else {
                let msb = 63 - diff.leading_zeros();
                if msb >= 63 {
                    0
                } else {
                    (u64::MAX << (msb + 1)) & m
                }
            };
            self.ones |= self.lo & fixed;
            self.zeros |= !self.lo & fixed;
        }
        self
    }

    /// Conjunction of two facts about the same term.
    #[must_use]
    pub fn intersect(self, other: Self) -> Self {
        debug_assert_eq!(self.width, other.width);
        Self {
            width: self.width,
            zeros: self.zeros | other.zeros,
            ones: self.ones | other.ones,
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
        .normalize()
    }
}

/// Abstract value of an arbitrary term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Three-valued boolean: `None` = unknown.
    Bool(Option<bool>),
    /// Bitvector fact.
    Bv(BvFact),
    /// Array-sorted node (store chain / constant array): opaque. Facts
    /// about array *contents* surface through the [`Op::Select`] transfer.
    Array,
}

/// Accumulated word-level assumptions plus the memoized dataflow pass.
///
/// Typical use: [`Analysis::assume`] every path-condition conjunct, then
/// ask [`Analysis::verdict`] for the flipped branch condition. `Some(_)`
/// verdicts are sound consequences of the assumptions; `None` means the
/// query is residual and must go to the solver.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Assumed / derived truth values of boolean terms.
    facts: FxHashMap<Term, bool>,
    /// Interval refinements from comparisons against constants.
    refined: FxHashMap<Term, (u64, u64)>,
    /// Order-closure node ids (insertion order — deterministic).
    node_of: FxHashMap<Term, usize>,
    /// Adjacency: `adj[a]` holds `(b, strict)` edges meaning `a ≤ b`
    /// (`strict` ⟹ `a < b`).
    adj: Vec<Vec<(usize, bool)>>,
    /// Total number of order edges recorded.
    edges: u64,
    /// Set when the assumption set is detectably contradictory; every
    /// verdict then degrades to `None` (the caller falls back to SAT).
    contradictory: bool,
    /// Memoized abstract values; cleared on every new assumption.
    memo: FxHashMap<Term, AbsVal>,
}

impl Analysis {
    /// Empty analysis: no assumptions, structural facts only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of word-level facts recorded so far (boolean truth values,
    /// interval refinements, and order edges).
    pub fn fact_count(&self) -> u64 {
        self.facts.len() as u64 + self.refined.len() as u64 + self.edges
    }

    /// True when the assumptions were detected to be contradictory.
    pub fn is_contradictory(&self) -> bool {
        self.contradictory
    }

    /// Assume `conjunct` to hold, splitting conjunctions and negations and
    /// recording comparison facts, interval refinements, and order edges.
    pub fn assume(&mut self, tm: &TermManager, conjunct: Term) {
        self.memo.clear();
        let mut work = vec![(conjunct, true)];
        while let Some((t, polarity)) = work.pop() {
            match tm.op(t) {
                Op::BoolConst(b) => {
                    if b != polarity {
                        self.contradictory = true;
                    }
                }
                Op::Not => work.push((tm.args(t)[0], !polarity)),
                Op::And if polarity => {
                    let a = tm.args(t);
                    work.push((a[0], true));
                    work.push((a[1], true));
                }
                Op::Or if !polarity => {
                    let a = tm.args(t);
                    work.push((a[0], false));
                    work.push((a[1], false));
                }
                Op::Implies if !polarity => {
                    let a = tm.args(t);
                    work.push((a[0], true));
                    work.push((a[1], false));
                }
                _ => self.record(tm, t, polarity),
            }
        }
    }

    /// Records one literal-level fact (after conjunct splitting).
    fn record(&mut self, tm: &TermManager, t: Term, polarity: bool) {
        if let Some(&prev) = self.facts.get(&t) {
            if prev != polarity {
                self.contradictory = true;
            }
            return;
        }
        self.facts.insert(t, polarity);
        let args = tm.args(t);
        match tm.op(t) {
            Op::Ult => {
                let (a, b) = (args[0], args[1]);
                if polarity {
                    // a < b
                    self.edge(a, b, true);
                    if let Some(c) = tm.as_const(b) {
                        if c == 0 {
                            self.contradictory = true;
                        } else {
                            self.refine_hi(a, c - 1);
                        }
                    }
                    if let Some(c) = tm.as_const(a) {
                        if c == mask(tm.width(a)) {
                            self.contradictory = true;
                        } else {
                            self.refine_lo(b, c + 1);
                        }
                    }
                } else {
                    // b ≤ a
                    self.edge(b, a, false);
                    if let Some(c) = tm.as_const(b) {
                        self.refine_lo(a, c);
                    }
                    if let Some(c) = tm.as_const(a) {
                        self.refine_hi(b, c);
                    }
                }
            }
            Op::Ule => {
                let (a, b) = (args[0], args[1]);
                if polarity {
                    // a ≤ b
                    self.edge(a, b, false);
                    if let Some(c) = tm.as_const(b) {
                        self.refine_hi(a, c);
                    }
                    if let Some(c) = tm.as_const(a) {
                        self.refine_lo(b, c);
                    }
                } else {
                    // b < a
                    self.edge(b, a, true);
                    if let Some(c) = tm.as_const(b) {
                        if c == mask(tm.width(b)) {
                            self.contradictory = true;
                        } else {
                            self.refine_lo(a, c + 1);
                        }
                    }
                    if let Some(c) = tm.as_const(a) {
                        if c == 0 {
                            self.contradictory = true;
                        } else {
                            self.refine_hi(b, c - 1);
                        }
                    }
                }
            }
            Op::Eq if tm.sort(args[0]).is_bitvec() => {
                let (a, b) = (args[0], args[1]);
                if polarity {
                    // a = b: order edges both ways, singleton refinement
                    // when one side is a constant.
                    self.edge(a, b, false);
                    self.edge(b, a, false);
                    if let Some(c) = tm.as_const(b) {
                        self.refine_lo(a, c);
                        self.refine_hi(a, c);
                    }
                    if let Some(c) = tm.as_const(a) {
                        self.refine_lo(b, c);
                        self.refine_hi(b, c);
                    }
                }
            }
            _ => {}
        }
    }

    fn edge(&mut self, a: Term, b: Term, strict: bool) {
        let na = self.node(a);
        let nb = self.node(b);
        self.adj[na].push((nb, strict));
        self.edges += 1;
    }

    fn node(&mut self, t: Term) -> usize {
        if let Some(&n) = self.node_of.get(&t) {
            return n;
        }
        let n = self.adj.len();
        self.node_of.insert(t, n);
        self.adj.push(Vec::new());
        n
    }

    fn refine_lo(&mut self, t: Term, lo: u64) {
        let e = self.refined.entry(t).or_insert((0, u64::MAX));
        e.0 = e.0.max(lo);
        if e.0 > e.1 {
            self.contradictory = true;
        }
    }

    fn refine_hi(&mut self, t: Term, hi: u64) {
        let e = self.refined.entry(t).or_insert((0, u64::MAX));
        e.1 = e.1.min(hi);
        if e.0 > e.1 {
            self.contradictory = true;
        }
    }

    /// Is `to` reachable from `from` in the order digraph — through a path
    /// containing at least one strict edge when `need_strict` is set?
    fn reach(&self, from: Term, to: Term, need_strict: bool) -> bool {
        if from == to {
            return !need_strict;
        }
        let (Some(&s), Some(&d)) = (self.node_of.get(&from), self.node_of.get(&to)) else {
            return false;
        };
        let n = self.adj.len();
        let mut weak = vec![false; n];
        let mut strict = vec![false; n];
        let mut queue = VecDeque::new();
        weak[s] = true;
        queue.push_back((s, false));
        while let Some((u, st)) = queue.pop_front() {
            if u == d && (st || !need_strict) {
                return true;
            }
            for &(v, e_strict) in &self.adj[u] {
                let ns = st || e_strict;
                let seen = if ns { &mut strict[v] } else { &mut weak[v] };
                if !*seen {
                    *seen = true;
                    queue.push_back((v, ns));
                }
            }
        }
        false
    }

    /// Truth value of a boolean term under the assumptions, or `None` if
    /// the analysis cannot decide it (residual — needs the solver).
    pub fn verdict(&mut self, tm: &TermManager, t: Term) -> Option<bool> {
        if self.contradictory {
            return None;
        }
        let v = match self.abs(tm, t) {
            AbsVal::Bool(b) => b,
            AbsVal::Bv(_) | AbsVal::Array => None,
        };
        if self.contradictory {
            return None;
        }
        v
    }

    /// Known-bits + interval fact of a bitvector term under the
    /// assumptions.
    ///
    /// # Panics
    /// Panics if `t` is boolean-sorted.
    pub fn bv_fact(&mut self, tm: &TermManager, t: Term) -> BvFact {
        match self.abs(tm, t) {
            AbsVal::Bv(f) => f,
            AbsVal::Bool(_) | AbsVal::Array => panic!("bv_fact on a non-bitvector term"),
        }
    }

    /// `Some(v)` iff the assumptions force the bitvector term `t` to the
    /// single value `v`.
    pub fn forced_value(&mut self, tm: &TermManager, t: Term) -> Option<u64> {
        if self.contradictory || !tm.sort(t).is_bitvec() {
            return None;
        }
        let f = self.bv_fact(tm, t);
        if self.contradictory {
            return None;
        }
        f.as_const()
    }

    /// Memoized bottom-up abstract evaluation (iterative post-order, like
    /// [`crate::eval`], so deep DAGs cannot overflow the stack).
    fn abs(&mut self, tm: &TermManager, root: Term) -> AbsVal {
        if let Some(&v) = self.memo.get(&root) {
            return v;
        }
        let mut stack = vec![root];
        while let Some(&t) = stack.last() {
            if self.memo.contains_key(&t) {
                stack.pop();
                continue;
            }
            let mut ready = true;
            for &a in tm.args(t) {
                if !self.memo.contains_key(&a) {
                    stack.push(a);
                    ready = false;
                }
            }
            if !ready {
                continue;
            }
            let v = self.transfer(tm, t);
            self.memo.insert(t, v);
            stack.pop();
        }
        self.memo[&root]
    }

    /// Per-node transfer function; children are already memoized.
    fn transfer(&mut self, tm: &TermManager, t: Term) -> AbsVal {
        let args = tm.args(t);
        let bf = |an: &Self, i: usize| match an.memo[&args[i]] {
            AbsVal::Bool(b) => b,
            AbsVal::Bv(_) | AbsVal::Array => unreachable!("bool operand expected"),
        };
        let vf = |an: &Self, i: usize| match an.memo[&args[i]] {
            AbsVal::Bv(f) => f,
            AbsVal::Bool(_) | AbsVal::Array => unreachable!("bv operand expected"),
        };
        let out = match tm.sort(t) {
            Sort::Bool => {
                let structural = self.bool_transfer(tm, t, &bf, &vf);
                // Overlay assumed truth values; a conflict with a sound
                // structural value means the assumptions are contradictory.
                match (structural, self.facts.get(&t).copied()) {
                    (Some(s), Some(k)) if s != k => {
                        self.contradictory = true;
                        AbsVal::Bool(Some(k))
                    }
                    (_, Some(k)) => AbsVal::Bool(Some(k)),
                    (s, None) => AbsVal::Bool(s),
                }
            }
            Sort::BitVec(w) => {
                let mut f = self.bv_transfer(tm, t, w, &bf, &vf);
                if let Some(&(lo, hi)) = self.refined.get(&t) {
                    f = f.intersect(BvFact {
                        width: w,
                        zeros: 0,
                        ones: 0,
                        lo,
                        hi: hi.min(mask(w)),
                    });
                }
                let f = f.normalize();
                if f.is_empty() {
                    self.contradictory = true;
                }
                AbsVal::Bv(f)
            }
            Sort::Array { .. } => AbsVal::Array,
        };
        out
    }

    #[allow(clippy::too_many_lines)]
    fn bool_transfer(
        &self,
        tm: &TermManager,
        t: Term,
        bf: &dyn Fn(&Self, usize) -> Option<bool>,
        vf: &dyn Fn(&Self, usize) -> BvFact,
    ) -> Option<bool> {
        let args = tm.args(t);
        match tm.op(t) {
            Op::BoolConst(b) => Some(b),
            Op::Var(_) => None,
            Op::Not => bf(self, 0).map(|b| !b),
            Op::And => match (bf(self, 0), bf(self, 1)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Op::Or => match (bf(self, 0), bf(self, 1)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Op::Xor => match (bf(self, 0), bf(self, 1)) {
                (Some(a), Some(b)) => Some(a ^ b),
                _ => None,
            },
            Op::Implies => match (bf(self, 0), bf(self, 1)) {
                (Some(false), _) | (_, Some(true)) => Some(true),
                (Some(true), Some(false)) => Some(false),
                _ => None,
            },
            Op::Ite => match bf(self, 0) {
                Some(true) => bf(self, 1),
                Some(false) => bf(self, 2),
                None => match (bf(self, 1), bf(self, 2)) {
                    (Some(a), Some(b)) if a == b => Some(a),
                    _ => None,
                },
            },
            Op::Eq if tm.sort(args[0]).is_bitvec() => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                if let (Some(x), Some(y)) = (fa.as_const(), fb.as_const()) {
                    return Some(x == y);
                }
                // Disjoint known bits or disjoint intervals refute equality.
                if (fa.ones & fb.zeros) | (fa.zeros & fb.ones) != 0 {
                    return Some(false);
                }
                if fa.hi < fb.lo || fb.hi < fa.lo {
                    return Some(false);
                }
                let (a, b) = (args[0], args[1]);
                // Antisymmetry: a ≤ b ∧ b ≤ a ⟹ a = b over unsigned bvs.
                if self.reach(a, b, false) && self.reach(b, a, false) {
                    return Some(true);
                }
                if self.reach(a, b, true) || self.reach(b, a, true) {
                    return Some(false);
                }
                None
            }
            Op::Eq if tm.sort(args[0]) == Sort::Bool => match (bf(self, 0), bf(self, 1)) {
                (Some(a), Some(b)) => Some(a == b),
                _ => None,
            },
            Op::Ult => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                if fa.hi < fb.lo {
                    return Some(true);
                }
                if fa.lo >= fb.hi {
                    return Some(false);
                }
                let (a, b) = (args[0], args[1]);
                if self.reach(a, b, true) {
                    return Some(true);
                }
                if self.reach(b, a, false) {
                    return Some(false);
                }
                None
            }
            Op::Ule => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                if fa.hi <= fb.lo {
                    return Some(true);
                }
                if fa.lo > fb.hi {
                    return Some(false);
                }
                let (a, b) = (args[0], args[1]);
                if self.reach(a, b, false) {
                    return Some(true);
                }
                if self.reach(b, a, true) {
                    return Some(false);
                }
                None
            }
            Op::Slt => {
                let w = tm.width(args[0]);
                match (vf(self, 0).as_const(), vf(self, 1).as_const()) {
                    (Some(x), Some(y)) => Some(to_signed(x, w) < to_signed(y, w)),
                    _ => None,
                }
            }
            Op::Sle => {
                let w = tm.width(args[0]);
                match (vf(self, 0).as_const(), vf(self, 1).as_const()) {
                    (Some(x), Some(y)) => Some(to_signed(x, w) <= to_signed(y, w)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    #[allow(clippy::too_many_lines)]
    fn bv_transfer(
        &self,
        tm: &TermManager,
        t: Term,
        w: u32,
        bf: &dyn Fn(&Self, usize) -> Option<bool>,
        vf: &dyn Fn(&Self, usize) -> BvFact,
    ) -> BvFact {
        let m = mask(w);
        let args = tm.args(t);
        // Exact path: all bitvector operands pinned to constants — mirror
        // `eval` bit-for-bit (division by zero, shift clamping, ...).
        if !args.is_empty()
            && args.iter().all(|&a| tm.sort(a).is_bitvec())
            && !matches!(tm.op(t), Op::Var(_))
        {
            let consts: Vec<Option<u64>> =
                (0..args.len()).map(|i| vf(self, i).as_const()).collect();
            if consts.iter().all(Option::is_some) {
                let v: Vec<u64> = consts.into_iter().map(|c| c.expect("const")).collect();
                if let Some(c) = concrete_bv(tm, t, w, &v) {
                    return BvFact::constant(c, w);
                }
            }
        }
        match tm.op(t) {
            Op::BvConst(v) => BvFact::constant(v, w),
            Op::Var(_) => BvFact::top(w),
            Op::BvNot => {
                let f = vf(self, 0);
                BvFact {
                    width: w,
                    zeros: f.ones,
                    ones: f.zeros,
                    lo: m - f.hi,
                    hi: m - f.lo,
                }
            }
            Op::BvNeg => {
                let f = vf(self, 0);
                if f.lo > 0 {
                    // 0 excluded: neg is monotone decreasing on [1, m].
                    BvFact {
                        width: w,
                        zeros: 0,
                        ones: 0,
                        lo: (m - f.hi) + 1,
                        hi: (m - f.lo) + 1,
                    }
                } else {
                    BvFact::top(w)
                }
            }
            Op::BvAnd => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                BvFact {
                    width: w,
                    zeros: fa.zeros | fb.zeros,
                    ones: fa.ones & fb.ones,
                    lo: 0,
                    hi: fa.hi.min(fb.hi),
                }
            }
            Op::BvOr => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                BvFact {
                    width: w,
                    zeros: fa.zeros & fb.zeros,
                    ones: fa.ones | fb.ones,
                    lo: fa.lo.max(fb.lo),
                    hi: m,
                }
            }
            Op::BvXor => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                BvFact {
                    width: w,
                    zeros: (fa.zeros & fb.zeros) | (fa.ones & fb.ones),
                    ones: (fa.zeros & fb.ones) | (fa.ones & fb.zeros),
                    lo: 0,
                    hi: m,
                }
            }
            Op::BvAdd => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                match fa.hi.checked_add(fb.hi) {
                    Some(hi) if hi <= m => BvFact {
                        width: w,
                        zeros: 0,
                        ones: 0,
                        lo: fa.lo + fb.lo,
                        hi,
                    },
                    _ => BvFact::top(w),
                }
            }
            Op::BvSub => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                if fa.lo >= fb.hi {
                    BvFact {
                        width: w,
                        zeros: 0,
                        ones: 0,
                        lo: fa.lo - fb.hi,
                        hi: fa.hi - fb.lo,
                    }
                } else {
                    BvFact::top(w)
                }
            }
            Op::BvMul => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                match fa.hi.checked_mul(fb.hi) {
                    Some(hi) if hi <= m => BvFact {
                        width: w,
                        zeros: 0,
                        ones: 0,
                        lo: fa.lo * fb.lo,
                        hi,
                    },
                    _ => BvFact::top(w),
                }
            }
            Op::BvUdiv => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                match (fa.lo.checked_div(fb.hi), fa.hi.checked_div(fb.lo)) {
                    (Some(lo), Some(hi)) => BvFact {
                        width: w,
                        zeros: 0,
                        ones: 0,
                        lo,
                        hi,
                    },
                    // Division by zero yields all-ones — no bound survives.
                    _ => BvFact::top(w),
                }
            }
            Op::BvUrem => {
                let (fa, fb) = (vf(self, 0), vf(self, 1));
                // x % y ≤ x always (y = 0 yields x); y > 0 also bounds by y-1.
                let hi = if fb.lo > 0 {
                    fa.hi.min(fb.hi - 1)
                } else {
                    fa.hi
                };
                BvFact {
                    width: w,
                    zeros: 0,
                    ones: 0,
                    lo: 0,
                    hi,
                }
            }
            Op::BvShl => {
                let fa = vf(self, 0);
                match vf(self, 1).as_const() {
                    Some(s) if s >= u64::from(w) => BvFact::constant(0, w),
                    Some(s) => {
                        let s32 = s as u32;
                        let low = mask(s32);
                        let interval_ok = fa.hi <= (m >> s);
                        BvFact {
                            width: w,
                            zeros: ((fa.zeros << s) | low) & m,
                            ones: (fa.ones << s) & m,
                            lo: if interval_ok { fa.lo << s } else { 0 },
                            hi: if interval_ok { fa.hi << s } else { m },
                        }
                    }
                    None => BvFact::top(w),
                }
            }
            Op::BvLshr => {
                let fa = vf(self, 0);
                match vf(self, 1).as_const() {
                    Some(s) if s >= u64::from(w) => BvFact::constant(0, w),
                    Some(s) => BvFact {
                        width: w,
                        zeros: ((fa.zeros >> s) | (m & !(m >> s))) & m,
                        ones: fa.ones >> s,
                        lo: fa.lo >> s,
                        hi: fa.hi >> s,
                    },
                    // Right shifts never grow the value.
                    None => BvFact {
                        width: w,
                        zeros: 0,
                        ones: 0,
                        lo: 0,
                        hi: fa.hi,
                    },
                }
            }
            Op::BvAshr => {
                let fa = vf(self, 0);
                let sign_zero = fa.zeros >> (w - 1) & 1 == 1;
                match vf(self, 1).as_const() {
                    // Known non-negative: behaves exactly like lshr with the
                    // shift clamped to w-1 (eval clamps, and for a value with
                    // sign bit 0 the clamped lshr result matches).
                    Some(s) if sign_zero => {
                        let s = s.min(u64::from(w) - 1);
                        BvFact {
                            width: w,
                            zeros: ((fa.zeros >> s) | (m & !(m >> s))) & m,
                            ones: fa.ones >> s,
                            lo: fa.lo >> s,
                            hi: fa.hi >> s,
                        }
                    }
                    _ => BvFact::top(w),
                }
            }
            Op::Concat => {
                let (fh, fl) = (vf(self, 0), vf(self, 1));
                let wl = tm.width(args[1]);
                BvFact {
                    width: w,
                    zeros: ((fh.zeros << wl) | fl.zeros) & m,
                    ones: ((fh.ones << wl) | fl.ones) & m,
                    lo: (fh.lo << wl) + fl.lo,
                    hi: (fh.hi << wl) + fl.hi,
                }
            }
            Op::Extract { hi, lo } => {
                let fa = vf(self, 0);
                let rw = hi - lo + 1;
                let exact = lo == 0 && fa.hi <= mask(rw);
                BvFact {
                    width: w,
                    zeros: (fa.zeros >> lo) & mask(rw),
                    ones: (fa.ones >> lo) & mask(rw),
                    lo: if exact { fa.lo } else { 0 },
                    hi: if exact { fa.hi } else { mask(rw) },
                }
            }
            Op::ZeroExt { .. } => {
                let fa = vf(self, 0);
                let iw = tm.width(args[0]);
                BvFact {
                    width: w,
                    zeros: fa.zeros | (m & !mask(iw)),
                    ones: fa.ones,
                    lo: fa.lo,
                    hi: fa.hi,
                }
            }
            Op::SignExt { .. } => {
                let fa = vf(self, 0);
                let iw = tm.width(args[0]);
                let sign = 1u64 << (iw - 1);
                let himask = m & !mask(iw);
                if fa.zeros & sign != 0 {
                    // Sign known 0: identical to zero extension.
                    BvFact {
                        width: w,
                        zeros: fa.zeros | himask,
                        ones: fa.ones,
                        lo: fa.lo,
                        hi: fa.hi,
                    }
                } else if fa.ones & sign != 0 {
                    // Sign known 1: upper bits fill with ones.
                    BvFact {
                        width: w,
                        zeros: fa.zeros & mask(iw),
                        ones: fa.ones | himask,
                        lo: fa.lo | himask,
                        hi: fa.hi | himask,
                    }
                } else {
                    BvFact::top(w)
                }
            }
            Op::Ite => match bf(self, 0) {
                Some(true) => vf(self, 1),
                Some(false) => vf(self, 2),
                None => {
                    let (ft, fe) = (vf(self, 1), vf(self, 2));
                    BvFact {
                        width: w,
                        zeros: ft.zeros & fe.zeros,
                        ones: ft.ones & fe.ones,
                        lo: ft.lo.min(fe.lo),
                        hi: ft.hi.max(fe.hi),
                    }
                }
            },
            Op::Select => {
                // The selected element is the default constant or one of the
                // stored values: join their facts (must-bits intersect, the
                // interval is the convex hull). Arg 0 is array-sorted and must
                // not go through `vf`; the chain is walked via the manager,
                // and every chain node is a descendant of arg 0, so the
                // stored values are already memoized.
                let join = |acc: Option<BvFact>, g: BvFact| {
                    Some(match acc {
                        None => g,
                        Some(a) => BvFact {
                            width: w,
                            zeros: a.zeros & g.zeros,
                            ones: a.ones & g.ones,
                            lo: a.lo.min(g.lo),
                            hi: a.hi.max(g.hi),
                        },
                    })
                };
                let mut arr = args[0];
                let mut f: Option<BvFact> = None;
                loop {
                    match tm.op(arr) {
                        Op::Store => {
                            let sa = tm.args(arr);
                            let gv = match self.memo[&sa[2]] {
                                AbsVal::Bv(g) => g,
                                _ => unreachable!("stored values are bitvectors"),
                            };
                            f = join(f, gv);
                            arr = sa[0];
                        }
                        Op::ConstArray(d) => {
                            f = join(f, BvFact::constant(d, w));
                            break;
                        }
                        _ => unreachable!("array chains are rooted at a constant array"),
                    }
                }
                f.unwrap_or_else(|| BvFact::top(w))
            }
            // Sdiv/Srem (non-constant) and anything unhandled: width only.
            _ => BvFact::top(w),
        }
    }
}

/// Concrete evaluation of one node whose bitvector operands are all
/// constants — mirrors [`crate::eval`] exactly. Returns `None` for ops
/// that are not pure bitvector functions of bitvector operands.
fn concrete_bv(tm: &TermManager, t: Term, w: u32, v: &[u64]) -> Option<u64> {
    let aw = tm.width(tm.args(t)[0]);
    let r = match tm.op(t) {
        Op::BvNot => !v[0] & mask(w),
        Op::BvNeg => v[0].wrapping_neg() & mask(w),
        Op::BvAnd => v[0] & v[1],
        Op::BvOr => v[0] | v[1],
        Op::BvXor => v[0] ^ v[1],
        Op::BvAdd => v[0].wrapping_add(v[1]) & mask(w),
        Op::BvSub => v[0].wrapping_sub(v[1]) & mask(w),
        Op::BvMul => v[0].wrapping_mul(v[1]) & mask(w),
        Op::BvUdiv => v[0].checked_div(v[1]).unwrap_or(mask(w)),
        Op::BvUrem => {
            if v[1] == 0 {
                v[0]
            } else {
                v[0] % v[1]
            }
        }
        Op::BvSdiv => {
            let (xs, ys) = (to_signed(v[0], w), to_signed(v[1], w));
            let r = if ys == 0 { -1 } else { xs.wrapping_div(ys) };
            r as u64 & mask(w)
        }
        Op::BvSrem => {
            let (xs, ys) = (to_signed(v[0], w), to_signed(v[1], w));
            let r = if ys == 0 { xs } else { xs.wrapping_rem(ys) };
            r as u64 & mask(w)
        }
        Op::BvShl => {
            if v[1] >= u64::from(w) {
                0
            } else {
                (v[0] << v[1]) & mask(w)
            }
        }
        Op::BvLshr => {
            if v[1] >= u64::from(w) {
                0
            } else {
                v[0] >> v[1]
            }
        }
        Op::BvAshr => {
            let sh = v[1].min(u64::from(w) - 1) as u32;
            (to_signed(v[0], w) >> sh) as u64 & mask(w)
        }
        Op::Concat => {
            let wlo = tm.width(tm.args(t)[1]);
            ((v[0] << wlo) | v[1]) & mask(w)
        }
        Op::Extract { hi, lo } => (v[0] >> lo) & mask(hi - lo + 1),
        Op::ZeroExt { .. } => v[0],
        Op::SignExt { .. } => to_signed(v[0], aw) as u64 & mask(w),
        _ => return None,
    };
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_bits_flow_through_masks() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let c = tm.bv_const(0xff, 32);
        let masked = tm.bv_and(x, c);
        let mut an = Analysis::new();
        let f = an.bv_fact(&tm, masked);
        assert_eq!(f.zeros, 0xffff_ff00);
        assert!(f.hi <= 0xff);
        let bound = tm.bv_const(0x100, 32);
        let lt = tm.ult(masked, bound);
        assert_eq!(an.verdict(&tm, lt), Some(true));
    }

    #[test]
    fn urem_interval_folds_comparison() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let eight = tm.bv_const(8, 32);
        let r = tm.urem(x, eight);
        let sixteen = tm.bv_const(16, 32);
        let lt = tm.ult(r, sixteen);
        let mut an = Analysis::new();
        assert_eq!(an.verdict(&tm, lt), Some(true));
    }

    #[test]
    fn assumed_facts_decide_reencounters() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let y = tm.var("y", 32);
        let le = tm.ule(x, y);
        let mut an = Analysis::new();
        an.assume(&tm, le);
        assert_eq!(an.verdict(&tm, le), Some(true));
        let nle = tm.not(le);
        assert_eq!(an.verdict(&tm, nle), Some(false));
        // Complement: x ≤ y refutes y < x.
        let gt = tm.ult(y, x);
        assert_eq!(an.verdict(&tm, gt), Some(false));
    }

    #[test]
    fn order_closure_is_transitive() {
        let mut tm = TermManager::new();
        let a = tm.var("a", 32);
        let b = tm.var("b", 32);
        let c = tm.var("c", 32);
        let ab = tm.ule(a, b);
        let bc = tm.ult(b, c);
        let mut an = Analysis::new();
        an.assume(&tm, ab);
        an.assume(&tm, bc);
        let ac = tm.ule(a, c);
        assert_eq!(an.verdict(&tm, ac), Some(true));
        // The chain contains a strict edge, so even a < c holds.
        let ac_strict = tm.ult(a, c);
        assert_eq!(an.verdict(&tm, ac_strict), Some(true));
        // And c ≤ a is refuted.
        let ca = tm.ule(c, a);
        assert_eq!(an.verdict(&tm, ca), Some(false));
        // But nothing relates a and an unrelated d.
        let d = tm.var("d", 32);
        let ad = tm.ule(a, d);
        assert_eq!(an.verdict(&tm, ad), None);
    }

    #[test]
    fn equality_antisymmetry() {
        let mut tm = TermManager::new();
        let a = tm.var("a", 32);
        let b = tm.var("b", 32);
        let ab = tm.ule(a, b);
        let ba = tm.ule(b, a);
        let mut an = Analysis::new();
        an.assume(&tm, ab);
        an.assume(&tm, ba);
        let eq = tm.eq(a, b);
        assert_eq!(an.verdict(&tm, eq), Some(true));
    }

    #[test]
    fn constant_refinement_forces_values() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let c = tm.bv_const(42, 8);
        let eq = tm.eq(x, c);
        let mut an = Analysis::new();
        an.assume(&tm, eq);
        assert_eq!(an.forced_value(&tm, x), Some(42));
        // And the interval refines comparisons downstream.
        let fifty = tm.bv_const(50, 8);
        let lt = tm.ult(x, fifty);
        assert_eq!(an.verdict(&tm, lt), Some(true));
    }

    #[test]
    fn negated_conjuncts_split() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let y = tm.var("y", 32);
        let lt = tm.ult(x, y);
        let nlt = tm.not(lt);
        let mut an = Analysis::new();
        an.assume(&tm, nlt);
        // ¬(x < y) ⟹ y ≤ x.
        let yx = tm.ule(y, x);
        assert_eq!(an.verdict(&tm, yx), Some(true));
    }

    #[test]
    fn contradiction_degrades_to_unknown() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 32);
        let y = tm.var("y", 32);
        let lt = tm.ult(x, y);
        let gt = tm.ult(y, x);
        let mut an = Analysis::new();
        an.assume(&tm, lt);
        an.assume(&tm, gt);
        // The order graph now has a strict cycle; verdicts that would rely
        // on it must not claim both directions. We only require soundness:
        // a detectably-contradictory analysis answers None.
        let anything = tm.ule(x, y);
        let v = an.verdict(&tm, anything);
        assert!(v.is_none() || v == Some(true));
    }

    #[test]
    fn select_fact_joins_stored_values() {
        let mut tm = TermManager::new();
        // table = [default 0; [1]=0x10, [2]=0x30]: the join keeps the
        // interval hull [0, 0x30] and the zero-bits common to all three.
        let mut arr = tm.array_const(0, 32, 8);
        for (k, v) in [(1u64, 0x10u64), (2, 0x30)] {
            let i = tm.bv_const(k, 32);
            let v = tm.bv_const(v, 8);
            arr = tm.store(arr, i, v);
        }
        let i = tm.var("i", 32);
        let sel = tm.select(arr, i);
        let mut an = Analysis::new();
        let f = an.bv_fact(&tm, sel);
        assert_eq!(f.lo, 0);
        assert_eq!(f.hi, 0x30);
        // Bits 0..3 and 6..7 are zero in 0, 0x10 and 0x30.
        assert_eq!(f.zeros & 0xcf, 0xcf);
        // A comparison downstream folds without a SAT call.
        let c64 = tm.bv_const(0x40, 8);
        let lt = tm.ult(sel, c64);
        assert_eq!(an.verdict(&tm, lt), Some(true));
    }

    #[test]
    fn signext_with_known_sign() {
        let mut tm = TermManager::new();
        let x = tm.var("x", 8);
        let c = tm.bv_const(0x7f, 8);
        let low = tm.bv_and(x, c); // sign bit known 0
        let ext = tm.sext(low, 32);
        let mut an = Analysis::new();
        let f = an.bv_fact(&tm, ext);
        assert_eq!(f.zeros & 0xffff_ff80, 0xffff_ff80);
        assert!(f.hi <= 0x7f);
    }
}
