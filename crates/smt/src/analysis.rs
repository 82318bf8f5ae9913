//! Word-level static analysis over the hash-consed term DAG.
//!
//! An [`Analysis`] accumulates *assumptions* (path-condition conjuncts) and
//! decides later boolean terms from them by two exact rules:
//!
//! * **Assumed literals.** Each conjunct is split through `¬`, `∧`, `∨` and
//!   `→` into literals, and each literal's truth value is recorded. A
//!   literal met again is decided by the value it was assumed with.
//! * **The order closure.** Assumed `Ult`/`Ule`/bit-vector `Eq` literals
//!   are the edges of a `≤`/`<` digraph over bit-vector term handles. BFS
//!   reachability decides later comparisons from their transitive and
//!   complement consequences (`a ≤ b ∧ b ≤ c ⟹ a ≤ c`, `a < b ⟹ ¬(b ≤ a)`)
//!   without any SAT call.
//!
//! Anything else is undecided and left to the solver. A decided verdict is
//! a consequence of the assumptions, which `tests/prop_analysis.rs` checks
//! against the evaluator at random points.
//!
//! The analysis never allocates terms — it reads the DAG through
//! `&TermManager` — so running it cannot perturb hash-consing order (and
//! therefore cannot perturb CNF encodings or solver models downstream).

use std::collections::VecDeque;

use crate::hash::FxHashMap;
use crate::term::{Op, Term, TermManager};

/// Assumed literals plus the order digraph over bit-vector terms.
///
/// Typical use: [`Analysis::assume`] every path-condition conjunct, then
/// ask [`Analysis::verdict`] for the flipped branch condition. `Some(_)`
/// verdicts are sound consequences of the assumptions; `None` means the
/// query is residual and must go to the solver.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Truth values of the assumed literals.
    facts: FxHashMap<Term, bool>,
    /// Order-closure node ids (insertion order — deterministic).
    node_of: FxHashMap<Term, usize>,
    /// Adjacency: `adj[a]` holds `(b, strict)` edges meaning `a ≤ b`
    /// (`strict` ⟹ `a < b`).
    adj: Vec<Vec<(usize, bool)>>,
    /// Total number of order edges recorded.
    edges: u64,
    /// Set when a literal was assumed both ways or a constant was assumed
    /// false; every verdict then degrades to `None` (the caller falls back
    /// to SAT).
    contradictory: bool,
}

impl Analysis {
    /// Empty analysis: no assumptions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of word-level facts recorded so far (assumed literals and
    /// order edges).
    pub fn fact_count(&self) -> u64 {
        self.facts.len() as u64 + self.edges
    }

    /// Assume `conjunct` to hold, splitting conjunctions and negations and
    /// recording each literal's truth value and its order edges.
    pub fn assume(&mut self, tm: &TermManager, conjunct: Term) {
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

    /// Records one literal (after conjunct splitting) and its order edges.
    fn record(&mut self, tm: &TermManager, t: Term, polarity: bool) {
        if let Some(&prev) = self.facts.get(&t) {
            if prev != polarity {
                self.contradictory = true;
            }
            return;
        }
        self.facts.insert(t, polarity);
        let args = tm.args(t);
        match (tm.op(t), polarity) {
            // a < b
            (Op::Ult, true) => self.edge(args[0], args[1], true),
            // ¬(a < b) ⟹ b ≤ a
            (Op::Ult, false) => self.edge(args[1], args[0], false),
            // a ≤ b
            (Op::Ule, true) => self.edge(args[0], args[1], false),
            // ¬(a ≤ b) ⟹ b < a
            (Op::Ule, false) => self.edge(args[1], args[0], true),
            // a = b: order edges both ways.
            (Op::Eq, true) if tm.sort(args[0]).is_bitvec() => {
                self.edge(args[0], args[1], false);
                self.edge(args[1], args[0], false);
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
    ///
    /// Negations are stripped first; the remaining atom is decided as a
    /// boolean constant, as an assumed literal, or as an `Ult`/`Ule`/
    /// bit-vector `Eq` comparison by the order closure, in that order.
    pub fn verdict(&self, tm: &TermManager, t: Term) -> Option<bool> {
        if self.contradictory {
            return None;
        }
        let (mut t, mut negated) = (t, false);
        while tm.op(t) == Op::Not {
            t = tm.args(t)[0];
            negated = !negated;
        }
        let value = match tm.op(t) {
            Op::BoolConst(b) => Some(b),
            _ => match self.facts.get(&t) {
                Some(&v) => Some(v),
                None => self.order(tm, t),
            },
        };
        value.map(|v| v != negated)
    }

    /// Decides an `Ult`/`Ule`/bit-vector `Eq` atom by the order closure.
    fn order(&self, tm: &TermManager, t: Term) -> Option<bool> {
        let decide = |holds: bool, refuted: bool| {
            if holds {
                Some(true)
            } else if refuted {
                Some(false)
            } else {
                None
            }
        };
        let args = tm.args(t);
        match tm.op(t) {
            Op::Ult => {
                let (a, b) = (args[0], args[1]);
                decide(self.reach(a, b, true), self.reach(b, a, false))
            }
            Op::Ule => {
                let (a, b) = (args[0], args[1]);
                decide(self.reach(a, b, false), self.reach(b, a, true))
            }
            // Antisymmetry: a ≤ b ∧ b ≤ a ⟹ a = b over unsigned bvs.
            Op::Eq if tm.sort(args[0]).is_bitvec() => {
                let (a, b) = (args[0], args[1]);
                decide(
                    self.reach(a, b, false) && self.reach(b, a, false),
                    self.reach(a, b, true) || self.reach(b, a, true),
                )
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // A literal assumed both ways is detected: nothing is decided any
        // more, not even the literal itself.
        let nlt = tm.not(lt);
        an.assume(&tm, nlt);
        assert_eq!(an.verdict(&tm, lt), None);
        assert_eq!(an.verdict(&tm, anything), None);
        // So is a constant assumed false.
        let mut an = Analysis::new();
        let ff = tm.bool_const(false);
        an.assume(&tm, ff);
        assert_eq!(an.verdict(&tm, ff), None);
    }
}
