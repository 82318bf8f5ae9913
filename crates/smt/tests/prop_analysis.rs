//! Property tests for the word-level static-analysis layer.
//!
//! Two families, both checked against the ground-truth evaluator at
//! random points from the shared deterministic generator:
//!
//! * **Facts are sound** — for every random term, the concrete value lies
//!   inside the computed [`BvFact`]: no must-0 bit is set, every must-1
//!   bit is set, and the value stays within `[lo, hi]`.
//! * **Verdicts and forced values are sound** — whenever the analysis
//!   decides a boolean term or pins a bitvector term under assumptions
//!   satisfied by `σ`, the evaluator agrees.
//!
//! Soundness here is one-directional by design: the analysis may always
//! answer "don't know", it may never answer wrongly.

use std::collections::HashMap;

use binsym_smt::analysis::Analysis;
use binsym_smt::eval::{eval, Value};
use binsym_smt::term::VarId;
use binsym_smt::{Term, TermManager};
use binsym_testutil::Rng;

/// A random comparison between two same-width bitvector terms.
fn random_pred_over(tm: &mut TermManager, rng: &mut Rng, a: Term, b: Term) -> Term {
    match rng.below(6) {
        0 => tm.ult(a, b),
        1 => tm.slt(a, b),
        2 => tm.ule(a, b),
        3 => tm.sle(a, b),
        4 => tm.eq(a, b),
        _ => tm.ne(a, b),
    }
}

/// Builds a random 8-bit term over variables `x`/`y` by growing a pool,
/// mixing arithmetic, bitwise and shift operators with width-changing
/// extract/extend/concat shapes and `ite`.
fn random_bv(tm: &mut TermManager, rng: &mut Rng, steps: usize) -> Term {
    let x = tm.var("x", 8);
    let y = tm.var("y", 8);
    let c = tm.bv_const(u64::from(rng.next_u8()), 8);
    let z = tm.bv_const(0, 8);
    let mut pool = vec![x, y, c, z];
    for _ in 0..steps {
        let a = pool[rng.below(pool.len() as u64) as usize];
        let b = pool[rng.below(pool.len() as u64) as usize];
        let t = match rng.below(19) {
            0 => tm.add(a, b),
            1 => tm.sub(a, b),
            2 => tm.mul(a, b),
            3 => tm.udiv(a, b),
            4 => tm.urem(a, b),
            5 => tm.bv_and(a, b),
            6 => tm.bv_or(a, b),
            7 => tm.bv_xor(a, b),
            8 => tm.shl(a, b),
            9 => tm.lshr(a, b),
            10 => tm.ashr(a, b),
            11 => tm.bv_not(a),
            12 => tm.bv_neg(a),
            13 => {
                let w = tm.zext(a, 16);
                tm.extract(w, 7, 0)
            }
            14 => {
                let w = tm.sext(a, 16);
                tm.extract(w, 15, 8)
            }
            15 => {
                let cc = tm.concat(a, b);
                let lo = rng.below(9) as u32;
                tm.extract(cc, lo + 7, lo)
            }
            16 => {
                let w = tm.zext(a, 12);
                let v = tm.zext(b, 12);
                let s = tm.add(w, v);
                tm.extract(s, 7, 0)
            }
            17 => {
                let p = random_pred_over(tm, rng, a, b);
                tm.ite(p, a, b)
            }
            _ => {
                let p = random_pred_over(tm, rng, a, b);
                tm.bool_to_bv(p, 8)
            }
        };
        pool.push(t);
    }
    *pool.last().expect("nonempty")
}

fn assignment(tm: &TermManager, xv: u8, yv: u8) -> HashMap<VarId, u64> {
    let mut sigma = HashMap::new();
    sigma.insert(tm.find_var("x").expect("x interned"), u64::from(xv));
    sigma.insert(tm.find_var("y").expect("y interned"), u64::from(yv));
    sigma
}

fn eval_bv(tm: &TermManager, t: Term, sigma: &HashMap<VarId, u64>) -> u64 {
    match eval(tm, t, sigma).expect("assigned") {
        Value::BitVec(v) => v,
        Value::Bool(_) | Value::Array(_) => unreachable!("bv term"),
    }
}

/// Generates assumptions guaranteed true under `sigma`: equalities and
/// comparisons of random subterms against constants derived from their
/// concrete values, plus negations of off-by-one falsehoods.
fn true_assumptions(
    tm: &mut TermManager,
    rng: &mut Rng,
    sigma: &HashMap<VarId, u64>,
    count: usize,
) -> Vec<Term> {
    let mut out = Vec::new();
    for _ in 0..count {
        let steps = 1 + rng.below(3) as usize;
        let t = random_bv(tm, rng, steps);
        let v = eval_bv(tm, t, sigma);
        let a = match rng.below(5) {
            0 => {
                let c = tm.bv_const(v, 8);
                tm.eq(t, c)
            }
            1 => {
                // v <= c for a random c in [v, 255].
                let c = v + rng.below(256 - v);
                let c = tm.bv_const(c, 8);
                tm.ule(t, c)
            }
            2 => {
                // c <= v for a random c in [0, v].
                let c = rng.below(v + 1);
                let c = tm.bv_const(c, 8);
                tm.ule(c, t)
            }
            3 => {
                // ¬(t = c) for some c ≠ v.
                let c = (v + 1 + rng.below(255)) & 0xff;
                let c = tm.bv_const(c, 8);
                let e = tm.eq(t, c);
                tm.not(e)
            }
            _ => {
                // c < v when possible, else v < c.
                if v > 0 {
                    let c = rng.below(v);
                    let c = tm.bv_const(c, 8);
                    tm.ult(c, t)
                } else {
                    let c = 1 + rng.below(255);
                    let c = tm.bv_const(c, 8);
                    tm.ult(t, c)
                }
            }
        };
        debug_assert_eq!(eval(tm, a, sigma).expect("assigned"), Value::Bool(true));
        out.push(a);
    }
    out
}

#[test]
fn facts_are_sound_without_assumptions() {
    let mut rng = Rng::new(0xb1a5_0007);
    for _ in 0..128 {
        let mut tm = TermManager::new();
        let steps = 1 + rng.below(6) as usize;
        let t = random_bv(&mut tm, &mut rng, steps);
        let mut an = Analysis::new();
        let f = an.bv_fact(&tm, t);
        assert!(!f.is_empty(), "unassumed fact can never be empty");
        for _ in 0..4 {
            let sigma = assignment(&tm, rng.next_u8(), rng.next_u8());
            let v = eval_bv(&tm, t, &sigma);
            assert_eq!(v & f.zeros, 0, "value sets a must-0 bit: {v:#x} vs {f:?}");
            assert_eq!(
                v & f.ones,
                f.ones,
                "value clears a must-1 bit: {v:#x} vs {f:?}"
            );
            assert!(
                (f.lo..=f.hi).contains(&v),
                "value escapes the interval: {v:#x} vs {f:?}"
            );
        }
    }
}

#[test]
fn select_facts_match_memory_oracle() {
    // Random store chains read back at random points: facts from the
    // conservative select transfer must contain the concrete oracle value.
    let mut rng = Rng::new(0xb1a5_000a);
    for _ in 0..64 {
        let mut tm = TermManager::new();
        let xv = rng.next_u8();
        let yv = rng.next_u8();
        let _ = random_bv(&mut tm, &mut rng, 0);
        let sigma = assignment(&tm, xv, yv);
        let default = rng.next_u8();
        let mut mem = [default; 256];
        let mut arr = tm.array_const(u64::from(default), 8, 8);
        let stores = 1 + rng.below(4) as usize;
        for _ in 0..stores {
            let isteps = rng.below(3) as usize;
            let it = random_bv(&mut tm, &mut rng, isteps);
            let vsteps = rng.below(3) as usize;
            let vt = random_bv(&mut tm, &mut rng, vsteps);
            let ic = eval_bv(&tm, it, &sigma) as usize;
            mem[ic] = eval_bv(&tm, vt, &sigma) as u8;
            arr = tm.store(arr, it, vt);
        }
        let rsteps = rng.below(3) as usize;
        let rt = random_bv(&mut tm, &mut rng, rsteps);
        let sel = tm.select(arr, rt);
        let expected = u64::from(mem[eval_bv(&tm, rt, &sigma) as usize]);
        assert_eq!(
            eval_bv(&tm, sel, &sigma),
            expected,
            "evaluator disagrees with memory oracle"
        );

        let mut an = Analysis::new();
        let f = an.bv_fact(&tm, sel);
        assert_eq!(expected & f.zeros, 0, "must-0 violated by oracle: {f:?}");
        assert_eq!(expected & f.ones, f.ones, "must-1 violated by oracle");
        assert!(
            (f.lo..=f.hi).contains(&expected),
            "interval excludes oracle value: {expected:#x} {f:?}"
        );
    }
}

#[test]
fn facts_verdicts_and_forced_values_are_sound_under_assumptions() {
    let mut rng = Rng::new(0xb1a5_0008);
    for _ in 0..96 {
        let mut tm = TermManager::new();
        let xv = rng.next_u8();
        let yv = rng.next_u8();
        let _ = random_bv(&mut tm, &mut rng, 0);
        let sigma = assignment(&tm, xv, yv);
        let n = 1 + rng.below(4) as usize;
        let assumed = true_assumptions(&mut tm, &mut rng, &sigma, n);
        let mut an = Analysis::new();
        for &a in &assumed {
            an.assume(&tm, a);
        }
        assert!(!an.is_contradictory());

        let steps = 1 + rng.below(6) as usize;
        let t = random_bv(&mut tm, &mut rng, steps);
        let v = eval_bv(&tm, t, &sigma);
        let f = an.bv_fact(&tm, t);
        assert_eq!(v & f.zeros, 0, "must-0 violated under assumptions: {f:?}");
        assert_eq!(v & f.ones, f.ones, "must-1 violated under assumptions");
        assert!(
            (f.lo..=f.hi).contains(&v),
            "interval violated: {v:#x} {f:?}"
        );
        if let Some(c) = an.forced_value(&tm, t) {
            assert_eq!(c, v, "forced value disagrees with the evaluator");
        }

        let u = random_bv(&mut tm, &mut rng, steps);
        let p = random_pred_over(&mut tm, &mut rng, t, u);
        if let Some(decided) = an.verdict(&tm, p) {
            let truth = eval(&tm, p, &sigma).expect("assigned").as_bool();
            assert_eq!(decided, truth, "verdict disagrees with the evaluator");
        }
        // The assumptions themselves must verdict true (they were assumed).
        for &a in &assumed {
            assert_eq!(an.verdict(&tm, a), Some(true), "assumed fact not closed");
        }
    }
}
