//! Micro-benches for the SMT substrate: bit-blasting and solving the query
//! shapes symbolic execution produces (ablation support for the paper's
//! "impact of formal ISA semantics on SMT query complexity" future work,
//! §V-B).
//!
//! Uses a minimal in-repo timing harness (Criterion is not available in the
//! build environment). Run with `cargo bench -p binsym-bench --bench solver`.

use std::time::{Duration, Instant};

use binsym_smt::{SatResult, Solver, TermManager};

/// Times `f` adaptively: a few warm-up runs, then enough iterations to
/// accumulate a stable total, reporting the per-iteration mean.
fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..3 {
        f();
    }
    let target = Duration::from_millis(300);
    let mut iters: u64 = 0;
    let start = Instant::now();
    while start.elapsed() < target || iters < 10 {
        f();
        iters += 1;
    }
    let per_iter = start.elapsed() / iters as u32;
    println!("{name:<32} {per_iter:>12.2?}/iter   ({iters} iters)");
}

fn main() {
    // `cargo bench` passes harness flags such as `--bench`; ignore them.
    println!("solver micro-benches (mean wall time per iteration)\n");

    bench("solver/eq-chain-8bytes", || {
        let mut tm = TermManager::new();
        let mut solver = Solver::new();
        let mut acc = tm.bv_const(0, 32);
        for i in 0..8 {
            let v = tm.var(&format!("in{i}"), 8);
            let z = tm.zext(v, 32);
            acc = tm.add(acc, z);
        }
        let c1000 = tm.bv_const(1000, 32);
        let eq = tm.eq(acc, c1000);
        solver.assert_term(&mut tm, eq);
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Sat);
    });

    bench("solver/divu-branch", || {
        // The paper's Fig. 2 query: (bvult x (bvudiv x y)).
        let mut tm = TermManager::new();
        let mut solver = Solver::new();
        let x = tm.var("x", 32);
        let y = tm.var("y", 32);
        let z = tm.udiv(x, y);
        let lt = tm.ult(x, z);
        solver.assert_term(&mut tm, lt);
        assert_eq!(solver.check_sat(&mut tm, &[]), SatResult::Sat);
    });

    bench("solver/incremental-assumptions", || {
        let mut tm = TermManager::new();
        let mut solver = Solver::new();
        let x = tm.var("x", 16);
        for i in 0..20u64 {
            let c = tm.bv_const(i * 3, 16);
            let lt = tm.ult(c, x);
            assert_eq!(solver.check_sat(&mut tm, &[lt]), SatResult::Sat);
        }
    });

    bench("solver/unsat-ordering", || {
        // The sortedness-verification query shape of the sort benchmarks:
        // a conjunction of orderings plus one contradiction.
        let mut tm = TermManager::new();
        let mut solver = Solver::new();
        let vars: Vec<_> = (0..6).map(|i| tm.var(&format!("in{i}"), 8)).collect();
        for w in vars.windows(2) {
            let le = tm.ule(w[0], w[1]);
            solver.assert_term(&mut tm, le);
        }
        let gt = tm.ult(vars[5], vars[0]);
        let last = vars.len() - 1;
        let distinct = tm.ne(vars[0], vars[last]);
        solver.assert_term(&mut tm, distinct);
        assert_eq!(solver.check_sat(&mut tm, &[gt]), SatResult::Unsat);
    });
}
