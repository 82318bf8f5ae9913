//! Acceptance pins for the pluggable symbolic-memory layer on the
//! `table-lookup` benchmark — the program built so the policies diverge.
//!
//! The headline contract: under the default `eq` concretization (the
//! paper's §III-B pin) the value loaded through the symbolic index is
//! frozen to the seed's table slot, so the value-dependent branches never
//! become symbolic and exploration saturates below full coverage. Under
//! the windowed array model (`symbolic:64`) the load stays a `select`
//! over the whole table, every value class is enumerable, and the finite
//! path set reaches every tracked instruction.

use binsym::AddressPolicyKind;
use binsym_bench::{
    policy_trajectory, PolicyTrajectory, SearchStrategy, TABLE_LOOKUP, TABLE_LOOKUP_SYMBOLIC_PATHS,
};

fn run(policy: AddressPolicyKind, strategy: SearchStrategy) -> PolicyTrajectory {
    policy_trajectory(&TABLE_LOOKUP, strategy, policy)
}

#[test]
fn symbolic_window_reaches_coverage_concretization_cannot() {
    let eq = run(AddressPolicyKind::ConcretizeEq, SearchStrategy::Coverage);
    let sym = run(
        AddressPolicyKind::Symbolic { window: 64 },
        SearchStrategy::Coverage,
    );

    // The concretizing policy: pinned path count, saturated below full
    // coverage — the magic/parity/magnitude leaves are value-dependent
    // and the frozen load can never take them.
    assert_eq!(eq.paths, TABLE_LOOKUP.expected_paths, "eq: path count");
    assert!(
        eq.covered_pcs < eq.tracked_pcs,
        "eq: must leave value-dependent leaves unreached ({}/{} covered)",
        eq.covered_pcs,
        eq.tracked_pcs
    );

    // The windowed array model: full coverage in finitely many paths.
    assert_eq!(
        sym.paths, TABLE_LOOKUP_SYMBOLIC_PATHS,
        "symbolic:64: path count"
    );
    assert_eq!(
        sym.covered_pcs, sym.tracked_pcs,
        "symbolic:64: full coverage"
    );
    assert!(
        sym.covered_pcs > eq.covered_pcs,
        "separation: the array model must cover strictly more"
    );
    // More paths, more checks — the cost side of the trade the ablation
    // quantifies.
    assert!(sym.paths > eq.paths && sym.solver_checks > eq.solver_checks);
}

#[test]
fn separation_is_strategy_independent() {
    // Full enumeration is strategy-independent per policy: DFS and the
    // coverage-guided policy agree on path count and final coverage.
    for policy in [
        AddressPolicyKind::ConcretizeEq,
        AddressPolicyKind::Symbolic { window: 64 },
    ] {
        let dfs = run(policy, SearchStrategy::Dfs);
        let cov = run(policy, SearchStrategy::Coverage);
        assert_eq!(dfs.paths, cov.paths, "{policy}: paths");
        assert_eq!(dfs.covered_pcs, cov.covered_pcs, "{policy}: coverage");
        assert_eq!(
            dfs.solver_checks, cov.solver_checks,
            "{policy}: solver checks"
        );
    }
}

#[test]
fn oversized_window_still_covers() {
    // A window larger than the table still resolves every in-bounds index
    // inside one aligned window, so the separation is not an artifact of
    // the window size exactly matching the table.
    let sym = run(
        AddressPolicyKind::Symbolic { window: 128 },
        SearchStrategy::Dfs,
    );
    assert_eq!(sym.covered_pcs, sym.tracked_pcs, "symbolic:128 covers all");
    assert_eq!(sym.paths, TABLE_LOOKUP_SYMBOLIC_PATHS);
}
