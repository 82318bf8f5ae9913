//! Determinism suite for coverage-guided exploration on the shared
//! frontier, plus the coverage-velocity pin of the ablation harness.
//!
//! The [`CoverageGuided`] policy reads a racy (lock-free) coverage map, so
//! in a parallel session its *scheduling* may differ between runs — but a
//! shard policy only decides which worker replays which prescription, and
//! replay is a pure function of the prescription, so the merged records
//! must be **byte-identical** across 1/2/4/8 workers, across repeated
//! runs, and against the default depth-first policy. The same holds for
//! truncated (`limit`-bounded) coverage runs, which must return the
//! canonical `limit`-lowest-`PathId` prefix on every schedule.
//!
//! The warm start rides the same contract: coverage-guided
//! shard policies give it subtree affinity (consecutive owner pops share
//! prefixes), and its records must stay byte-identical to cache-off runs
//! regardless of the hit pattern.
//!
//! The observability layer (`SessionBuilder::metrics` / `::trace`) stacks
//! on top of all of this without exceptions: an instrumented warm
//! coverage-guided run is pinned byte-identical — solver checks included —
//! to the plain uninstrumented one.
//!
//! The address-concretization policies compose with all of it: a policy
//! changes *which* paths exist (pinned per policy on `table-lookup`), the
//! scheduler only their discovery order, so per-policy merged records are
//! byte-identical across worker counts and shard policies too.
//!
//! The heavy programs run under `#[ignore]` so the debug-mode tier-1 suite
//! stays fast; CI runs them in release with `--include-ignored`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use binsym_repro::bench::programs::{self, Program};
use binsym_repro::bench::{policy_trajectory, SearchStrategy};
use binsym_repro::binsym::{
    AddressPolicyKind, CheckpointEvent, ChromeTraceSink, CountingObserver, CoverageGuided,
    CoverageMap, CoverageObserver, MetricsRegistry, Observer, PathRecord, Prescription, Session,
    Summary, TraceSink,
};
use binsym_repro::isa::Spec;

/// One parallel run with per-worker coverage observers feeding — and
/// coverage-guided shard policies reading — one shared lock-free map.
fn coverage_run(
    p: &Program,
    workers: usize,
    limit: Option<u64>,
) -> (Summary, Vec<PathRecord>, u64) {
    coverage_run_configured(p, workers, limit, false, true)
}

/// Like [`coverage_run`], optionally with the warm start —
/// the pairing the cache is designed for: `CoverageGuided`'s subtree
/// affinity keeps a worker's consecutive pops under shared prefixes —
/// and with the static-analysis gate explicitly on or off.
fn coverage_run_configured(
    p: &Program,
    workers: usize,
    limit: Option<u64>,
    warm: bool,
    analysis: bool,
) -> (Summary, Vec<PathRecord>, u64) {
    let (summary, records, covered, _) = coverage_run_counted(p, workers, limit, warm, analysis);
    (summary, records, covered)
}

/// Like [`coverage_run_configured`], additionally composing a shared
/// [`CountingObserver`] next to each worker's coverage observer (the
/// observer-pair impl fans every callback out to both) so the suite can
/// assert the warm cache engaged.
fn coverage_run_counted(
    p: &Program,
    workers: usize,
    limit: Option<u64>,
    warm: bool,
    analysis: bool,
) -> (Summary, Vec<PathRecord>, u64, CountingObserver) {
    let elf = p.build();
    let map = CoverageMap::shared_for(&elf);
    let policy_map = Arc::clone(&map);
    let observer_map = Arc::clone(&map);
    let counters = Arc::new(Mutex::new(CountingObserver::new()));
    let handle = Arc::clone(&counters);
    let mut builder = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(workers)
        .warm_start(warm)
        .static_analysis(analysis)
        .shard_strategy(move |_| {
            Box::new(CoverageGuided::<Prescription>::new(Arc::clone(&policy_map)))
        })
        .observer_factory(move |_| {
            Box::new((
                Arc::clone(&handle),
                CoverageObserver::new(Arc::clone(&observer_map)),
            ))
        });
    if let Some(limit) = limit {
        builder = builder.limit(limit);
    }
    let mut session = builder.build_parallel().expect("builds");
    assert_eq!(session.strategy_name(), "coverage");
    let summary = session.run_all().expect("explores");
    let counts = *counters.lock().expect("counters");
    (
        summary,
        session.records().to_vec(),
        map.covered_count(),
        counts,
    )
}

/// Reference run: default depth-first shard policy, no coverage plumbing.
fn dfs_run(p: &Program, workers: usize, limit: Option<u64>) -> (Summary, Vec<PathRecord>) {
    let elf = p.build();
    let mut builder = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(workers);
    if let Some(limit) = limit {
        builder = builder.limit(limit);
    }
    let mut session = builder.build_parallel().expect("builds");
    let summary = session.run_all().expect("explores");
    (summary, session.records().to_vec())
}

fn assert_summaries_equal(a: &Summary, b: &Summary, what: &str) {
    assert_eq!(a.solver_checks, b.solver_checks, "{what}: solver checks");
    assert_summaries_equal_modulo_checks(a, b, what);
}

/// Everything but `solver_checks` — the one field the static-analysis
/// gate may change (it removes whole checks, never adds or alters them).
fn assert_summaries_equal_modulo_checks(a: &Summary, b: &Summary, what: &str) {
    assert_eq!(a.paths, b.paths, "{what}: paths");
    assert_eq!(a.error_paths, b.error_paths, "{what}: error paths");
    assert_eq!(a.total_steps, b.total_steps, "{what}: total steps");
    assert_eq!(a.max_trail_len, b.max_trail_len, "{what}: max trail len");
    assert_eq!(a.truncated, b.truncated, "{what}: truncated");
}

/// The full-exploration determinism contract: coverage-guided scheduling
/// must not change any merged result.
fn check_program(p: &Program) {
    let (ref_summary, ref_records) = dfs_run(p, 1, None);
    assert_eq!(ref_summary.paths, p.expected_paths, "{}: dfs", p.name);

    let mut final_coverage = None;
    for workers in [1usize, 2, 4, 8] {
        let (summary, records, covered) = coverage_run(p, workers, None);
        let what = format!("{} coverage-guided, {workers} workers", p.name);
        assert_eq!(summary.paths, p.expected_paths, "{what}: pinned count");
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(records, ref_records, "{what}: merged records vs dfs");
        // Full enumeration executes every reachable instruction slot, so
        // the final coverage is policy- and schedule-independent.
        match final_coverage {
            None => final_coverage = Some(covered),
            Some(c) => assert_eq!(c, covered, "{what}: final covered PCs"),
        }
        assert!(covered > 0, "{what}: map was fed");
    }

    // Repeated run (racy map snapshots may reschedule): byte-identical.
    let (summary, records, _) = coverage_run(p, 4, None);
    assert_summaries_equal(&summary, &ref_summary, &format!("{} repeated", p.name));
    assert_eq!(records, ref_records, "{}: repeated run records", p.name);
}

/// The truncated-run contract: a `limit`-bounded coverage-guided run
/// returns the canonical limit-lowest-id prefix on every schedule.
fn check_truncated(p: &Program, limit: u64) {
    let (full_summary, full_records) = dfs_run(p, 1, None);
    assert!(full_summary.paths > limit, "limit must actually truncate");
    let (ref_summary, ref_records, _) = coverage_run(p, 1, Some(limit));
    assert_eq!(ref_summary.paths, limit, "{}: truncated count", p.name);
    assert!(ref_summary.truncated, "{}: truncated flag", p.name);
    assert_eq!(
        ref_records.as_slice(),
        &full_records[..limit as usize],
        "{}: truncation is the canonical prefix of the full run",
        p.name
    );

    for workers in [2usize, 4, 8] {
        let (summary, records, _) = coverage_run(p, workers, Some(limit));
        let what = format!("{} truncated coverage, {workers} workers", p.name);
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(records, ref_records, "{what}: merged records");
    }

    // The dfs policy truncates to the same canonical prefix.
    for workers in [1usize, 4] {
        let (summary, records) = dfs_run(p, workers, Some(limit));
        let what = format!("{} truncated dfs, {workers} workers", p.name);
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(records, ref_records, "{what}: merged records");
    }
}

/// Sequential paths-to-full-coverage under a strategy — the exact
/// ablation-4 metric, via the shared [`policy_trajectory`] helper.
fn paths_to_full_coverage(p: &Program, strategy: SearchStrategy) -> u64 {
    let t = policy_trajectory(p, strategy, AddressPolicyKind::default());
    assert_eq!(t.paths, p.expected_paths, "{}", p.name);
    t.paths_to_full_coverage
}

/// The warm-start × coverage-guided contract: with `.warm_start(true)` on
/// coverage-guided shard frontiers, merged records stay byte-identical to
/// the plain depth-first cache-off reference at every worker count,
/// including a truncated run.
///
/// The context-reuse pin rides along: coverage-guided subtree affinity is
/// exactly the access pattern a worker's retained context serves, so the
/// suite asserts prefix terms were served warm and the context was re-used
/// across different parent inputs — all while the merged records above
/// stay byte-identical.
fn check_warm_start(p: &Program, limit: u64) {
    let (ref_summary, ref_records) = dfs_run(p, 1, None);
    for workers in [1usize, 2, 4, 8] {
        let (summary, records, covered, counts) =
            coverage_run_counted(p, workers, None, true, true);
        let what = format!("{} warm coverage, {workers} workers", p.name);
        assert_eq!(summary.paths, p.expected_paths, "{what}: pinned count");
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(records, ref_records, "{what}: byte-identical to cache-off");
        assert!(covered > 0, "{what}: map was fed");
        assert!(
            counts.warm_prefix_reused > 0,
            "{what}: retained contexts served prefix terms"
        );
        assert!(
            counts.warm_cross_parent_reuse > 0,
            "{what}: the worker's context must serve sibling parents"
        );
    }
    let (cut_summary, cut_records, _) = coverage_run(p, 1, Some(limit));
    for workers in [1usize, 4] {
        let (summary, records, _) = coverage_run_configured(p, workers, Some(limit), true, true);
        let what = format!("{} warm truncated coverage, {workers} workers", p.name);
        assert_summaries_equal(&summary, &cut_summary, &what);
        assert_eq!(records, cut_records, "{what}: canonical prefix");
    }
}

/// A coverage-guided run with metrics and tracing fully on, stacked on
/// the warm start — the everything-enabled configuration.
fn instrumented_coverage_run(p: &Program, workers: usize) -> (Summary, Vec<PathRecord>) {
    let elf = p.build();
    let map = CoverageMap::shared_for(&elf);
    let policy_map = Arc::clone(&map);
    let observer_map = Arc::clone(&map);
    let registry = Arc::new(MetricsRegistry::new(workers));
    let sink = Arc::new(ChromeTraceSink::new());
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(workers)
        .warm_start(true)
        .metrics(Arc::clone(&registry))
        .trace(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .shard_strategy(move |_| {
            Box::new(CoverageGuided::<Prescription>::new(Arc::clone(&policy_map)))
        })
        .observer_factory(move |_| Box::new(CoverageObserver::new(Arc::clone(&observer_map))))
        .build_parallel()
        .expect("builds");
    let summary = session.run_all().expect("explores");
    let report = registry.report();
    assert_eq!(
        report.paths, summary.paths,
        "{}: metrics count every merged path",
        p.name
    );
    assert!(!sink.is_empty(), "{}: phases were traced", p.name);
    (summary, session.records().to_vec())
}

/// The observability × coverage × warm-start contract: metrics + tracing
/// on top of the warm coverage-guided stack must still merge records
/// byte-identical — and summaries, solver checks included, equal — to the
/// plain coverage-guided cache-off run, at every worker count.
fn check_instrumentation(p: &Program) {
    let (ref_summary, ref_records, _) = coverage_run(p, 1, None);
    for workers in [1usize, 2, 4, 8] {
        let (summary, records) = instrumented_coverage_run(p, workers);
        let what = format!("{} instrumented warm coverage, {workers} workers", p.name);
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(
            records, ref_records,
            "{what}: byte-identical to instrumentation-off"
        );
    }
}

#[test]
fn clif_parser_coverage_guided_is_deterministic() {
    check_program(&programs::CLIF_PARSER);
}

#[test]
fn clif_parser_instrumented_coverage_is_invisible_in_results() {
    check_instrumentation(&programs::CLIF_PARSER);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_instrumented_coverage_is_invisible_in_results() {
    check_instrumentation(&programs::URI_PARSER);
}

#[test]
fn clif_parser_warm_coverage_is_invisible_in_results() {
    check_warm_start(&programs::CLIF_PARSER, 17);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_warm_coverage_is_invisible_in_results() {
    check_warm_start(&programs::URI_PARSER, 300);
}

/// The warm × coverage × analysis stack: all three features on at once
/// must still merge records byte-identical to the plain depth-first
/// reference with every feature off, at every worker count, full and
/// truncated. (`solver_checks` is compared modulo the gate's
/// eliminations — the gate-off reference counts the screened queries.)
fn check_warm_coverage_analysis(p: &Program, limit: u64) {
    let (ref_summary, ref_records, _) = coverage_run_configured(p, 1, None, false, false);
    assert_eq!(ref_summary.paths, p.expected_paths, "{}: reference", p.name);
    for workers in [1usize, 2, 4, 8] {
        let (summary, records, covered) = coverage_run_configured(p, workers, None, true, true);
        let what = format!("{} warm+coverage+analysis, {workers} workers", p.name);
        assert_summaries_equal_modulo_checks(&summary, &ref_summary, &what);
        assert!(
            summary.solver_checks <= ref_summary.solver_checks,
            "{what}: the gate may only remove checks"
        );
        assert_eq!(records, ref_records, "{what}: byte-identical to all-off");
        assert!(covered > 0, "{what}: map was fed");
    }
    let (cut_summary, cut_records, _) = coverage_run_configured(p, 1, Some(limit), false, false);
    for workers in [1usize, 4] {
        let (summary, records, _) = coverage_run_configured(p, workers, Some(limit), true, true);
        let what = format!(
            "{} warm+coverage+analysis truncated, {workers} workers",
            p.name
        );
        assert_summaries_equal_modulo_checks(&summary, &cut_summary, &what);
        assert_eq!(records, cut_records, "{what}: canonical prefix");
    }
}

/// A collision-free scratch path for checkpoint files.
fn ck_path(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "binsym-coverage-{tag}-{}-{}.ck",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Simulates a kill: copies the live checkpoint file aside when the
/// `fire_at`-th `Written` event fires. Atomic tmp+rename replacement means
/// whatever inode the copy opens is a complete, consistent checkpoint.
#[derive(Debug)]
struct CopyOnWritten {
    src: PathBuf,
    dst: PathBuf,
    fire_at: u64,
    seen: Arc<AtomicU64>,
}
impl Observer for CopyOnWritten {
    fn on_checkpoint(&mut self, event: CheckpointEvent) {
        if let CheckpointEvent::Written { .. } = event {
            if self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.fire_at {
                std::fs::copy(&self.src, &self.dst).expect("copy checkpoint aside");
            }
        }
    }
}

/// One everything-on run (warm cache, coverage-guided scheduling, static
/// gate) checkpointing every merged path, optionally resuming from a
/// previous cut, with a kill-simulation observer composed next to each
/// worker's coverage observer.
fn persistent_coverage_run(
    p: &Program,
    workers: usize,
    checkpoint: Option<(&PathBuf, &CopyOnWritten)>,
    resume: Option<&PathBuf>,
) -> (Summary, Vec<PathRecord>) {
    let elf = p.build();
    let map = CoverageMap::shared_for(&elf);
    let policy_map = Arc::clone(&map);
    let observer_map = Arc::clone(&map);
    let mut builder = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(workers)
        .warm_start(true)
        .static_analysis(true)
        .shard_strategy(move |_| {
            Box::new(CoverageGuided::<Prescription>::new(Arc::clone(&policy_map)))
        });
    builder = match checkpoint {
        Some((live, kill)) => {
            let (src, dst, fire_at) = (kill.src.clone(), kill.dst.clone(), kill.fire_at);
            let seen = Arc::clone(&kill.seen);
            builder.checkpoint(live, 1).observer_factory(move |_| {
                Box::new((
                    CopyOnWritten {
                        src: src.clone(),
                        dst: dst.clone(),
                        fire_at,
                        seen: Arc::clone(&seen),
                    },
                    CoverageObserver::new(Arc::clone(&observer_map)),
                ))
            })
        }
        None => builder
            .observer_factory(move |_| Box::new(CoverageObserver::new(Arc::clone(&observer_map)))),
    };
    if let Some(path) = resume {
        builder = builder.resume(path);
    }
    let mut session = builder.build_parallel().expect("builds");
    let summary = session.run_all().expect("explores");
    (summary, session.records().to_vec())
}

/// The kill/resume contract under the full feature stack: a warm
/// coverage-guided gated run checkpointing every merged path, killed after
/// `fire_at` paths (simulated by copying the live checkpoint aside), then
/// resumed from the cut under the same stack, must merge records
/// byte-identical to the all-off depth-first reference at 1/2/4 workers.
fn check_kill_resume(p: &Program, fire_at: u64) {
    let (ref_summary, ref_records, _) = coverage_run_configured(p, 1, None, false, false);
    for workers in [1usize, 2, 4] {
        let live = ck_path("kill-live");
        let copy = ck_path("kill-copy");
        let kill = CopyOnWritten {
            src: live.clone(),
            dst: copy.clone(),
            fire_at,
            seen: Arc::new(AtomicU64::new(0)),
        };
        persistent_coverage_run(p, workers, Some((&live, &kill)), None);
        assert!(
            copy.exists(),
            "{workers} workers: mid-run checkpoint copied"
        );
        let (summary, records) = persistent_coverage_run(p, workers, None, Some(&copy));
        let _ = std::fs::remove_file(&live);
        let _ = std::fs::remove_file(&copy);
        let what = format!(
            "{} killed+resumed coverage stack, {workers} workers",
            p.name
        );
        assert_summaries_equal_modulo_checks(&summary, &ref_summary, &what);
        assert!(
            summary.solver_checks <= ref_summary.solver_checks,
            "{what}: the gate may only remove checks"
        );
        assert_eq!(
            records, ref_records,
            "{what}: byte-identical to the uninterrupted all-off run"
        );
    }
}

#[test]
fn clif_parser_kill_resume_under_full_stack_is_byte_identical() {
    check_kill_resume(&programs::CLIF_PARSER, 40);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_kill_resume_under_full_stack_is_byte_identical() {
    check_kill_resume(&programs::URI_PARSER, 500);
}

#[test]
fn clif_parser_warm_coverage_analysis_is_invisible_in_results() {
    check_warm_coverage_analysis(&programs::CLIF_PARSER, 17);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn bubble_sort_warm_coverage_analysis_is_invisible_in_results() {
    // The program where the gate actually eliminates queries, under the
    // full feature stack.
    check_warm_coverage_analysis(&programs::BUBBLE_SORT, 100);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_warm_coverage_analysis_is_invisible_in_results() {
    check_warm_coverage_analysis(&programs::URI_PARSER, 300);
}

#[test]
fn clif_parser_truncated_runs_are_canonical() {
    check_truncated(&programs::CLIF_PARSER, 17);
}

#[test]
fn bubble_sort_truncated_runs_are_canonical() {
    check_truncated(&programs::BUBBLE_SORT, 100);
}

#[test]
fn coverage_guided_reaches_full_coverage_before_dfs() {
    // The acceptance pin: prioritizing flips under uncovered branch sites
    // must surface the last unexecuted instruction in strictly fewer paths
    // than depth-first order on at least one Table I program.
    let p = &programs::CLIF_PARSER;
    let dfs = paths_to_full_coverage(p, SearchStrategy::Dfs);
    let coverage = paths_to_full_coverage(p, SearchStrategy::Coverage);
    assert!(
        coverage < dfs,
        "coverage-guided must reach full coverage first (coverage {coverage} vs dfs {dfs})"
    );
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn bubble_sort_coverage_guided_is_deterministic() {
    check_program(&programs::BUBBLE_SORT);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_coverage_guided_is_deterministic() {
    check_program(&programs::URI_PARSER);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_truncated_runs_are_canonical() {
    check_truncated(&programs::URI_PARSER, 300);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn base64_encode_coverage_guided_is_deterministic() {
    check_program(&programs::BASE64_ENCODE);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn insertion_sort_coverage_guided_is_deterministic() {
    check_program(&programs::INSERTION_SORT);
}

#[test]
fn table_lookup_coverage_guided_is_deterministic_under_every_policy() {
    // Coverage-guided scheduling composed with an address-concretization
    // policy: the policy decides which paths exist (pinned per policy),
    // the scheduler only their discovery order, so the merged records must
    // match the depth-first reference under the same policy byte-for-byte
    // at every worker count — and the windowed model must actually reach
    // full coverage through the coverage-guided frontier.
    use binsym_repro::bench::{TABLE_LOOKUP, TABLE_LOOKUP_SYMBOLIC_PATHS};

    let elf = TABLE_LOOKUP.build();
    for (policy, expected) in [
        (AddressPolicyKind::ConcretizeEq, TABLE_LOOKUP.expected_paths),
        (
            AddressPolicyKind::Symbolic { window: 64 },
            TABLE_LOOKUP_SYMBOLIC_PATHS,
        ),
    ] {
        let mut dfs = Session::builder(Spec::rv32im())
            .binary(&elf)
            .workers(1)
            .address_policy(policy)
            .build_parallel()
            .expect("builds");
        let ref_summary = dfs.run_all().expect("explores");
        assert_eq!(ref_summary.paths, expected, "{policy}: pinned count");
        let ref_records = dfs.records().to_vec();

        for workers in [1usize, 2, 4] {
            let map = CoverageMap::shared_for(&elf);
            let policy_map = Arc::clone(&map);
            let observer_map = Arc::clone(&map);
            let mut session = Session::builder(Spec::rv32im())
                .binary(&elf)
                .workers(workers)
                .address_policy(policy)
                .shard_strategy(move |_| {
                    Box::new(CoverageGuided::<Prescription>::new(Arc::clone(&policy_map)))
                })
                .observer_factory(move |_| {
                    Box::new(CoverageObserver::new(Arc::clone(&observer_map)))
                })
                .build_parallel()
                .expect("builds");
            let summary = session.run_all().expect("explores");
            let what = format!("table-lookup ({policy}), {workers} workers");
            assert_summaries_equal(&summary, &ref_summary, &what);
            assert_eq!(
                session.records(),
                ref_records.as_slice(),
                "{what}: merged records"
            );
            let full = map.covered_count() == map.tracked_slots();
            assert_eq!(
                full,
                matches!(policy, AddressPolicyKind::Symbolic { .. }),
                "{what}: only the windowed model reaches full coverage"
            );
        }
    }
}
