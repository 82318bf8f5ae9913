//! Determinism suite for the sharded `ParallelSession` (all five Table I
//! programs).
//!
//! A unit of sharded exploration is a pure function of its root
//! prescription, so a parallel exploration must produce **identical**
//! merged results — path counts, branch counts, per-path records (witness
//! inputs included), and summary contents — across 1/2/4/8 workers,
//! across repeated runs, and across shard scheduling policies (including
//! `RandomRestart` with a fixed seed). Against the *sequential* engine the
//! comparison is model-independent: the same pinned path count, the same
//! multiset of branch-decision fingerprints, the same solver-check and
//! step totals (witness inputs are solver model choices and may
//! legitimately differ between the sequential session's solver and a
//! unit's).
//!
//! The word-level static-analysis gate
//! ([`Session`]`Builder::static_analysis`) *removes* whole solver checks,
//! and a unit's solver never sees the queries it removes, so the gate may
//! change witnesses. Gated runs are pinned against the gated 1-worker
//! reference; against the gate-off run they agree on the path set and on
//! every summary field but `solver_checks`, which shrinks by exactly the
//! eliminated count (the observer's `sa_queries_eliminated`).
//!
//! The observability layer (`SessionBuilder::metrics` / `::trace`) carries
//! the same contract with no exceptions at all: phase timers and trace
//! spans observe the run and feed nothing back, so an instrumented run's
//! records and summary — solver checks included — are pinned byte-identical
//! to the uninstrumented run at every worker count.
//!
//! The address-concretization policies (`SessionBuilder::address_policy`)
//! are a *model* knob — `symbolic:N` may legitimately change
//! which paths exist — so each policy is pinned against its own 1-worker
//! reference: merged records byte-identical across 1/2/4/8 workers × gate,
//! across repeated runs, and across a mid-run kill/resume, on the
//! `table-lookup` benchmark where the policies actually diverge (and on a
//! variant of it that spans several units). On the Table I programs every
//! address is concrete, so all policies must reproduce the *default* run
//! byte-for-byte (policy inertness), and the default `eq` policy is
//! contractually the pre-policy engine.
//!
//! Every comparison above is relative, so a drift that moved all models
//! alike would pass them. The 1-worker record streams are therefore also
//! pinned to digests of their encoded bytes; records are byte-identical
//! across worker counts, so the pins fix those runs' records too.
//!
//! The three big programs run under `#[ignore]` so the debug-mode tier-1
//! suite stays fast; CI runs them in release with `--include-ignored`.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use binsym_repro::bench::programs::{self, Program};
use binsym_repro::bench::{TABLE_LOOKUP, TABLE_LOOKUP_SYMBOLIC_PATHS};
use binsym_repro::binsym::persist::section;
use binsym_repro::binsym::{
    decode_seq, encode_seq, AddressPolicyKind, Bfs, CheckpointEvent, ChromeTraceSink,
    CountingObserver, Document, MetricsRegistry, Observer, PathRecord, Prescription, RandomRestart,
    Session, SessionBuilder, Summary, TraceSink, TrailEntry,
};
use binsym_repro::isa::Spec;
use common::TABLE_UNITS;

/// Branch-decision fingerprints of a sequential exploration, in discovery
/// order, plus its summary.
fn sequential_fingerprint(p: &Program) -> (Summary, Vec<Vec<bool>>) {
    let elf = p.build();
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .build()
        .expect("builds");
    let decisions: Vec<Vec<bool>> = session
        .paths()
        .map(|r| {
            r.expect("path executes")
                .trail
                .iter()
                .filter_map(|e| match *e {
                    TrailEntry::Branch { taken, .. } => Some(taken),
                    _ => None,
                })
                .collect()
        })
        .collect();
    (session.summary(), decisions)
}

/// One parallel run with the given worker count and shard policy seed
/// (`None` = default depth-first policy).
fn parallel_run(p: &Program, workers: usize, seed: Option<u64>) -> (Summary, Vec<PathRecord>) {
    parallel_run_limited(p, workers, seed, None)
}

/// Like [`parallel_run`], optionally truncated to a path budget.
fn parallel_run_limited(
    p: &Program,
    workers: usize,
    seed: Option<u64>,
    limit: Option<u64>,
) -> (Summary, Vec<PathRecord>) {
    run_with(p, workers, |mut builder| {
        if let Some(seed) = seed {
            builder = builder.shard_strategy(move |i| {
                Box::new(RandomRestart::<Prescription>::with_seed(seed + i as u64))
            });
        }
        if let Some(limit) = limit {
            builder = builder.limit(limit);
        }
        builder
    })
}

/// One parallel run of `p` on `workers` workers, `configure` adding to the
/// plain builder.
fn run_with(
    p: &Program,
    workers: usize,
    configure: impl FnOnce(SessionBuilder) -> SessionBuilder,
) -> (Summary, Vec<PathRecord>) {
    let elf = p.build();
    let builder = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(workers);
    let mut session = configure(builder).build_parallel().expect("builds");
    let summary = session.run_all().expect("explores");
    (summary, session.records().to_vec())
}

/// The 64-bit FNV-1a digest of an encoded record stream.
fn records_digest(records: &[PathRecord]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for b in encode_seq(records) {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
    digest
}

/// Checks the path count of a 1-worker run under the default policy and
/// the digest of its encoded record stream. (The records are those of the
/// runs that `warm_start(true)` once selected, hence the name.)
fn check_warm_records_pinned(p: &Program, pinned: u64) {
    let (summary, records) = parallel_run(p, 1, None);
    assert_eq!(summary.paths, p.expected_paths, "{}", p.name);
    let digest = records_digest(&records);
    assert_eq!(digest, pinned, "{}: digest {digest:#018x}", p.name);
}

fn assert_summaries_equal(a: &Summary, b: &Summary, what: &str) {
    assert_eq!(a.solver_checks, b.solver_checks, "{what}: solver checks");
    assert_summaries_equal_modulo_checks(a, b, what);
}

/// Everything [`assert_summaries_equal`] pins except `solver_checks` —
/// the one summary field the static-analysis gate is *allowed* to change
/// (downward, by exactly the eliminated count).
fn assert_summaries_equal_modulo_checks(a: &Summary, b: &Summary, what: &str) {
    assert_eq!(a.paths, b.paths, "{what}: paths");
    assert_eq!(a.error_paths, b.error_paths, "{what}: error paths");
    assert_eq!(a.total_steps, b.total_steps, "{what}: total steps");
    assert_eq!(a.max_trail_len, b.max_trail_len, "{what}: max trail len");
    assert_eq!(a.truncated, b.truncated, "{what}: truncated");
}

/// One parallel run with the static-analysis gate explicitly set, plus a
/// shared counting observer so the gate's elimination counters are
/// visible to the accounting assertions.
fn analysis_run(
    p: &Program,
    workers: usize,
    limit: Option<u64>,
    analysis: bool,
) -> (Summary, Vec<PathRecord>, CountingObserver) {
    let elf = p.build();
    let counters = Arc::new(Mutex::new(CountingObserver::new()));
    let handle = Arc::clone(&counters);
    let mut builder = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(workers)
        .static_analysis(analysis)
        .observer_factory(move |_| Box::new(Arc::clone(&handle)));
    if let Some(limit) = limit {
        builder = builder.limit(limit);
    }
    let mut session = builder.build_parallel().expect("builds");
    let summary = session.run_all().expect("explores");
    let counts = *counters.lock().expect("counters");
    (summary, session.records().to_vec(), counts)
}

/// The static-analysis contract: gate on vs. off. The full 1-worker runs
/// agree on the path set and on every summary field but `solver_checks`,
/// and every check the gate saves is accounted for one-to-one by
/// `sa_queries_eliminated`. Gated runs — truncated to `limit` when given,
/// the canonical prefix of the full gated run — are byte-identical to the
/// gated 1-worker run at every worker count, with the same accounting on
/// full runs.
fn check_static_analysis(p: &Program, limit: Option<u64>) {
    let (off_summary, off_records, off_counts) = analysis_run(p, 1, None, false);
    assert_eq!(off_summary.paths, p.expected_paths, "{}: gate off", p.name);
    assert_eq!(
        off_counts.sa_queries_eliminated, 0,
        "{}: a disabled gate must not screen anything",
        p.name
    );
    let (on_summary, on_records, _) = analysis_run(p, 1, None, true);
    let what = format!("{} gate on vs off", p.name);
    assert_eq!(
        decision_set(&on_records),
        decision_set(&off_records),
        "{what}: path set"
    );
    assert_summaries_equal_modulo_checks(&on_summary, &off_summary, &what);

    let (ref_summary, ref_records, _) = analysis_run(p, 1, limit, true);
    if let Some(limit) = limit {
        assert_eq!(
            ref_records.as_slice(),
            &on_records[..limit as usize],
            "{}: gated truncation is the canonical prefix",
            p.name
        );
    }
    for workers in [1usize, 2, 4, 8] {
        let (summary, records, counts) = analysis_run(p, workers, limit, true);
        let what = format!("{} gate on, {workers} workers", p.name);
        assert_eq!(records, ref_records, "{what}: byte-identical to 1 worker");
        assert_summaries_equal(&summary, &ref_summary, &what);
        if limit.is_none() {
            // Full run: every unit merges, so the observer's elimination
            // counter explains the check delta exactly.
            assert_eq!(
                summary.solver_checks + counts.sa_queries_eliminated,
                off_summary.solver_checks,
                "{what}: eliminated queries must explain the full check delta"
            );
        }
    }
}

/// The full determinism contract for one benchmark program.
fn check_program(p: &Program) {
    let (seq_summary, seq_decisions) = sequential_fingerprint(p);
    assert_eq!(
        seq_summary.paths, p.expected_paths,
        "{}: sequential",
        p.name
    );
    let seq_branches: u64 = seq_decisions.iter().map(|d| d.len() as u64).sum();
    let mut seq_set = seq_decisions;
    seq_set.sort();

    // Reference: 1 worker, default policy.
    let (ref_summary, ref_records) = parallel_run(p, 1, None);

    for workers in [1usize, 2, 4, 8] {
        let (summary, records) = parallel_run(p, workers, None);
        let what = format!("{} with {workers} workers", p.name);

        // Pinned Table I path count.
        assert_eq!(summary.paths, p.expected_paths, "{what}: pinned count");
        // Identical summary contents and records across worker counts.
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(records, ref_records, "{what}: merged records");

        // Branch counts and the path set agree with the sequential engine.
        let par_branches: u64 = records.iter().map(PathRecord::branches).sum();
        assert_eq!(par_branches, seq_branches, "{what}: total branches");
        let mut par_set: Vec<Vec<bool>> = records.iter().map(|r| r.decisions.clone()).collect();
        par_set.sort();
        assert_eq!(par_set, seq_set, "{what}: path set vs sequential");
        assert_eq!(summary.total_steps, seq_summary.total_steps, "{what}");
        assert_eq!(summary.solver_checks, seq_summary.solver_checks, "{what}");
        assert_eq!(summary.max_trail_len, seq_summary.max_trail_len, "{what}");
        assert_eq!(
            summary.error_paths.len(),
            seq_summary.error_paths.len(),
            "{what}: error path count"
        );
    }

    // A repeated run, RandomRestart with a fixed seed, breadth-first
    // shards, and metrics plus tracing: scheduling and wall time change,
    // results do not.
    let mut runs = vec![("repeated".to_string(), parallel_run(p, 2, None))];
    for workers in [1usize, 4] {
        let run = parallel_run(p, workers, Some(0xdead_beef));
        runs.push((format!("random-restart {workers} workers"), run));
    }
    runs.push((
        "bfs, 2 workers".to_string(),
        run_with(p, 2, |b| {
            b.shard_strategy(|_| Box::new(Bfs::<Prescription>::new()))
        }),
    ));
    runs.push((
        "instrumented, 2 workers".to_string(),
        run_with(p, 2, |b| {
            b.metrics(Arc::new(MetricsRegistry::new(2)))
                .trace(Arc::new(ChromeTraceSink::new()) as Arc<dyn TraceSink>)
        }),
    ));
    for (config, (summary, records)) in runs {
        let what = format!("{} {config}", p.name);
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(records, ref_records, "{what}: merged records");
    }
}

/// The truncated-run contract: a `limit`-bounded run returns the canonical
/// `limit`-lowest-`PathId` prefix of the full exploration — byte-identical
/// across 1/2/4/8 workers, repeated runs, and shard policies — instead of
/// whichever `limit` paths happened to finish first on one schedule.
fn check_truncated(p: &Program, limit: u64) {
    let (_, full_records) = parallel_run(p, 1, None);
    assert!(
        full_records.len() as u64 > limit,
        "{}: limit must actually truncate",
        p.name
    );
    let (ref_summary, ref_records) = parallel_run_limited(p, 1, None, Some(limit));
    assert_eq!(ref_summary.paths, limit, "{}: exact count", p.name);
    assert!(ref_summary.truncated, "{}: truncated flag", p.name);
    assert_eq!(
        ref_records.as_slice(),
        &full_records[..limit as usize],
        "{}: truncation is the canonical prefix of the unbounded run",
        p.name
    );

    for workers in [2usize, 4, 8] {
        let (summary, records) = parallel_run_limited(p, workers, None, Some(limit));
        let what = format!("{} truncated, {workers} workers", p.name);
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(records, ref_records, "{what}: merged records");
    }

    // Scheduling policies must not leak into the truncated result either.
    for workers in [1usize, 4] {
        let (summary, records) = parallel_run_limited(p, workers, Some(0xfeed_f00d), Some(limit));
        let what = format!("{} truncated random-restart, {workers} workers", p.name);
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(records, ref_records, "{what}: merged records");
    }

    // Repeated run: byte-identical.
    let (summary, records) = parallel_run_limited(p, 4, None, Some(limit));
    assert_summaries_equal(&summary, &ref_summary, &format!("{} repeated", p.name));
    assert_eq!(records, ref_records, "{}: repeated truncated run", p.name);
}

/// Sorted branch-decision fingerprints: the model-independent path set.
fn decision_set(records: &[PathRecord]) -> Vec<Vec<bool>> {
    let mut set: Vec<Vec<bool>> = records.iter().map(|r| r.decisions.clone()).collect();
    set.sort();
    set
}

/// A collision-free scratch path for checkpoint files.
fn ck_path(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "binsym-determinism-{tag}-{}-{}.ck",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::SeqCst)
    ))
}

/// Simulates a kill: copies the live checkpoint file aside when the
/// `fire_at`-th `Written` event fires. Atomic tmp+rename replacement means
/// whatever inode the copy opens is a complete, consistent checkpoint, so
/// resuming from the copy is exactly resuming a process killed at that
/// moment.
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

/// The kill/resume contract: a run checkpointing at every unit commit that
/// merges a path, killed at its `fire_at`-th write (simulated by copying
/// the live checkpoint aside) while units are still pending, then resumed
/// from the cut — with the static gate on both sides — must produce merged
/// records byte-identical to the uninterrupted reference at 1/2/4 workers.
fn check_kill_resume(p: &Program, fire_at: u64) {
    check_kill_resume_policy(p, fire_at, AddressPolicyKind::default(), true);
}

/// [`check_kill_resume`] under an explicit address-concretization policy:
/// the checkpoint round-trips the policy's prescriptions, so the resumed
/// exploration must still be byte-identical to the uninterrupted run under
/// the same configuration. `mid_run` says whether units are still pending
/// at the cut; one unit can hold a small program's every path.
fn check_kill_resume_policy(p: &Program, fire_at: u64, policy: AddressPolicyKind, mid_run: bool) {
    let elf = p.build();
    let (ref_summary, ref_records, _) = policy_run(p, 1, policy, true);
    for workers in [1usize, 2, 4] {
        let live = ck_path("kill-live");
        let copy = ck_path("kill-copy");
        // The copy is taken when the event fires, outside the commit lock,
        // so on a loaded host a later write can replace the file first: a
        // cut that should be mid-run is taken again, up to five times.
        let mut attempts = 0;
        let pending = loop {
            attempts += 1;
            let seen = Arc::new(AtomicU64::new(0));
            let (src, dst, handle) = (live.clone(), copy.clone(), Arc::clone(&seen));
            let mut interrupted = Session::builder(Spec::rv32im())
                .binary(&elf)
                .workers(workers)
                .static_analysis(true)
                .address_policy(policy)
                .checkpoint(&live, 1)
                .observer_factory(move |_| {
                    Box::new(CopyOnWritten {
                        src: src.clone(),
                        dst: dst.clone(),
                        fire_at,
                        seen: Arc::clone(&handle),
                    })
                })
                .build_parallel()
                .expect("builds");
            interrupted.run_all().expect("explores");
            assert!(copy.exists(), "{workers} workers: checkpoint copied");
            let doc = Document::read(&copy).expect("reads");
            let pending: Vec<Prescription> =
                decode_seq(doc.require(section::PENDING).expect("pending")).expect("decodes");
            if !(mid_run && pending.is_empty() && attempts < 5) {
                break pending;
            }
        };
        assert_eq!(
            !pending.is_empty(),
            mid_run,
            "{workers} workers: units pending at the cut"
        );
        let mut resumed = Session::builder(Spec::rv32im())
            .binary(&elf)
            .workers(workers)
            .static_analysis(true)
            .address_policy(policy)
            .resume(&copy)
            .build_parallel()
            .expect("builds");
        let summary = resumed.run_all().expect("resumes");
        let _ = std::fs::remove_file(&live);
        let _ = std::fs::remove_file(&copy);
        let what = format!("{} ({policy}) killed+resumed, {workers} workers", p.name);
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(
            resumed.records(),
            ref_records.as_slice(),
            "{what}: byte-identical to the uninterrupted run"
        );
    }
}

/// One parallel run under an explicit address-concretization policy, with
/// the static gate set, plus the shared counting observer for check
/// accounting.
fn policy_run(
    p: &Program,
    workers: usize,
    policy: AddressPolicyKind,
    analysis: bool,
) -> (Summary, Vec<PathRecord>, CountingObserver) {
    let elf = p.build();
    let counters = Arc::new(Mutex::new(CountingObserver::new()));
    let handle = Arc::clone(&counters);
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(workers)
        .static_analysis(analysis)
        .address_policy(policy)
        .observer_factory(move |_| Box::new(Arc::clone(&handle)))
        .build_parallel()
        .expect("builds");
    let summary = session.run_all().expect("explores");
    let counts = *counters.lock().expect("counters");
    (summary, session.records().to_vec(), counts)
}

/// The per-policy determinism contract on one program: every
/// 1/2/4/8-worker × gate combination must merge records byte-identical to
/// the policy's own 1-worker reference with the same gate setting; against
/// the gate-off reference every run agrees on the path set and on the
/// summary but `solver_checks`, with the gate's check savings accounted
/// one-to-one; and a repeated run must reproduce the bytes.
/// `expected_paths` pins the policy's path count.
fn check_policy_matrix(p: &Program, policy: AddressPolicyKind, expected_paths: u64) {
    let refs = [false, true].map(|gate| policy_run(p, 1, policy, gate));
    let (off_summary, off_records, off_counts) = &refs[0];
    let what = format!("{} ({policy})", p.name);
    assert_eq!(off_summary.paths, expected_paths, "{what}: pinned count");
    assert_eq!(
        off_counts.sa_queries_eliminated, 0,
        "{what}: a disabled gate must not screen anything"
    );
    for workers in [1usize, 2, 4, 8] {
        for gate in [false, true] {
            let (summary, records, counts) = policy_run(p, workers, policy, gate);
            let what = format!(
                "{} ({policy}), {workers} workers{}",
                p.name,
                if gate { " + gate" } else { "" },
            );
            let (ref_summary, ref_records, _) = &refs[usize::from(gate)];
            assert_eq!(&records, ref_records, "{what}: merged records");
            assert_summaries_equal(&summary, ref_summary, &what);
            assert_eq!(
                decision_set(&records),
                decision_set(off_records),
                "{what}: path set"
            );
            assert_summaries_equal_modulo_checks(&summary, off_summary, &what);
            assert_eq!(
                summary.solver_checks + counts.sa_queries_eliminated,
                off_summary.solver_checks,
                "{what}: eliminated queries must explain the full check delta"
            );
        }
    }
    // Repeated run: byte-identical.
    let (summary, records, _) = policy_run(p, 2, policy, true);
    let what = format!("{} ({policy}) repeated", p.name);
    let (ref_summary, ref_records, _) = &refs[1];
    assert_summaries_equal(&summary, ref_summary, &what);
    assert_eq!(&records, ref_records, "{what}: merged records");
}

/// One parallel run with metrics and tracing fully on. Also sanity-checks
/// the collected data: the merged report counts every path and the trace
/// sink saw events.
fn instrumented_run(p: &Program, workers: usize) -> (Summary, Vec<PathRecord>) {
    let elf = p.build();
    let registry = Arc::new(MetricsRegistry::new(workers));
    let sink = Arc::new(ChromeTraceSink::new());
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(workers)
        .metrics(Arc::clone(&registry))
        .trace(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .build_parallel()
        .expect("builds");
    let summary = session.run_all().expect("explores");
    let report = registry.report();
    assert_eq!(
        report.paths, summary.paths,
        "{}: metrics count every merged path",
        p.name
    );
    assert!(report.queries > 0, "{}: queries were timed", p.name);
    assert!(!sink.is_empty(), "{}: phases were traced", p.name);
    (summary, session.records().to_vec())
}

/// The observability contract: metrics + tracing on vs. off at every
/// worker count — merged records byte-identical, summaries (solver checks
/// included) identical. Instrumentation changes wall time only.
fn check_instrumentation(p: &Program) {
    let (ref_summary, ref_records) = parallel_run(p, 1, None);
    for workers in [1usize, 2, 4, 8] {
        let (summary, records) = instrumented_run(p, workers);
        let what = format!("{} instrumented, {workers} workers", p.name);
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(
            records, ref_records,
            "{what}: byte-identical to instrumentation-off"
        );
    }
}

#[test]
fn clif_parser_is_deterministic() {
    check_program(&programs::CLIF_PARSER);
}

#[test]
fn clif_parser_instrumentation_is_invisible_in_results() {
    check_instrumentation(&programs::CLIF_PARSER);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_instrumentation_is_invisible_in_results() {
    check_instrumentation(&programs::URI_PARSER);
}

#[test]
fn clif_parser_static_analysis_is_invisible_in_results() {
    check_static_analysis(&programs::CLIF_PARSER, None);
}

#[test]
fn bubble_sort_truncated_static_analysis_is_invisible_in_results() {
    // Bubble sort is the Table I program with infeasible flips — the one
    // where the gate actually eliminates queries — so it is the essential
    // on-vs-off pin; truncated so the debug-mode suite stays fast.
    check_static_analysis(&programs::BUBBLE_SORT, Some(120));
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn bubble_sort_static_analysis_is_invisible_in_results() {
    check_static_analysis(&programs::BUBBLE_SORT, None);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_static_analysis_is_invisible_in_results() {
    check_static_analysis(&programs::URI_PARSER, None);
}

#[test]
fn clif_parser_kill_resume_is_byte_identical() {
    // One unit holds all 120 paths, so the run is cut at its one commit;
    // the multi-unit cuts are table-units' (tier-1) and the heavy ones.
    let policy = AddressPolicyKind::default();
    check_kill_resume_policy(&programs::CLIF_PARSER, 1, policy, false);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn bubble_sort_kill_resume_is_byte_identical() {
    check_kill_resume(&programs::BUBBLE_SORT, 1);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_kill_resume_is_byte_identical() {
    check_kill_resume(&programs::URI_PARSER, 3);
}

#[test]
fn clif_parser_truncated_run_is_canonical() {
    check_truncated(&programs::CLIF_PARSER, 23);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn bubble_sort_truncated_run_is_canonical() {
    check_truncated(&programs::BUBBLE_SORT, 250);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_truncated_run_is_canonical() {
    check_truncated(&programs::URI_PARSER, 300);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn base64_encode_truncated_run_is_canonical() {
    check_truncated(&programs::BASE64_ENCODE, 300);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn insertion_sort_truncated_run_is_canonical() {
    check_truncated(&programs::INSERTION_SORT, 300);
}

#[test]
fn bubble_sort_is_deterministic() {
    check_program(&programs::BUBBLE_SORT);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_is_deterministic() {
    check_program(&programs::URI_PARSER);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn base64_encode_is_deterministic() {
    check_program(&programs::BASE64_ENCODE);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn insertion_sort_is_deterministic() {
    check_program(&programs::INSERTION_SORT);
}

#[test]
fn table_lookup_is_deterministic_under_every_policy() {
    // The one benchmark whose path set actually depends on the policy:
    // `eq` concretization stops at the pinned 2 paths, the windowed
    // array model enumerates all 6 — each byte-identically at every
    // worker count × gate combination.
    check_policy_matrix(
        &TABLE_LOOKUP,
        AddressPolicyKind::ConcretizeEq,
        TABLE_LOOKUP.expected_paths,
    );
    check_policy_matrix(
        &TABLE_LOOKUP,
        AddressPolicyKind::Symbolic { window: 64 },
        TABLE_LOOKUP_SYMBOLIC_PATHS,
    );
}

#[test]
fn table_lookup_kill_resume_is_byte_identical_under_every_policy() {
    // The checkpoint wire format carries each policy's prescriptions, so a
    // kill must resume to identical bytes under every policy — including
    // the symbolic window, whose units replay through the symbolic load.
    // One unit holds all of table-lookup's paths, so its commit is the
    // only cut before the drain; table-units is cut mid-run.
    for policy in [
        AddressPolicyKind::ConcretizeEq,
        AddressPolicyKind::Symbolic { window: 64 },
    ] {
        check_kill_resume_policy(&TABLE_LOOKUP, 1, policy, false);
        check_kill_resume_policy(&TABLE_UNITS, 1, policy, true);
    }
}

#[test]
fn clif_parser_policies_are_inert_on_concrete_addresses() {
    // Every clif-parser address is concrete, so both policies must
    // reproduce the default run byte-for-byte — `eq` because it *is* the
    // default (the pre-policy engine's §III-B pin), `symbolic:64` because a
    // policy that never fires must be invisible.
    let (ref_summary, ref_records) = parallel_run(&programs::CLIF_PARSER, 1, None);
    for policy in [
        AddressPolicyKind::ConcretizeEq,
        AddressPolicyKind::Symbolic { window: 64 },
    ] {
        let (summary, records, _) = policy_run(&programs::CLIF_PARSER, 2, policy, true);
        let what = format!("clif-parser ({policy})");
        assert_summaries_equal(&summary, &ref_summary, &what);
        assert_eq!(records, ref_records, "{what}: byte-identical to default");
    }
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_policies_are_inert_on_concrete_addresses() {
    let (ref_summary, ref_records) = parallel_run(&programs::URI_PARSER, 1, None);
    let policy = AddressPolicyKind::Symbolic { window: 64 };
    let (summary, records, _) = policy_run(&programs::URI_PARSER, 4, policy, true);
    let what = format!("uri-parser ({policy})");
    assert_summaries_equal(&summary, &ref_summary, &what);
    assert_eq!(records, ref_records, "{what}: byte-identical to default");
}

#[test]
fn clif_parser_warm_records_are_pinned() {
    check_warm_records_pinned(&programs::CLIF_PARSER, 0xb47a_b20b_4641_67b6);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn bubble_sort_warm_records_are_pinned() {
    check_warm_records_pinned(&programs::BUBBLE_SORT, 0xa526_5693_67b5_02e1);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn uri_parser_warm_records_are_pinned() {
    check_warm_records_pinned(&programs::URI_PARSER, 0x66d9_697f_2112_7b7c);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn insertion_sort_warm_records_are_pinned() {
    check_warm_records_pinned(&programs::INSERTION_SORT, 0x43ca_de81_43ef_814b);
}

#[test]
#[ignore = "heavy: run in release (CI runs with --include-ignored)"]
fn base64_encode_warm_records_are_pinned() {
    check_warm_records_pinned(&programs::BASE64_ENCODE, 0x108a_eb5e_40f9_57f3);
}
