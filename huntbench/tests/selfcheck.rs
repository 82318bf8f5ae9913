//! Self-checks of the hunt benchmark on a smoke subset (`clif-parser` and
//! `table-lookup`): every metric `BENCHMARK.json` lists is emitted, the
//! traced hunt's Chrome trace validates, and the witness oracle flags a
//! corrupted witness.
//!
//! Run with `cargo test --manifest-path huntbench/Cargo.toml`.

use std::path::PathBuf;
use std::time::Duration;

use binsym::AddressPolicyKind;
use binsym_bench::cli::JsonValue;
use binsym_bench::programs::{self, TABLE_LOOKUP};
use binsym_huntbench::{explore, oracle, prepare, run, shuffled, Job, Workload};

/// The workload's `clif-parser` and `table-lookup` explorations
/// (`table-lookup` under the default policy where the workload has none).
fn smoke_jobs(workload: Workload) -> Vec<Job> {
    let mut jobs: Vec<Job> = workload
        .jobs()
        .into_iter()
        .filter(|j| matches!(j.program.name, "clif-parser" | "table-lookup"))
        .collect();
    if jobs.len() == 1 {
        jobs.push(Job {
            program: TABLE_LOOKUP,
            policy: AddressPolicyKind::ConcretizeEq,
            expected_paths: TABLE_LOOKUP.expected_paths,
        });
    }
    jobs
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Metric `(name, unit)` pairs.
type Names = Vec<(String, String)>;

/// `(end_to_end, per_layer)` metric names and units of `BENCHMARK.json`.
fn listed_metrics() -> (Names, Names) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Names {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    (names("end_to_end"), names("per_layer"))
}

fn emitted(outcome: &run::Outcome) -> Names {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn smoke_subset_emits_every_listed_metric_and_a_valid_trace() {
    let (end_to_end, per_layer) = listed_metrics();
    for workload in Workload::ALL {
        let jobs = smoke_jobs(workload);
        let expected: u64 = jobs.iter().map(|j| j.expected_paths).sum();
        let dir = scratch(&format!("smoke-{}", workload.name()));

        let plain = run::plain(workload, &jobs, &dir, Duration::ZERO).expect("plain run");
        assert_eq!(emitted(&plain), end_to_end, "{}", workload.name());
        assert_eq!(plain.oracle.failed, 0, "{:?}", plain.oracle.problems);
        assert_eq!(plain.oracle.attempted, expected);

        let traced = run::traced(workload, &jobs, &dir, Duration::ZERO).expect("traced run");
        assert!(
            traced.trace_ok,
            "{}: trace fails validate_trace",
            workload.name()
        );
        assert_eq!(traced.oracle.failed, 0, "{:?}", traced.oracle.problems);
        // The smoke subset explores one Table I program, so only its
        // per-program row appears.
        let listed: Vec<_> = per_layer
            .iter()
            .filter(|(name, _)| !name.starts_with("prog.") || name == "prog.clif-parser_s")
            .cloned()
            .collect();
        let mut got = emitted(&traced);
        got.sort();
        let mut want = listed;
        want.sort();
        assert_eq!(got, want, "{}", workload.name());
        for m in &traced.metrics {
            let signed = m.name == "trace.overhead_s";
            assert!(m.value.is_finite() && (signed || m.value >= 0.0), "{m:?}");
        }
    }
}

#[test]
fn oracle_counts_a_corrupted_witness_as_failed() {
    let job = smoke_jobs(Workload::Seq)[0];
    assert_eq!(job.program.name, "clif-parser");
    let dir = scratch("corrupt");
    let prepared = prepare(Workload::Seq, &[job], None, &dir)
        .expect("builds")
        .pop()
        .expect("one session");
    let explored = explore(prepared).expect("explores");
    let clean = oracle::check(&job, &explored.elf, &explored.witnesses);
    assert_eq!(
        (clean.attempted, clean.failed),
        (120, 0),
        "{:?}",
        clean.problems
    );

    // Corrupt one byte of a witness so that it drives another path: copy
    // the one byte in which two witnesses differ. (A byte the path never
    // branches on would leave a witness that is still valid.)
    let ws = &explored.witnesses;
    let (i, j, at) = (0..ws.len())
        .flat_map(|i| (0..ws.len()).map(move |j| (i, j)))
        .find_map(|(i, j)| {
            let diff: Vec<usize> = (0..ws[i].input.len())
                .filter(|&k| ws[i].input[k] != ws[j].input[k])
                .collect();
            (diff.len() == 1).then(|| (i, j, diff[0]))
        })
        .expect("two witnesses differing in one byte");
    let mut witnesses = ws.clone();
    witnesses[i].input[at] = ws[j].input[at];
    let corrupted = oracle::check(&job, &explored.elf, &witnesses);
    assert_eq!(corrupted.attempted, 120);
    assert_eq!(corrupted.failed, 1, "{:?}", corrupted.problems);
}

#[test]
fn seed_only_permutes_the_programs() {
    let names = |seed| -> Vec<&str> {
        shuffled(Workload::ParWarm.jobs(), seed)
            .iter()
            .map(|j| j.program.name)
            .collect()
    };
    assert_eq!(names(7), names(7));
    let mut sorted = names(7);
    sorted.sort_unstable();
    let mut all: Vec<&str> = programs::all_programs().iter().map(|p| p.name).collect();
    all.push(TABLE_LOOKUP.name);
    all.sort_unstable();
    assert_eq!(sorted, all);
    assert!(
        (0..16).any(|s| names(s) != names(0)),
        "seeds reorder the hunt"
    );
}
