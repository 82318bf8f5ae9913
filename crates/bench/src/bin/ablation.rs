//! Ablation harness for the design choices described in the README. (The
//! incremental-vs-fresh solver comparison that was ablation 1 is the hunt
//! benchmark's `seq` vs `par-cold` workloads, and ablation 3's `seq` vs
//! 1-worker cold rows; the remaining ablations keep their numbers.)
//!
//! 2. **Lift caching** — the IR engine with and without its translation
//!    cache (the BINSEC-vs-angr structural difference, isolated from the
//!    interpretation-overhead model).
//! 3. **Worker scaling and warm start** — the sharded `ParallelSession`
//!    (replay-based exploration, fresh solver context per prescription) at
//!    1..=N workers vs. the sequential incremental engine, isolating what
//!    the prescription-replay model costs and what the parallelism buys
//!    back; each worker count also runs with the deterministic
//!    warm start (`.warm_start(true)`), quantifying how much
//!    replayed-prefix cost the cache claws back (per-path seconds and
//!    cache hit/reuse counters in the `--json` rows) — with results
//!    byte-identical to the cache-off run by construction.
//! 4. **Search strategy vs. coverage velocity** — paths needed to reach
//!    full text-segment PC coverage under DFS, BFS, and the
//!    coverage-guided policy, on all five Table I programs. Every policy
//!    enumerates the same complete path set; what differs — and what a
//!    truncated exploration budget buys — is how *early* unexecuted code
//!    surfaces.
//! 5. **Static-analysis gate** — the word-level known-bits/interval
//!    screen (`.static_analysis(..)`) on vs. off, on all five Table I
//!    programs. The gate may only remove whole solver queries, never
//!    change results, so the run asserts
//!    `checks(off) == checks(on) + eliminated` alongside the path count.
//!    Only programs whose flip set contains infeasible branches (bubble
//!    sort in Table I) can show nonzero elimination; the rows carry the
//!    off-side unsat totals so the ceiling is visible next to the count.
//! 6. **Checkpoint overhead** — the atomic frontier persistence
//!    (`.checkpoint(path, every)`) off vs. every 16 merged paths vs. every
//!    single path, on the sharded engine. Checkpoints are wall-time-only
//!    (the resume determinism pins forbid result drift), so the rows
//!    quantify what the tmp+rename serialization of the full committed
//!    record set costs at each interval; `checkpoints_written` counts the
//!    writes.
//! 7. **Memory policy** — the address-concretization policies
//!    (`.address_policy(..)`) compared on the dedicated `table-lookup`
//!    benchmark and the five Table I programs: `eq` (the paper's §III-B
//!    pin) and `symbolic:64` (the window-relational array model). Path
//!    count, solver checks, wall time, and coverage per row. On the Table
//!    I programs both policies enumerate the same complete path set (their
//!    addresses are concrete); on `table-lookup` the `eq` concretization
//!    saturates at partial coverage while `symbolic:64` reaches every
//!    instruction —
//!    the row carries `sym_fewer_paths_to_full: true` once that
//!    separation is asserted.
//!
//! ```text
//! cargo run --release -p binsym-bench --bin ablation \
//!     [--quick] [--smoke] [--workers N] [--runs N] [--json PATH] \
//!     [--metrics] [--trace PATH] [--checkpoint PATH]
//! ```
//!
//! `--checkpoint PATH` redirects ablation 6's checkpoint files from the
//! temp directory to `PATH.<every>.<benchmark>.ck` (and keeps them);
//! `--checkpoint-every` is fixed by the ablation grid (off / 16 / 1) and
//! `--resume` is ignored here — an ablation measures complete runs, and a
//! resumed round would skip the very work being timed.
//!
//! `--metrics` adds per-phase seconds (execute vs solve vs gate, averaged
//! over the rounds like the wall times) and query-latency percentiles to
//! the timed ablations' JSON rows; `--trace PATH` records the campaign
//! into one Chrome trace-event file for `ui.perfetto.dev`.
//!
//! `--runs N` averages the timed ablations (3, 5 and 6) over N interleaved
//! rounds (default 1), damping scheduler noise on shared hardware; the
//! emitted rows carry per-round values (totals divided by N). Every
//! counter but the warm-cache ones repeats exactly across rounds. The
//! `warm_*` counters depend on the schedule at 2+ workers (each worker's
//! cache holds what it happened to pop or steal), so ablation 3 reports
//! them as exact per-round means, which need not be whole.
//!
//! `--smoke` is the CI-sized run: ablation 3 (warm start on/off, on the
//! smallest Table I program and on uri-parser — the cross-parent reuse
//! canary, whose warm rows are asserted to show `warm_prefix_reused > 0`)
//! plus ablation 5 (gate on/off on the smallest program and on bubble
//! sort — the one with infeasible flips) plus ablation 7 (both memory
//! policies on `table-lookup` and the smallest Table I program,
//! asserting the symbolic-coverage separation), so every merge exercises
//! the warm-start, queries-eliminated, and memory-policy datapoints
//! without the full matrix.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use binsym::{
    AddressPolicyKind, ChromeTraceSink, CountingObserver, MetricsRegistry, MetricsReport, Session,
    SessionBuilder,
};
use binsym_bench::cli::{
    add_counters, counters_per_round, metrics_json, warm_means, write_json, write_trace, BenchOpts,
    Json,
};
use binsym_bench::{
    all_programs, policy_trajectory, programs, Program, SearchStrategy, TABLE_LOOKUP,
    TABLE_LOOKUP_SYMBOLIC_PATHS,
};
use binsym_elf::ElfFile;
use binsym_isa::Spec;
use binsym_lifter::{EngineConfig, LifterBugs, LifterExecutor};

fn main() {
    let opts = BenchOpts::from_env(&[]);
    if opts.resume.is_some() {
        eprintln!("--resume is ignored: ablations time complete runs only");
    }
    let progs = if opts.smoke {
        vec![programs::CLIF_PARSER]
    } else {
        vec![programs::CLIF_PARSER, programs::URI_PARSER]
    };
    let progs = &progs[..];
    let mut json_rows = Vec::new();
    let sink = opts.trace_sink();
    let timing = Timing {
        runs: opts.runs.unwrap_or(1),
        metrics: opts.metrics,
        trace: sink.as_ref(),
    };

    if opts.smoke {
        let max_workers = opts.workers.unwrap_or(2);
        // uri-parser rides along in the CI-sized run because it is the
        // program whose flip set only shares prefixes *across* parents:
        // its `warm_prefix_reused` was exactly 0 when contexts were keyed
        // by parent input, so it is the regression canary for the worker
        // context's cross-parent reuse.
        ablation3(
            &[programs::CLIF_PARSER, programs::URI_PARSER],
            max_workers,
            &timing,
            &mut json_rows,
        );
        assert_warm_prefix_reuse(&json_rows, "uri-parser");
        // Bubble sort is the Table I program whose flip set contains
        // infeasible branches, so it is the one that shows a nonzero
        // queries-eliminated count in CI.
        ablation5(
            &[programs::CLIF_PARSER, programs::BUBBLE_SORT],
            max_workers,
            &timing,
            &mut json_rows,
        );
        // Checkpoint overhead on the smallest program: CI pins that the
        // every-1 row reports `checkpoints_written == paths + 1` (one per
        // committed path plus the drain write) without result drift.
        ablation6(
            &[programs::CLIF_PARSER],
            max_workers,
            timing.runs,
            opts.checkpoint.as_deref(),
            &mut json_rows,
        );
        // The memory-policy separation: CI pins that `symbolic:64` reaches
        // full coverage on table-lookup while the concretizing policies
        // saturate below it.
        ablation7(&[TABLE_LOOKUP, programs::CLIF_PARSER], &mut json_rows);
        if let Some(path) = &opts.json {
            let doc = Json::O(vec![
                ("bin", Json::s("ablation")),
                ("smoke", Json::B(true)),
                ("max_workers", Json::U(max_workers as u64)),
                ("rows", Json::A(json_rows)),
            ]);
            write_json(path, &doc);
        }
        write_trace(&opts, sink.as_deref());
        return;
    }

    println!("ABLATION 2 — IR-engine lift cache (no interpretation overhead)\n");
    println!(
        "{:<16} {:>14} {:>14} {:>12} {:>8}",
        "Benchmark", "cached", "uncached", "lifts(unc.)", "slowdown"
    );
    for p in progs {
        let elf = p.build();
        let mut times = Vec::new();
        let mut lifts = 0;
        for cache in [true, false] {
            let exec = LifterExecutor::new(
                &elf,
                EngineConfig {
                    bugs: LifterBugs::NONE,
                    cache_blocks: cache,
                    interp_overhead: 0,
                },
            )
            .expect("sym input");
            // Shared handle: the session owns one clone, we keep the other
            // to read the lift counter after exploration.
            let exec = Rc::new(RefCell::new(exec));
            let mut session = Session::executor_builder(Rc::clone(&exec))
                .build()
                .expect("builds");
            let start = Instant::now();
            let s = session.run_all().expect("explores");
            assert_eq!(s.paths, p.expected_paths);
            times.push(start.elapsed());
            if !cache {
                lifts = exec.borrow().lift_count;
            }
        }
        println!(
            "{:<16} {:>12.1?} {:>12.1?} {:>12} {:>7.2}x",
            p.name,
            times[0],
            times[1],
            lifts,
            times[1].as_secs_f64() / times[0].as_secs_f64().max(1e-9),
        );
        json_rows.push(Json::O(vec![
            ("ablation", Json::s("lift-cache")),
            ("benchmark", Json::s(p.name)),
            ("cached_seconds", Json::F(times[0].as_secs_f64())),
            ("uncached_seconds", Json::F(times[1].as_secs_f64())),
            ("uncached_lifts", Json::U(lifts)),
        ]));
    }

    let max_workers = opts.workers.unwrap_or(4);
    // Ablations 3–6 cover all five Table I programs (`--quick` keeps the
    // small ones). The warm context must show nonzero prefix reuse on
    // every one of them, so the full run records warm counters for the
    // whole table.
    let table1: Vec<_> = all_programs()
        .into_iter()
        .filter(|p| !(opts.quick && p.expected_paths > 1000))
        .collect();
    ablation3(&table1, max_workers, &timing, &mut json_rows);
    for p in &table1 {
        assert_warm_prefix_reuse(&json_rows, p.name);
    }

    println!("\nABLATION 4 — paths to full PC coverage (search-strategy comparison)\n");
    println!(
        "{:<16} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "Benchmark", "dfs", "bfs", "coverage", "text PCs", "total paths"
    );
    for p in &table1 {
        let mut to_full = Vec::new();
        let mut reference: Option<(u64, u64)> = None;
        for strategy in SearchStrategy::ALL {
            let t = policy_trajectory(p, strategy, AddressPolicyKind::default());
            assert_eq!(t.paths, p.expected_paths, "{}: full enumeration", p.name);
            match reference {
                None => reference = Some((t.covered_pcs, t.paths)),
                Some(r) => assert_eq!(
                    r,
                    (t.covered_pcs, t.paths),
                    "{}: final coverage is strategy-independent",
                    p.name
                ),
            }
            json_rows.push(Json::O(vec![
                ("ablation", Json::s("coverage-velocity")),
                ("benchmark", Json::s(p.name)),
                ("strategy", Json::s(strategy.name())),
                ("paths_to_full_coverage", Json::U(t.paths_to_full_coverage)),
                ("covered_pcs", Json::U(t.covered_pcs)),
                ("total_paths", Json::U(t.paths)),
            ]));
            to_full.push(t.paths_to_full_coverage);
        }
        let (final_cov, total) = reference.expect("ran");
        println!(
            "{:<16} {:>8} {:>8} {:>10} {:>10} {:>12}",
            p.name, to_full[0], to_full[1], to_full[2], final_cov, total
        );
    }

    ablation5(&table1, max_workers, &timing, &mut json_rows);
    ablation6(
        &table1,
        max_workers,
        timing.runs,
        opts.checkpoint.as_deref(),
        &mut json_rows,
    );

    // table-lookup leads: it is the program the policies were built to
    // separate; the Table I programs ride along to pin that the policies
    // are inert where every address is concrete.
    let a7_progs: Vec<_> = std::iter::once(TABLE_LOOKUP)
        .chain(all_programs())
        .filter(|p| !(opts.quick && p.expected_paths > 1000))
        .collect();
    ablation7(&a7_progs, &mut json_rows);

    if let Some(path) = &opts.json {
        let doc = Json::O(vec![
            ("bin", Json::s("ablation")),
            ("max_workers", Json::U(max_workers as u64)),
            ("rows", Json::A(json_rows)),
        ]);
        write_json(path, &doc);
    }
    write_trace(&opts, sink.as_deref());
}

/// The campaign-wide settings of the timed ablations.
struct Timing<'a> {
    /// Interleaved rounds per datapoint (`--runs`, at least 1).
    runs: usize,
    /// Collect phase metrics per variant (`--metrics`).
    metrics: bool,
    /// The campaign trace sink (`--trace`).
    trace: Option<&'a Arc<ChromeTraceSink>>,
}

/// One variant's totals over the rounds of [`interleave`].
#[derive(Default)]
struct Tally {
    /// Mean wall seconds per round.
    seconds: f64,
    /// Exploration solver checks, summed over the rounds.
    checks: u64,
    /// Observer counters, summed over the rounds.
    counters: CountingObserver,
    /// Phase metrics summed over the rounds (`--metrics` only).
    metrics: Option<MetricsReport>,
}

/// Times `timing.runs` interleaved rounds of one sharded exploration of `p`
/// per variant, `configure` installing the variant on a plain builder, so
/// slow machine drift hits every variant equally. Every variant carries
/// the identical observer plumbing (the shared-mutex counter), so the
/// deltas measure the variant alone, not observer overhead. The ablated
/// layers change wall time only: every round must reproduce the pinned
/// path count.
fn interleave<V, const N: usize>(
    p: &Program,
    elf: &ElfFile,
    workers: usize,
    timing: &Timing,
    variants: &[V; N],
    configure: impl Fn(SessionBuilder, &V) -> SessionBuilder,
) -> [Tally; N] {
    let mut tallies: [Tally; N] = std::array::from_fn(|_| Tally::default());
    // One registry per variant, accumulating across all rounds —
    // `metrics_json` averages back to per-round values.
    let registries: [Option<Arc<MetricsRegistry>>; N] = std::array::from_fn(|_| {
        timing
            .metrics
            .then(|| Arc::new(MetricsRegistry::new(workers)))
    });
    for _ in 0..timing.runs {
        for (slot, variant) in variants.iter().enumerate() {
            let counters = Arc::new(Mutex::new(CountingObserver::new()));
            let handle = Arc::clone(&counters);
            let mut builder = Session::builder(Spec::rv32im())
                .binary(elf)
                .workers(workers)
                .observer_factory(move |_| Box::new(Arc::clone(&handle)));
            if let Some(registry) = &registries[slot] {
                builder = builder.metrics(Arc::clone(registry));
            }
            if let Some(sink) = timing.trace {
                builder = builder.trace(sink.clone());
            }
            let mut par = configure(builder, variant)
                .build_parallel()
                .expect("builds");
            let start = Instant::now();
            let s = par.run_all().expect("explores");
            assert_eq!(
                s.paths, p.expected_paths,
                "{}: an ablated layer changed the path count",
                p.name
            );
            let tally = &mut tallies[slot];
            tally.seconds += start.elapsed().as_secs_f64();
            tally.checks += s.solver_checks;
            add_counters(&mut tally.counters, &counters.lock().expect("counters"));
        }
    }
    for (tally, registry) in tallies.iter_mut().zip(registries) {
        tally.seconds /= timing.runs as f64;
        tally.metrics = registry.map(|r| r.report());
    }
    tallies
}

/// Ablation 3: the sharded engine at 1..=N workers, each worker count
/// measured cold (fresh solver context per prescription) and warm
/// (deterministic warm cache: recent parent trails plus one retained
/// prefix context per worker). The two runs produce byte-identical
/// results by construction; the delta — per-path seconds plus the cache's
/// hit/reuse counters — is the replayed-prefix cost the warm start claws
/// back.
fn ablation3(progs: &[Program], max_workers: usize, timing: &Timing, json_rows: &mut Vec<Json>) {
    println!("\nABLATION 3 — worker scaling and warm start (replay-based sharded exploration)\n");
    println!(
        "{:<16} {:>12}   per worker count: cold/warm wall (cold→warm ms/path)",
        "Benchmark", "sequential"
    );
    for p in progs {
        let elf = p.build();
        let mut session = Session::builder(Spec::rv32im())
            .binary(&elf)
            .build()
            .expect("sym input");
        let start = Instant::now();
        let s = session.run_all().expect("explores");
        assert_eq!(s.paths, p.expected_paths);
        let seq = start.elapsed();

        let mut cells = Vec::new();
        let mut workers = 1usize;
        while workers <= max_workers {
            let tallies = interleave(p, &elf, workers, timing, &[false, true], |b, &warm| {
                b.warm_start(warm)
            });
            for (t, warm) in tallies.iter().zip([false, true]) {
                let mut row = vec![
                    ("ablation", Json::s("worker-scaling")),
                    ("benchmark", Json::s(p.name)),
                    ("workers", Json::U(workers as u64)),
                    ("warm_start", Json::B(warm)),
                    ("runs", Json::U(timing.runs as u64)),
                    ("seconds", Json::F(t.seconds)),
                    (
                        "seconds_per_path",
                        Json::F(t.seconds / p.expected_paths as f64),
                    ),
                    ("sequential_seconds", Json::F(seq.as_secs_f64())),
                ];
                if warm {
                    row.extend(warm_means(&t.counters, timing.runs));
                }
                if let Some(report) = &t.metrics {
                    row.push(("metrics", metrics_json(report, timing.runs)));
                }
                json_rows.push(Json::O(row));
            }
            let [cold, warm] = tallies.map(|t| t.seconds);
            cells.push(format!(
                "{workers}w {cold:.2}s/{warm:.2}s ({:.1}→{:.1})",
                1e3 * cold / p.expected_paths as f64,
                1e3 * warm / p.expected_paths as f64,
            ));
            workers *= 2;
        }
        println!("{:<16} {:>12.1?}   {}", p.name, seq, cells.join("  "));
    }
}

/// Asserts the `--smoke` cross-parent reuse datapoint: every warm
/// worker-scaling row of `benchmark` must show nonzero retained-context
/// prefix reuse. When contexts were keyed by parent input, uri-parser sat
/// at `warm_prefix_reused: 0` — this is the counter CI pins above zero.
fn assert_warm_prefix_reuse(rows: &[Json], benchmark: &str) {
    let mut saw_warm_row = false;
    for row in rows {
        let Json::O(fields) = row else { continue };
        let field = |k: &str| fields.iter().find(|(n, _)| *n == k).map(|(_, v)| v);
        let is = |k: &str, want: &str| matches!(field(k), Some(Json::S(s)) if s == want);
        if !is("ablation", "worker-scaling") || !is("benchmark", benchmark) {
            continue;
        }
        if !matches!(field("warm_start"), Some(Json::B(true))) {
            continue;
        }
        saw_warm_row = true;
        let reused = match field("warm_prefix_reused") {
            Some(Json::F(v)) => *v,
            _ => panic!("warm row missing warm_prefix_reused"),
        };
        assert!(
            reused > 0.0,
            "{benchmark}: warm_prefix_reused must stay > 0 through the worker's context"
        );
    }
    assert!(saw_warm_row, "no warm worker-scaling rows for {benchmark}");
}

/// Ablation 5: the word-level static-analysis gate on vs. off, on the
/// sharded engine. The gate screens each branch-flip query against the
/// known-bits/interval facts of its path prefix and discharges the decided
/// ones without bit-blasting; by construction it may only *remove* solver
/// checks, never change results, which the run asserts via the path count
/// and the check-accounting identity.
fn ablation5(progs: &[Program], workers: usize, timing: &Timing, json_rows: &mut Vec<Json>) {
    println!(
        "\nABLATION 5 — static-analysis gate (known-bits/interval screening of flip queries)\n"
    );
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "Benchmark", "gate off", "gate on", "unsat flips", "eliminated", "facts"
    );
    for p in progs {
        let elf = p.build();
        // With `--metrics`, the gate's win shows up as solve seconds
        // moving into gate seconds.
        let tallies = interleave(p, &elf, workers, timing, &[false, true], |b, &analysis| {
            b.static_analysis(analysis)
        });
        let runs = timing.runs;
        let [off, on] = [0, 1].map(|slot| counters_per_round(&tallies[slot].counters, runs));
        let checks = [0, 1].map(|slot| tallies[slot].checks / runs as u64);
        // Every screened-out query must be accounted for one-to-one in
        // the solver-check delta.
        assert_eq!(
            checks[0],
            checks[1] + on.sa_queries_eliminated,
            "{}: eliminated queries must explain the full check delta",
            p.name
        );
        let unsat = off.queries - off.sat_queries;
        println!(
            "{:<16} {:>9.2}s {:>9.2}s {:>12} {:>12} {:>10}",
            p.name,
            tallies[0].seconds,
            tallies[1].seconds,
            unsat,
            on.sa_queries_eliminated,
            on.sa_facts
        );
        for (slot, analysis) in [false, true].into_iter().enumerate() {
            let c = if analysis { &on } else { &off };
            let mut row = vec![
                ("ablation", Json::s("static-analysis")),
                ("benchmark", Json::s(p.name)),
                ("workers", Json::U(workers as u64)),
                ("static_analysis", Json::B(analysis)),
                ("runs", Json::U(runs as u64)),
                ("seconds", Json::F(tallies[slot].seconds)),
                ("solver_checks", Json::U(checks[slot])),
                ("queries", Json::U(c.queries)),
                ("unsat_queries", Json::U(c.queries - c.sat_queries)),
            ];
            if analysis {
                row.extend([
                    ("sa_queries", Json::U(c.sa_queries)),
                    ("sa_queries_eliminated", Json::U(c.sa_queries_eliminated)),
                    ("sa_facts", Json::U(c.sa_facts)),
                ]);
            }
            if let Some(report) = &tallies[slot].metrics {
                row.push(("metrics", metrics_json(report, runs)));
            }
            json_rows.push(Json::O(row));
        }
    }
}

/// Ablation 6: atomic checkpoint persistence off vs. every 16 merged paths
/// vs. every single one, on the sharded engine. Each write serializes the
/// full committed record set plus the live frontier through a tmp+rename
/// pair under the merge lock, so the every-1 column is the worst case —
/// one full-state write per path. The resume determinism pins forbid any
/// result drift, so the delta is pure wall time; the path count is still
/// asserted each round, and the every-1 write count must come out exact
/// (`paths + 1`: one per committed path plus the drain write).
fn ablation6(
    progs: &[Program],
    workers: usize,
    runs: usize,
    checkpoint_base: Option<&Path>,
    json_rows: &mut Vec<Json>,
) {
    const EVERY: [u64; 3] = [0, 16, 1];
    // Plain runs: metrics and tracing would add their own cost to the
    // write overhead being measured.
    let timing = Timing {
        runs,
        metrics: false,
        trace: None,
    };
    println!("\nABLATION 6 — checkpoint overhead (atomic tmp+rename frontier persistence)\n");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>12}",
        "Benchmark", "off", "every 16", "every 1", "writes(ev.1)"
    );
    for p in progs {
        let elf = p.build();
        let variants = EVERY.map(|every| {
            let target = (every > 0).then(|| ablation6_target(checkpoint_base, every, p.name));
            (every, target)
        });
        let tallies = interleave(
            p,
            &elf,
            workers,
            &timing,
            &variants,
            |b, (every, target)| match target {
                Some(path) => b.checkpoint(path, *every),
                None => b,
            },
        );
        if checkpoint_base.is_none() {
            for path in variants.iter().filter_map(|(_, target)| target.as_ref()) {
                let _ = std::fs::remove_file(path);
            }
        }
        let every1 = counters_per_round(&tallies[2].counters, runs);
        assert_eq!(
            every1.checkpoints_written,
            p.expected_paths + 1,
            "{}: every-1 must write once per committed path plus the drain",
            p.name
        );
        println!(
            "{:<16} {:>9.2}s {:>9.2}s {:>9.2}s {:>12}",
            p.name,
            tallies[0].seconds,
            tallies[1].seconds,
            tallies[2].seconds,
            every1.checkpoints_written
        );
        for (t, every) in tallies.iter().zip(EVERY) {
            let c = counters_per_round(&t.counters, runs);
            json_rows.push(Json::O(vec![
                ("ablation", Json::s("checkpoint-overhead")),
                ("benchmark", Json::s(p.name)),
                ("workers", Json::U(workers as u64)),
                ("checkpoint_every", Json::U(every)),
                ("runs", Json::U(runs as u64)),
                ("seconds", Json::F(t.seconds)),
                (
                    "seconds_per_path",
                    Json::F(t.seconds / p.expected_paths as f64),
                ),
                ("paths", Json::U(p.expected_paths)),
                ("checkpoints_written", Json::U(c.checkpoints_written)),
            ]));
        }
    }
}

/// Ablation 7: the address-concretization policies on the memory-model
/// benchmark and the Table I programs, each a full sequential coverage-
/// guided exploration through [`policy_trajectory`] (the same datapoint
/// the acceptance tests pin). `eq` is the default and contractually
/// byte-identical to the pre-policy engine, so its rows must reproduce
/// `expected_paths` everywhere; on `table-lookup` the run additionally
/// asserts the policy separation — `eq` saturates below full coverage,
/// `symbolic:64` reaches every tracked instruction in exactly
/// [`TABLE_LOOKUP_SYMBOLIC_PATHS`] paths — and stamps the symbolic row
/// with `sym_fewer_paths_to_full: true` once it holds.
fn ablation7(progs: &[Program], json_rows: &mut Vec<Json>) {
    const POLICIES: [(&str, AddressPolicyKind, u64); 2] = [
        ("eq", AddressPolicyKind::ConcretizeEq, 0),
        (
            "symbolic:64",
            AddressPolicyKind::Symbolic { window: 64 },
            64,
        ),
    ];
    println!("\nABLATION 7 — memory policy (address concretization vs. windowed array model)\n");
    println!("{:<16} {:>24} {:>24}", "Benchmark", "eq", "symbolic:64");
    println!(
        "{:<16} {:>24} {:>24}",
        "", "paths/checks cov", "paths/checks cov"
    );
    for p in progs {
        let runs: Vec<_> = POLICIES
            .iter()
            .map(|&(_, policy, _)| policy_trajectory(p, SearchStrategy::Coverage, policy))
            .collect();
        // The default policy is the byte-compat contract: its sequential
        // enumeration must reproduce the pinned path count on every
        // program, including the new benchmark.
        assert_eq!(
            runs[0].paths, p.expected_paths,
            "{}: eq must reproduce the pinned path count",
            p.name
        );
        let is_lookup = p.name == TABLE_LOOKUP.name;
        if is_lookup {
            let (eq, sym) = (&runs[0], &runs[1]);
            assert_eq!(
                sym.paths, TABLE_LOOKUP_SYMBOLIC_PATHS,
                "table-lookup: symbolic:64 path count is pinned"
            );
            assert_eq!(
                sym.covered_pcs, sym.tracked_pcs,
                "table-lookup: symbolic:64 must reach full coverage"
            );
            assert!(
                eq.covered_pcs < eq.tracked_pcs,
                "table-lookup: eq must leave the value-dependent leaves unreached"
            );
        }
        let cells: Vec<String> = runs
            .iter()
            .map(|t| {
                format!(
                    "{}/{} {}/{}",
                    t.paths, t.solver_checks, t.covered_pcs, t.tracked_pcs
                )
            })
            .collect();
        println!("{:<16} {:>24} {:>24}", p.name, cells[0], cells[1]);
        for (&(name, _, window), t) in POLICIES.iter().zip(&runs) {
            let mut row = vec![
                ("ablation", Json::s("memory-policy")),
                ("benchmark", Json::s(p.name)),
                ("policy", Json::s(name)),
                ("window", Json::U(window)),
                ("paths", Json::U(t.paths)),
                ("solver_checks", Json::U(t.solver_checks)),
                ("seconds", Json::F(t.seconds)),
                ("paths_to_full_coverage", Json::U(t.paths_to_full_coverage)),
                ("covered_pcs", Json::U(t.covered_pcs)),
                ("tracked_pcs", Json::U(t.tracked_pcs)),
            ];
            if is_lookup && window > 0 {
                // Asserted above: the windowed model reaches full coverage
                // where the concretizing policies cannot, in finitely many
                // paths — the headline datapoint of the ablation.
                row.push(("sym_fewer_paths_to_full", Json::B(true)));
            }
            json_rows.push(Json::O(row));
        }
    }
}

/// Picks the checkpoint file for one ablation-6 interval: suffixed next
/// to the `--checkpoint` base when one was given (and kept for
/// inspection), or a per-process temp file otherwise (removed after the
/// interval's rounds).
fn ablation6_target(base: Option<&Path>, every: u64, benchmark: &str) -> PathBuf {
    match base {
        Some(base) => {
            let mut name = base.as_os_str().to_os_string();
            name.push(format!(".{every}.{benchmark}.ck"));
            PathBuf::from(name)
        }
        None => std::env::temp_dir().join(format!(
            "binsym-ablation6-{}-{benchmark}-{every}.ck",
            std::process::id()
        )),
    }
}
