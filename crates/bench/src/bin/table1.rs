//! Regenerates the paper's **Table I**: amount of execution paths found by
//! different SE engines.
//!
//! ```text
//! cargo run --release -p binsym-bench --bin table1 \
//!     [--quick] [--workers N] [--strategy dfs|bfs|coverage] [--json PATH] \
//!     [--memory-policy eq|symbolic:N] [--metrics] [--trace PATH] \
//!     [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
//! ```
//!
//! Engines: angr (with the five documented lifter bugs), BINSEC, SymEx-VP,
//! BinSym. The sorts match the paper's counts exactly (n! by construction);
//! for the RIOT-derived parsers the absolute counts belong to our
//! re-implementation (see the README, "Persona cost models and path
//! counts"), but the qualitative result is
//! identical: angr misses paths on `base64-encode` and `uri-parser`, all
//! other engines agree on every row.
//!
//! `--workers N` (env fallback `BINSYM_WORKERS`) runs every engine on a
//! sharded `ParallelSession` — the path counts must not change. Neither
//! may `--strategy bfs|coverage`: every policy enumerates the complete
//! path set, only the discovery order differs (coverage runs additionally
//! report covered text PCs). `--json PATH` writes a machine-readable
//! summary.
//!
//! `--metrics` collects per-phase wall time and solver-query latency
//! percentiles into each JSON row; `--trace PATH` records every run of the
//! campaign into one Chrome trace-event file, one track per worker, for
//! `ui.perfetto.dev`. Both are wall-time-only: path counts and records are
//! byte-identical with and without them (pinned in the determinism suites).
//!
//! `--checkpoint PATH` writes an atomic exploration checkpoint per
//! (engine, benchmark) run to `PATH.<engine>.<benchmark>.ck` every
//! `--checkpoint-every N` merged paths (default 64) and on drain;
//! `--resume PATH` seeds each run from the matching file of a previous
//! invocation. Both require `--workers N` (N > 0) and are wall-time-only:
//! a resumed campaign reports the same path counts as an uninterrupted
//! one. The `checkpoints_written`/`resumed_from` counters surface in the
//! ablation bin's `--json` rows.

use std::time::Instant;

use binsym_bench::cli::{metrics_json, summary_json, write_json, write_trace, BenchOpts, Json};
use binsym_bench::engines::memory_policy_from_opts;
use binsym_bench::{all_programs, run, Engine, SearchStrategy};

/// Every flag this bin honors.
const FLAGS: [&str; 10] = [
    "--quick",
    "--workers",
    "--strategy",
    "--json",
    "--memory-policy",
    "--metrics",
    "--trace",
    "--checkpoint",
    "--checkpoint-every",
    "--resume",
];

fn main() {
    let opts = BenchOpts::from_env(&FLAGS);
    let workers = opts.workers_or_sequential();
    if workers == 0 && opts.wants_persistence() {
        eprintln!("--checkpoint/--resume persist the sharded frontier: add --workers N");
        std::process::exit(2);
    }
    let strategy = SearchStrategy::from_opts(&opts);
    let policy = memory_policy_from_opts(&opts);
    let sink = opts.trace_sink();
    println!("TABLE I — Amount of execution paths found by different SE engines");
    if workers > 0 {
        println!("(sharded exploration: {workers} workers per engine)");
    }
    if strategy != SearchStrategy::Dfs {
        println!("(path-selection strategy: {})", strategy.name());
    }
    if policy != binsym::AddressPolicyKind::default() {
        println!("(memory policy: {policy})");
    }
    println!("(† marks rows where an engine misses paths)\n");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10}   {:>10}",
        "Benchmark", "angr", "BINSEC", "SymEx-VP", "BinSym", "paper(corr.)"
    );

    let started = Instant::now();
    let mut json_rows = Vec::new();
    for p in all_programs() {
        if opts.quick && p.expected_paths > 1000 {
            continue;
        }
        let elf = p.build();
        let mut cells = Vec::new();
        let mut reference: Option<u64> = None;
        for engine in Engine::TABLE1 {
            let spec = opts.run_spec(engine.name(), p.name, sink.as_ref());
            let r = run(engine, &elf, &spec).unwrap_or_else(|e| {
                panic!("{} on {}: {e}", engine.name(), p.name);
            });
            let paths = r.summary.paths;
            if engine != Engine::Angr {
                match reference {
                    None => reference = Some(paths),
                    Some(r) => assert_eq!(r, paths, "correct engines disagree on {}", p.name),
                }
            }
            let mut row = vec![
                ("benchmark", Json::s(p.name)),
                ("engine", Json::s(engine.name())),
                ("strategy", Json::s(strategy.name())),
                (
                    "summary",
                    summary_json(&r.summary, r.duration.as_secs_f64()),
                ),
            ];
            if let Some((covered, tracked)) = r.covered_pcs {
                row.push(("covered_pcs", Json::U(covered)));
                row.push(("tracked_pcs", Json::U(tracked)));
            }
            if let Some(report) = &r.metrics {
                row.push(("metrics", metrics_json(report, 1)));
            }
            json_rows.push(Json::O(row));
            cells.push(paths);
        }
        let correct = reference.expect("at least one correct engine");
        let marks: Vec<String> = cells
            .iter()
            .map(|&c| {
                if c == correct {
                    format!("{c}")
                } else {
                    format!("{c}\u{2020}")
                }
            })
            .collect();
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10}   {:>10}",
            p.name, marks[0], marks[1], marks[2], marks[3], p.paper_paths
        );
    }
    println!("\ntotal wall time: {:.1?}", started.elapsed());

    if let Some(path) = &opts.json {
        let doc = Json::O(vec![
            ("bin", Json::s("table1")),
            ("workers", Json::U(workers as u64)),
            ("strategy", Json::s(strategy.name())),
            ("memory_policy", Json::s(policy.to_string())),
            ("quick", Json::B(opts.quick)),
            ("rows", Json::A(json_rows)),
        ]);
        write_json(path, &doc);
    }
    write_trace(&opts, sink.as_deref());
}
