//! Regenerates the paper's **Fig. 6**: total execution time per engine per
//! benchmark, as the arithmetic mean over repeated full explorations.
//!
//! ```text
//! cargo run --release -p binsym-bench --bin fig6 \
//!     [--runs N] [--quick] [--workers N] [--strategy dfs|bfs|coverage] \
//!     [--json PATH] [--metrics] [--trace PATH] \
//!     [--checkpoint PATH] [--checkpoint-every N] [--resume PATH]
//! ```
//!
//! The paper reports 5 runs on a Xeon Gold 6240 with the original tools;
//! absolute seconds are not comparable (our substrate is a fresh Rust
//! implementation), but the *ordering and rough ratios* are the
//! reproduction target: BINSEC < BinSym < SymEx-VP ≪ angr. Following the
//! paper, angr runs with the *fixed* lifter here.
//!
//! `--workers N` (env fallback `BINSYM_WORKERS`) times the sharded
//! `ParallelSession` variant of every persona instead; path counts must
//! not change — and neither may they under `--strategy bfs|coverage`
//! (full exploration is strategy-independent; coverage runs also report
//! covered text PCs). `--json PATH` writes the machine-readable summary.
//!
//! `--metrics` adds per-row phase seconds (execute vs solve vs gate,
//! averaged over the `--runs` rounds) and query-latency percentiles;
//! `--trace PATH` records the whole campaign into one Chrome trace-event
//! file for `ui.perfetto.dev`. Both are wall-time-only.
//!
//! `--checkpoint PATH` / `--checkpoint-every N` / `--resume PATH` persist
//! and restore each (engine, benchmark) run's sharded frontier exactly as
//! in `table1` (suffixed per run, parallel-only). With `--runs N` every
//! round re-resumes from — and, when checkpointing, overwrites — the same
//! file; the checkpoint write cost is part of the measured wall time, so
//! the checkpoint-overhead question belongs to the ablation bin's
//! dedicated harness, not here.

use std::time::Duration;

use binsym::{AddressPolicyKind, MetricsReport};
use binsym_bench::cli::{metrics_json, write_json, write_trace, BenchOpts, Json};
use binsym_bench::{all_programs, run, Engine, RunSpec, SearchStrategy};

fn mean(durations: &[Duration]) -> Duration {
    let total: Duration = durations.iter().sum();
    total / durations.len() as u32
}

fn stddev_pct(durations: &[Duration], m: Duration) -> f64 {
    if durations.len() < 2 || m.is_zero() {
        return 0.0;
    }
    let mm = m.as_secs_f64();
    let var = durations
        .iter()
        .map(|d| (d.as_secs_f64() - mm).powi(2))
        .sum::<f64>()
        / (durations.len() - 1) as f64;
    var.sqrt() / mm * 100.0
}

fn main() {
    let opts = BenchOpts::from_env(&[]);
    let workers = opts.workers_or_sequential();
    if workers == 0 && opts.wants_persistence() {
        eprintln!("--checkpoint/--resume persist the sharded frontier: add --workers N");
        std::process::exit(2);
    }
    let strategy = SearchStrategy::from_opts(&opts);
    let runs: usize = opts.runs.unwrap_or(if opts.quick { 1 } else { 5 });
    let sink = opts.trace_sink();

    println!("FIG. 6 — Total execution time (arithmetic mean over {runs} run(s))");
    if workers > 0 {
        println!("(sharded exploration: {workers} workers per engine)");
    }
    if strategy != SearchStrategy::Dfs {
        println!("(path-selection strategy: {})", strategy.name());
    }
    println!("expected ordering per row: BINSEC < BinSym < SymEx-VP << angr\n");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12}   ratios vs BINSEC",
        "Benchmark", "BINSEC", "BinSym", "SymEx-VP", "angr"
    );

    let mut max_dev: f64 = 0.0;
    let mut json_rows = Vec::new();
    for p in all_programs() {
        if opts.quick && p.expected_paths > 1000 {
            continue;
        }
        let elf = p.build();
        let mut means = Vec::new();
        for engine in Engine::FIG6 {
            let mut samples = Vec::with_capacity(runs);
            let mut covered = None;
            let mut merged = MetricsReport::empty();
            let spec = RunSpec {
                // The Fig. 6 reproduction is defined under the paper's
                // §III-B concretization; the row's pinned path counts
                // assume it, so the policy is not a knob here.
                policy: AddressPolicyKind::default(),
                ..opts.run_spec(engine.name(), p.name, sink.as_ref())
            };
            for _ in 0..runs {
                let r = run(engine, &elf, &spec).unwrap_or_else(|e| {
                    panic!("{} on {}: {e}", engine.name(), p.name);
                });
                assert_eq!(
                    r.summary.paths,
                    p.expected_paths,
                    "{} path count deviates on {}",
                    engine.name(),
                    p.name
                );
                covered = r.covered_pcs;
                if let Some(report) = &r.metrics {
                    merged.merge(report);
                }
                samples.push(r.duration);
            }
            let m = mean(&samples);
            max_dev = max_dev.max(stddev_pct(&samples, m));
            let mut row = vec![
                ("benchmark", Json::s(p.name)),
                ("engine", Json::s(engine.name())),
                ("strategy", Json::s(strategy.name())),
                ("paths", Json::U(p.expected_paths)),
                ("mean_seconds", Json::F(m.as_secs_f64())),
                ("stddev_pct", Json::F(stddev_pct(&samples, m))),
                ("runs", Json::U(runs as u64)),
            ];
            if let Some((covered, tracked)) = covered {
                row.push(("covered_pcs", Json::U(covered)));
                row.push(("tracked_pcs", Json::U(tracked)));
            }
            if opts.metrics {
                // Averaged back to one round, like mean_seconds.
                row.push(("metrics", metrics_json(&merged, runs)));
            }
            json_rows.push(Json::O(row));
            means.push(m);
        }
        let base = means[0].as_secs_f64().max(1e-9);
        let ratios: Vec<String> = means
            .iter()
            .map(|m| format!("{:.1}x", m.as_secs_f64() / base))
            .collect();
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>12}   {}",
            p.name,
            format_duration(means[0]),
            format_duration(means[1]),
            format_duration(means[2]),
            format_duration(means[3]),
            ratios.join(" / ")
        );
    }
    println!("\nmax standard deviation across cells: {max_dev:.1} % (paper: <= 5 %)");

    if let Some(path) = &opts.json {
        let doc = Json::O(vec![
            ("bin", Json::s("fig6")),
            ("workers", Json::U(workers as u64)),
            ("strategy", Json::s(strategy.name())),
            ("runs", Json::U(runs as u64)),
            ("quick", Json::B(opts.quick)),
            ("max_stddev_pct", Json::F(max_dev)),
            ("rows", Json::A(json_rows)),
        ]);
        write_json(path, &doc);
    }
    write_trace(&opts, sink.as_deref());
}

fn format_duration(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2} s", d.as_secs_f64())
    } else {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    }
}
