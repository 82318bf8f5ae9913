//! The two kinds of benchmark run.
//!
//! * [`plain`] repeats plain hunts — no observer, no metrics registry, no
//!   trace sink — and reports the end-to-end metrics.
//! * [`traced`] runs plain hunts for the per-program rows and the overhead
//!   baseline, then one instrumented hunt and the per-layer replay on its
//!   witnesses, and reports the per-layer metrics.
//!
//! Both check every witness of a hunt on the concrete interpreter after the
//! timed region.

use std::path::Path;
use std::time::{Duration, Instant};

use binsym::Phase;

use crate::layers;
use crate::oracle::{self, OracleReport};
use crate::{explore, median, peak_rss_mb, percentile, prepare, Explored, Job, Tracing, Workload};

/// Setup-only rounds before each hunt, so `setup_s` has enough samples,
/// spread over the whole run, even when only a few hunts fit the budget.
const SETUP_ROUNDS_PER_HUNT: usize = 5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// The witness oracle's verdict.
    pub oracle: OracleReport,
    /// False when the traced hunt's Chrome trace fails
    /// `binsym_bench::cli::validate_trace` (always true for plain runs).
    pub trace_ok: bool,
    /// The run's metrics.
    pub metrics: Vec<Metric>,
    /// Wall seconds of each plain hunt, for the report on standard error.
    pub hunt_s: Vec<f64>,
}

/// The repeated plain hunts of one run.
struct PlainHunts {
    setup_s: Vec<f64>,
    hunt_s: Vec<f64>,
    cpu_s: Vec<f64>,
    /// Wall seconds of each job, per hunt, in `jobs` order.
    job_s: Vec<Vec<f64>>,
    /// The first hunt, whose witnesses the oracle checks.
    reference: Vec<Explored>,
    /// Explorations of later hunts whose witnesses differ from the
    /// reference's (the engine is deterministic, so normally none).
    divergent: Vec<Explored>,
}

/// Repeats plain hunts of `jobs` until `budget` has passed (at least one).
fn plain_hunts(
    workload: Workload,
    jobs: &[Job],
    scratch: &Path,
    budget: Duration,
) -> Result<PlainHunts, String> {
    let mut runs = PlainHunts {
        setup_s: Vec::new(),
        hunt_s: Vec::new(),
        cpu_s: Vec::new(),
        job_s: vec![Vec::new(); jobs.len()],
        reference: Vec::new(),
        divergent: Vec::new(),
    };
    let build = |runs: &mut PlainHunts| {
        let started = Instant::now();
        let prepared = prepare(workload, jobs, None, scratch).map_err(|e| e.to_string());
        runs.setup_s.push(started.elapsed().as_secs_f64());
        prepared
    };
    let started = Instant::now();
    loop {
        for _ in 0..SETUP_ROUNDS_PER_HUNT {
            drop(build(&mut runs)?);
        }
        let hunt = hunt(workload, jobs, scratch, build(&mut runs)?)?;
        runs.hunt_s
            .push(hunt.iter().map(|e| e.wall.as_secs_f64()).sum());
        runs.cpu_s.push(hunt.iter().map(|e| e.cpu_s).sum());
        for (i, e) in hunt.iter().enumerate() {
            runs.job_s[i].push(e.wall.as_secs_f64());
        }
        if runs.reference.is_empty() {
            runs.reference = hunt;
        } else {
            for (e, r) in hunt.into_iter().zip(&runs.reference) {
                if e.witnesses != r.witnesses {
                    runs.divergent.push(e);
                }
            }
        }
        if started.elapsed() >= budget {
            return Ok(runs);
        }
    }
}

/// Explores every prepared session, then removes `par-warm`'s checkpoints.
fn hunt(
    workload: Workload,
    jobs: &[Job],
    scratch: &Path,
    prepared: Vec<crate::Prepared>,
) -> Result<Vec<Explored>, String> {
    let explored = prepared
        .into_iter()
        .map(|p| explore(p).map_err(|e| e.to_string()))
        .collect();
    if workload == Workload::ParWarm {
        for job in jobs {
            let _ = std::fs::remove_file(crate::checkpoint_file(scratch, job));
        }
    }
    explored
}

/// Oracle over every exploration of `hunts`.
fn check_all<'a>(hunts: impl IntoIterator<Item = &'a Explored>) -> OracleReport {
    let mut report = OracleReport::default();
    for e in hunts {
        report.merge(oracle::check(&e.job, &e.elf, &e.witnesses));
    }
    report
}

/// Plain hunts for `budget`: `setup_s`, `hunt_s`, `paths_per_s`, `cpu_s`
/// and `peak_rss_mb`.
///
/// # Errors
/// A session that fails to build or a path that fails to execute.
pub fn plain(
    workload: Workload,
    jobs: &[Job],
    scratch: &Path,
    budget: Duration,
) -> Result<Outcome, String> {
    let runs = plain_hunts(workload, jobs, scratch, budget)?;
    let peak = peak_rss_mb();
    let paths: usize = runs.reference.iter().map(|e| e.witnesses.len()).sum();
    let hunt_s = median(&runs.hunt_s);
    let metrics = vec![
        metric("setup_s", median(&runs.setup_s), "s"),
        metric("hunt_s", hunt_s, "s"),
        metric("paths_per_s", paths as f64 / hunt_s, "1/s"),
        metric("cpu_s", median(&runs.cpu_s), "s"),
        metric("peak_rss_mb", peak, "MB"),
    ];
    Ok(Outcome {
        oracle: check_all(runs.reference.iter().chain(&runs.divergent)),
        trace_ok: true,
        metrics,
        hunt_s: runs.hunt_s,
    })
}

/// Plain hunts for half of `budget` (per-program rows and the overhead
/// baseline), then one instrumented hunt, the witness oracle on it, and the
/// per-layer replay on its witnesses.
///
/// # Errors
/// A session that fails to build, a path that fails to execute, or a layer
/// replay failure.
pub fn traced(
    workload: Workload,
    jobs: &[Job],
    scratch: &Path,
    budget: Duration,
) -> Result<Outcome, String> {
    let runs = plain_hunts(workload, jobs, scratch, budget / 2)?;
    let tracing = Tracing::new(workload);
    let prepared = prepare(workload, jobs, Some(&tracing), scratch).map_err(|e| e.to_string())?;
    let traced = hunt(workload, jobs, scratch, prepared)?;
    let hunt_s: f64 = traced.iter().map(|e| e.wall.as_secs_f64()).sum();

    let mut metrics = engine_metrics(workload, &tracing, &traced, hunt_s)?;
    metrics.push(metric(
        "trace.overhead_s",
        hunt_s - median(&runs.hunt_s),
        "s",
    ));
    let started = Instant::now();
    let mut report = check_all(&traced);
    metrics.push(metric(
        "oracle.check_s",
        started.elapsed().as_secs_f64(),
        "s",
    ));
    // The plain hunts must have found the same witnesses; check any that
    // did not on their own.
    for (t, r) in traced.iter().zip(&runs.reference) {
        if t.witnesses != r.witnesses {
            report.merge(oracle::check(&r.job, &r.elf, &r.witnesses));
        }
    }
    metrics.push(metric(
        "path_fail_ratio",
        ratio(report.failed, report.attempted),
        "ratio",
    ));
    for p in binsym_bench::all_programs() {
        if let Some(i) = jobs.iter().position(|j| j.program.name == p.name) {
            metrics.push(metric(
                format!("prog.{}_s", p.name),
                median(&runs.job_s[i]),
                "s",
            ));
        }
    }
    metrics.extend(layer_metrics(&traced)?);
    let trace_ok = match binsym_bench::cli::validate_trace(&tracing.sink.render()) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("trace check failed: {e}");
            false
        }
    };
    Ok(Outcome {
        oracle: report,
        trace_ok,
        metrics,
        hunt_s: runs.hunt_s,
    })
}

/// The traced hunt's phase timers, query latencies and event counters.
fn engine_metrics(
    workload: Workload,
    tracing: &Tracing,
    traced: &[Explored],
    hunt_s: f64,
) -> Result<Vec<Metric>, String> {
    let report = tracing.registry.report();
    let probes = tracing
        .probes
        .lock()
        .map_err(|_| "a probe's thread panicked")?;
    let c = probes.counts;
    let query_us: Vec<f64> = probes.query_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    // Phase totals are summed over worker shards: worker-seconds, which
    // with the untimed remainder add up to hunt_s × workers.
    let mut metrics = Vec::new();
    let mut timed = 0.0;
    for phase in Phase::ALL {
        let s = report.phase_seconds(phase);
        timed += s;
        metrics.push(metric(format!("phase.{}_s", phase.name()), s, "worker-s"));
    }
    let worker_s = hunt_s * workload.workers() as f64;
    metrics.extend([
        metric("phase.untimed_s", worker_s - timed, "worker-s"),
        metric("query.p50_us", percentile(&query_us, 0.50), "us"),
        metric("query.p99_us", percentile(&query_us, 0.99), "us"),
        metric(
            "warm.hit_ratio",
            ratio(c.warm_hits, c.warm_hits + c.warm_misses),
            "ratio",
        ),
        metric(
            "warm.prefix_reuse_ratio",
            ratio(
                c.warm_prefix_reused,
                c.warm_prefix_reused + c.warm_prefix_blasted,
            ),
            "ratio",
        ),
        metric(
            "gate.elim_ratio",
            ratio(c.sa_queries_eliminated, c.sa_queries),
            "ratio",
        ),
        metric("persist.checkpoints", c.checkpoints_written as f64, "count"),
        metric("count.steps", c.steps as f64, "count"),
        metric(
            "count.solver_checks",
            traced.iter().map(|e| e.summary.solver_checks).sum::<u64>() as f64,
            "count",
        ),
    ]);
    Ok(metrics)
}

/// The per-layer replay rows on the traced hunt's witnesses.
fn layer_metrics(traced: &[Explored]) -> Result<Vec<Metric>, String> {
    let w = layers::replay_witnesses(traced)?;
    let per = |d: Duration, n: u64, scale: f64| d.as_secs_f64() * scale / n.max(1) as f64;
    let mut m = vec![
        metric("isa.decode_ns", per(w.decode, w.instructions, 1e9), "ns"),
        metric("machine.step_ns", per(w.step, w.instructions, 1e9), "ns"),
        metric("bitblast.term_ns", per(w.blast, w.terms, 1e9), "ns"),
        metric(
            "bitblast.clauses_per_term",
            ratio(w.clauses, w.terms),
            "count",
        ),
        metric("sat.query_us", per(w.solve, w.queries, 1e6), "us"),
        metric(
            "sat.conflicts_per_query",
            ratio(w.conflicts, w.queries),
            "count",
        ),
        metric(
            "analysis.query_us",
            per(w.analysis, w.analysis_queries, 1e6),
            "us",
        ),
        metric(
            "analysis.decided_ratio",
            ratio(w.analysis_decided, w.analysis_queries),
            "ratio",
        ),
        metric("prefix.flip_us", per(w.prefix, w.flips, 1e6), "us"),
        metric(
            "prefix.reuse_ratio",
            ratio(w.prefix_reused, w.prefix_reused + w.prefix_blasted),
            "ratio",
        ),
    ];
    let records: Vec<_> = traced
        .iter()
        .flat_map(|e| e.records.iter().cloned())
        .collect();
    let p = layers::persist_rows(&records)?;
    m.extend([
        metric("persist.encode_mb_s", p.encode_mb_s, "MB/s"),
        metric("persist.decode_mb_s", p.decode_mb_s, "MB/s"),
        metric("persist.bytes_per_path", p.bytes_per_path, "B"),
    ]);
    for row in layers::op_rows() {
        m.push(metric(
            format!("blast.{}.clauses", row.op),
            row.clauses as f64,
            "count",
        ));
        m.push(metric(format!("blast.{}.ns", row.op), row.ns, "ns"));
    }
    for depth in [16, 64, 256] {
        m.push(metric(
            format!("clone.d{depth}_ns"),
            layers::clone_ns(depth),
            "ns",
        ));
    }
    Ok(m)
}
