//! The hunt benchmark: full depth-first explorations of the bundled
//! benchmark programs, timed end to end on plain sessions and layer by
//! layer on a separately traced hunt, with every witness checked on the
//! concrete interpreter (`binsym-interp`).
//!
//! * [`Workload`] — the three engine configurations (`seq`, `par-cold`,
//!   `par-warm`) and the programs each explores.
//! * [`prepare`] / [`explore`] — building the sessions and draining them.
//! * [`run`] — the plain and the traced run, and the metrics each reports.
//! * [`oracle`] — the witness oracle, independent of the symbolic engine.
//! * [`layers`] — the per-layer replay of each layer's public entry
//!   points on a hunt's own witnesses, plus the bit-blast op and
//!   scratch-clone rows.
//!
//! See `README.md` beside this crate for the workload rationale and the
//! metric table.

#![warn(missing_docs)]

pub mod layers;
pub mod oracle;
pub mod run;

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use binsym::{
    AddressPolicyKind, Candidate, CheckpointEvent, ChromeTraceSink, CountingObserver, Dfs,
    MetricsRegistry, Observer, ParallelSession, PathId, PathOutcome, PathRecord, PathStrategy,
    Phase, Session, StaticAnalysisStats, StepResult, Summary, TraceSink, TrailEntry,
    WarmQueryStats,
};
use binsym_bench::programs::{self, Program};
use binsym_elf::ElfFile;
use binsym_isa::Spec;
use binsym_smt::{SatResult, Term};

/// Checkpoint interval of the `par-warm` workload, in merged paths.
const CHECKPOINT_EVERY: u64 = 64;

/// Engine configuration of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Session::builder(..).build()`, drained through `paths()`.
    Seq,
    /// `.workers(1).warm_start(false).build_parallel()`.
    ParCold,
    /// `.workers(2).warm_start(true).checkpoint(..)`, plus `table-lookup`
    /// under `symbolic:64`.
    ParWarm,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Seq, Workload::ParCold, Workload::ParWarm];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Seq => "seq",
            Workload::ParCold => "par-cold",
            Workload::ParWarm => "par-warm",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the workload's sessions (1 for the sequential
    /// engine, which runs on the calling thread).
    pub fn workers(self) -> usize {
        match self {
            Workload::Seq | Workload::ParCold => 1,
            Workload::ParWarm => 2,
        }
    }

    /// The explorations of one hunt, in Table I order: the five Table I
    /// programs under the default `eq` policy, plus `table-lookup` under
    /// `symbolic:64` on `par-warm`.
    pub fn jobs(self) -> Vec<Job> {
        let mut jobs: Vec<Job> = programs::all_programs()
            .into_iter()
            .map(|program| Job {
                program,
                policy: AddressPolicyKind::ConcretizeEq,
                expected_paths: program.expected_paths,
            })
            .collect();
        if self == Workload::ParWarm {
            jobs.push(Job {
                program: programs::TABLE_LOOKUP,
                policy: AddressPolicyKind::Symbolic { window: 64 },
                expected_paths: programs::TABLE_LOOKUP_SYMBOLIC_PATHS,
            });
        }
        jobs
    }
}

/// One exploration of a hunt: a program, its address policy, and the path
/// count pinned for it.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// The explored program.
    pub program: Program,
    /// Address-concretization policy of the exploration.
    pub policy: AddressPolicyKind,
    /// The path count a correct exploration finds.
    pub expected_paths: u64,
}

/// `jobs` in an order drawn from `seed` (a Fisher–Yates shuffle driven by
/// splitmix64). The seed changes nothing but the order.
pub fn shuffled(mut jobs: Vec<Job>, seed: u64) -> Vec<Job> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..jobs.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
    jobs
}

/// One explored path as the oracle checks it: the witness input and what
/// the engine says it does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Bytes the engine placed in the symbolic input region.
    pub input: Vec<u8>,
    /// How the path terminated.
    pub exit: StepResult,
    /// Instructions the path executed.
    pub steps: u64,
}

impl Witness {
    fn of_record(r: &PathRecord) -> Self {
        Witness {
            input: r.input.clone(),
            exit: r.exit,
            steps: r.steps,
        }
    }
}

/// The engine instrumentation of a traced hunt: the metrics registry and
/// Chrome trace sink every session shares, and the per-session
/// [`Probe`] observers' totals.
pub struct Tracing {
    /// Phase timers of every traced session.
    pub registry: Arc<MetricsRegistry>,
    /// Span events of every traced session.
    pub sink: Arc<ChromeTraceSink>,
    /// Event counters and query latencies, summed over every observer.
    pub probes: Arc<Mutex<ProbeTotals>>,
}

impl Tracing {
    /// Fresh instrumentation for a workload's traced hunt.
    pub fn new(workload: Workload) -> Self {
        Tracing {
            registry: Arc::new(MetricsRegistry::new(workload.workers())),
            sink: Arc::new(ChromeTraceSink::new()),
            probes: Arc::new(Mutex::new(ProbeTotals::default())),
        }
    }
}

/// What every [`Probe`] of a traced hunt observed.
#[derive(Debug, Default)]
pub struct ProbeTotals {
    /// The engine's event counters.
    pub counts: CountingObserver,
    /// Wall nanoseconds of every solver query (cold `solve` and warm
    /// promote/solve phases), one entry per query.
    pub query_ns: Vec<u64>,
}

/// A [`CountingObserver`] that also keeps each solver query's latency and
/// adds both into shared [`ProbeTotals`] when dropped. Each session (and
/// each worker thread) owns its own probe, so the hot path takes no lock.
pub struct Probe {
    counts: CountingObserver,
    query_ns: Vec<u64>,
    out: Arc<Mutex<ProbeTotals>>,
}

impl Probe {
    fn new(out: Arc<Mutex<ProbeTotals>>) -> Self {
        Probe {
            counts: CountingObserver::new(),
            query_ns: Vec::new(),
            out,
        }
    }
}

impl Observer for Probe {
    fn on_step(&mut self, pc: u32, steps: u64) {
        self.counts.on_step(pc, steps);
    }
    fn on_branch(&mut self, pc: u32, cond: Term, taken: bool) {
        self.counts.on_branch(pc, cond, taken);
    }
    fn on_path(&mut self, input: &[u8], outcome: &PathOutcome) {
        self.counts.on_path(input, outcome);
    }
    fn on_query(&mut self, result: SatResult) {
        self.counts.on_query(result);
    }
    fn on_warm_query(&mut self, stats: &WarmQueryStats) {
        self.counts.on_warm_query(stats);
    }
    fn on_static_analysis(&mut self, stats: &StaticAnalysisStats) {
        self.counts.on_static_analysis(stats);
    }
    fn on_phase(&mut self, phase: Phase, nanos: u64) {
        if matches!(phase, Phase::Solve | Phase::WarmPromote | Phase::WarmSolve) {
            self.query_ns.push(nanos);
        }
    }
    fn on_checkpoint(&mut self, event: CheckpointEvent) {
        self.counts.on_checkpoint(event);
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // A poisoned lock means another probe's thread panicked; the run
        // fails on that panic, so these counts may be dropped.
        if let Ok(mut totals) = self.out.lock() {
            binsym_bench::cli::add_counters(&mut totals.counts, &self.counts);
            totals.query_ns.append(&mut self.query_ns);
        }
    }
}

/// The sequential default [`Dfs`] strategy, noting the identity of each
/// candidate it hands out — the sequential session's record of which
/// [`PathId`] the next explored path has. Scheduling is unchanged.
#[derive(Debug)]
struct IdTap {
    dfs: Dfs<Candidate>,
    last: Rc<RefCell<PathId>>,
}

impl PathStrategy for IdTap {
    fn name(&self) -> &'static str {
        self.dfs.name()
    }
    fn push(&mut self, candidate: Candidate) {
        PathStrategy::push(&mut self.dfs, candidate);
    }
    fn pop(&mut self) -> Option<Candidate> {
        let candidate = PathStrategy::pop(&mut self.dfs)?;
        *self.last.borrow_mut() = candidate.prescription.id.clone();
        Some(candidate)
    }
    fn frontier_len(&self) -> usize {
        self.dfs.frontier_len()
    }
}

/// A built, not yet explored session.
pub enum Engine {
    /// The sequential engine; a traced one carries the id tap of its
    /// strategy.
    Seq(Session, Option<Rc<RefCell<PathId>>>),
    /// A sharded engine.
    Par(ParallelSession),
}

/// One job with its assembled binary and built session.
pub struct Prepared {
    /// The job.
    pub job: Job,
    /// The assembled program.
    pub elf: ElfFile,
    /// The session that explores it.
    pub engine: Engine,
}

/// Assembles every job's program and builds its session for `workload`:
/// the builder defaults (gate on, depth-first) plus the workload's
/// configuration, instrumented when `tracing` is given. `par-warm`
/// checkpoints into `scratch`.
///
/// # Errors
/// A session that fails to build.
pub fn prepare(
    workload: Workload,
    jobs: &[Job],
    tracing: Option<&Tracing>,
    scratch: &Path,
) -> Result<Vec<Prepared>, binsym::Error> {
    jobs.iter()
        .map(|&job| {
            let elf = job.program.build();
            let mut builder = Session::builder(Spec::rv32im())
                .binary(&elf)
                .address_policy(job.policy);
            if let Some(t) = tracing {
                builder = builder
                    .metrics(Arc::clone(&t.registry))
                    .trace(Arc::clone(&t.sink) as Arc<dyn TraceSink>);
            }
            let engine = match workload {
                Workload::Seq => match tracing {
                    Some(t) => {
                        let last = Rc::new(RefCell::new(PathId::root()));
                        let session = builder
                            .strategy(IdTap {
                                dfs: Dfs::new(),
                                last: Rc::clone(&last),
                            })
                            .observer(Probe::new(Arc::clone(&t.probes)))
                            .build()?;
                        Engine::Seq(session, Some(last))
                    }
                    None => Engine::Seq(builder.build()?, None),
                },
                Workload::ParCold | Workload::ParWarm => {
                    let warm = workload == Workload::ParWarm;
                    let mut builder = builder.workers(workload.workers()).warm_start(warm);
                    if warm {
                        builder =
                            builder.checkpoint(checkpoint_file(scratch, &job), CHECKPOINT_EVERY);
                    }
                    if let Some(t) = tracing {
                        let probes = Arc::clone(&t.probes);
                        builder = builder.observer_factory(move |_| {
                            Box::new(Probe::new(Arc::clone(&probes))) as Box<dyn Observer>
                        });
                    }
                    Engine::Par(builder.build_parallel()?)
                }
            };
            Ok(Prepared { job, elf, engine })
        })
        .collect()
}

/// The checkpoint file of `job` under `scratch`.
pub fn checkpoint_file(scratch: &Path, job: &Job) -> PathBuf {
    scratch.join(format!("{}.ckpt", job.program.name))
}

/// One finished exploration.
pub struct Explored {
    /// The job.
    pub job: Job,
    /// The assembled program.
    pub elf: ElfFile,
    /// Wall time of the exploration call(s).
    pub wall: Duration,
    /// Process CPU seconds (user + system) spent during the exploration.
    pub cpu_s: f64,
    /// Every path's witness, in depth-first discovery order.
    pub witnesses: Vec<Witness>,
    /// Every path's record, in depth-first discovery order. Sequential
    /// sessions yield records only when traced (the id tap names them).
    pub records: Vec<PathRecord>,
    /// The session's summary.
    pub summary: Summary,
}

/// Drains `prepared`'s session. Only the exploration calls are timed:
/// copying the parallel records out and dropping the session come after.
///
/// # Errors
/// The first path that fails to execute.
pub fn explore(prepared: Prepared) -> Result<Explored, binsym::Error> {
    let Prepared { job, elf, engine } = prepared;
    let mut witnesses = Vec::with_capacity(job.expected_paths as usize);
    let mut records = Vec::new();
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let (summary, finished) = match engine {
        Engine::Seq(mut session, tap) => {
            for outcome in session.paths() {
                let outcome = outcome?;
                if let Some(last) = &tap {
                    let decisions = outcome
                        .trail
                        .iter()
                        .filter_map(|e| match *e {
                            TrailEntry::Branch { taken, .. } => Some(taken),
                            TrailEntry::Concretize { .. } => None,
                        })
                        .collect();
                    records.push(PathRecord {
                        id: last.borrow().clone(),
                        input: outcome.input.clone(),
                        exit: outcome.exit,
                        steps: outcome.steps,
                        trail_len: outcome.trail.len(),
                        decisions,
                    });
                }
                witnesses.push(Witness {
                    input: outcome.input,
                    exit: outcome.exit,
                    steps: outcome.steps,
                });
            }
            (session.summary(), Engine::Seq(session, tap))
        }
        Engine::Par(mut session) => (session.run_all()?, Engine::Par(session)),
    };
    let wall = started.elapsed();
    let cpu_s = cpu_seconds() - cpu0;
    if let Engine::Par(session) = &finished {
        records = session.records().to_vec();
        witnesses.extend(records.iter().map(Witness::of_record));
    }
    drop(finished);
    Ok(Explored {
        job,
        elf,
        wall,
        cpu_s,
        witnesses,
        records,
        summary,
    })
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this benchmark targets).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (10 ms resolution). Returns 0 where `/proc` is
/// unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may contain
    // spaces: state is field 3, utime field 14, stime field 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p`-quantile of `values` by linear interpolation between closest
/// ranks (0 for none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}
