//! The exploration session: the engine's public entry point.
//!
//! A [`Session`] owns everything one symbolic exploration needs — the path
//! executor, the term manager, a [`PathStrategy`] deciding which branch to
//! flip next, and one incremental `binsym_smt::Solver` discharging every
//! feasibility query — and is assembled with a builder:
//!
//! ```
//! use binsym::{Dfs, Session};
//! # use binsym_asm::Assembler;
//! # use binsym_isa::Spec;
//! # let elf = Assembler::new().assemble("
//! #         .data
//! # __sym_input: .word 0
//! #         .text
//! # _start: li a0, 0
//! #     li a7, 93
//! #     ecall
//! # ").unwrap();
//! let mut session = Session::builder(Spec::rv32im())
//!     .binary(&elf)
//!     .strategy(Dfs::new())
//!     .build()?;
//! let summary = session.run_all()?;
//! # Ok::<(), binsym::Error>(())
//! ```
//!
//! Paths can be consumed **lazily** through [`Session::paths`]: each call
//! to the iterator executes exactly one path and defers the (potentially
//! expensive) next-input search to the following call — so `take(n)`,
//! early `break`, and streaming consumers do no wasted solving.
//! [`Session::run_all`] is a convenience wrapper draining the iterator
//! into a [`Summary`].
//!
//! The exploration algorithm itself is the paper's §III-B offline DSE: the
//! SUT restarts from scratch per path under a concrete solver-provided
//! input; completed trails contribute flip candidates to the strategy's
//! frontier; a candidate's prefix plus negated branch condition goes through
//! the static gate to the solver (see [`crate::backend`]), and a model of a
//! feasible flip seeds the next run.
//!
//! The session keeps one incremental solver for its whole exploration:
//! every flip query shares its bit-blasted terms and learnt clauses. A
//! query is posed as assumptions, so it leaves behind only the definitions
//! of terms no earlier query blasted, and the solver grows with the
//! distinct terms of the exploration, not with its queries.

use std::rc::Rc;
use std::sync::Arc;

use binsym_elf::ElfFile;
use binsym_isa::Spec;
use binsym_smt::{Solver, TermManager};

use crate::backend::{discharge, StaticGate};
use crate::error::Error;
use crate::machine::{StepResult, SymMachine, TrailEntry};
use crate::memory::AddressPolicyKind;
use crate::metrics::{Instruments, MetricsRegistry, Phase};
use crate::observe::{NullObserver, Observer};
use crate::parallel::{
    ExecutorFactory, ObserverFactory, ParallelSession, PersistPlan, ShardStrategyFactory,
};
use crate::prescribe::{Flip, PathRecord, Prescription};
use crate::strategy::{Candidate, Dfs, PathStrategy, PrescriptionStrategy};
use crate::trace::TraceSink;
use crate::warm::WARM_CAPACITY;
use crate::SYM_INPUT_SYMBOL;

/// Outcome of executing one path.
#[derive(Debug, Clone)]
pub struct PathOutcome {
    /// How the path terminated.
    pub exit: StepResult,
    /// The recorded path trail.
    pub trail: Vec<TrailEntry>,
    /// Instructions executed.
    pub steps: u64,
    /// The concrete input that drove execution down this path.
    pub input: Vec<u8>,
}

impl PathOutcome {
    /// True when the path terminated abnormally (nonzero exit or `ebreak`).
    pub fn is_error(&self) -> bool {
        !matches!(self.exit, StepResult::Exited(0) | StepResult::Continue)
    }
}

/// An engine capable of executing one SUT path from scratch under a
/// concrete input assignment, recording the symbolic path trail.
///
/// Implementors: the formal-semantics engine ([`SpecExecutor`] — the
/// paper's BinSym), the IR-lifter baseline (`binsym-lifter`), and custom
/// personas plugged in via [`Session::executor_builder`] or
/// [`Session::factory_builder`].
pub trait PathExecutor {
    /// Executes one complete path with `input` bytes in the symbolic
    /// region, reporting per-instruction progress to `obs`.
    ///
    /// # Errors
    /// Returns [`Error`] on decode errors, unknown syscalls, or fuel
    /// exhaustion.
    fn execute_path(
        &mut self,
        tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        obs: &mut dyn Observer,
    ) -> Result<PathOutcome, Error>;

    /// Replays the *prefix* of the path driven by `input`: executes until
    /// `branch_limit` symbolic branches have been recorded (or the path
    /// ends), returning the trail. Used by prescription replay
    /// ([`crate::ParallelSession`]), where only the constraint prefix up to
    /// the flipped branch is needed — engines that can stop early save the
    /// path's tail. Replays are never observed (no [`Observer`] hooks fire).
    ///
    /// The default implementation executes the full path and returns its
    /// complete trail, which is correct for any executor.
    ///
    /// # Errors
    /// Returns [`Error`] on execution errors or fuel exhaustion.
    fn execute_prefix(
        &mut self,
        tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        branch_limit: usize,
    ) -> Result<Vec<TrailEntry>, Error> {
        let _ = branch_limit;
        Ok(self.execute_path(tm, input, fuel, &mut NullObserver)?.trail)
    }

    /// Length of the symbolic input region in bytes.
    fn input_len(&self) -> u32;

    /// The address-concretization policy this executor resolves symbolic
    /// memory accesses with (see [`crate::memory`]). Prescription replay
    /// cross-checks this against the policy recorded in each
    /// [`Prescription`], so an executor configured differently from the
    /// session that produced the prescription fails loudly instead of
    /// diverging silently. The default is the paper's equality
    /// concretization.
    fn policy(&self) -> AddressPolicyKind {
        AddressPolicyKind::ConcretizeEq
    }
}

/// Sharing an executor: the session takes ownership of its executor, so to
/// read accumulated executor state back afterwards (cache statistics, lift
/// counts, …), wrap it in `Rc<RefCell<…>>`, keep a clone, and hand the
/// other clone to [`Session::executor_builder`].
impl<E: PathExecutor> PathExecutor for std::rc::Rc<std::cell::RefCell<E>> {
    fn execute_path(
        &mut self,
        tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        obs: &mut dyn Observer,
    ) -> Result<PathOutcome, Error> {
        self.borrow_mut().execute_path(tm, input, fuel, obs)
    }

    fn execute_prefix(
        &mut self,
        tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        branch_limit: usize,
    ) -> Result<Vec<TrailEntry>, Error> {
        self.borrow_mut()
            .execute_prefix(tm, input, fuel, branch_limit)
    }

    fn input_len(&self) -> u32 {
        self.borrow().input_len()
    }

    fn policy(&self) -> AddressPolicyKind {
        self.borrow().policy()
    }
}

/// A path that terminated abnormally (nonzero exit status or `ebreak`) —
/// the bug reports of SE-based testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorPath {
    /// Exit status for `exit` paths; `None` for `ebreak`.
    pub exit_code: Option<u32>,
    /// The concrete input that drives execution down this path.
    pub input: Vec<u8>,
}

/// Exploration result summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Number of execution paths found (the paper's Table I metric).
    pub paths: u64,
    /// Abnormal terminations with their witness inputs.
    pub error_paths: Vec<ErrorPath>,
    /// Total instructions executed across all paths.
    pub total_steps: u64,
    /// Total SMT `check-sat` queries issued.
    pub solver_checks: u64,
    /// Longest path trail observed (branches + concretizations).
    pub max_trail_len: usize,
    /// True if the path limit stopped exploration early.
    pub truncated: bool,
}

impl Summary {
    /// Folds one materialized path into the totals: the sequential session
    /// per path and the parallel merge per record. The step total
    /// saturates rather than wrapping, whatever the per-path fuel.
    pub fn add_path(&mut self, path: &PathRecord) {
        self.paths += 1;
        self.total_steps = self.total_steps.saturating_add(path.steps);
        self.max_trail_len = self.max_trail_len.max(path.trail_len);
        if path.is_error() {
            self.error_paths.push(ErrorPath {
                exit_code: match path.exit {
                    StepResult::Exited(code) => Some(code),
                    _ => None,
                },
                input: path.input.clone(),
            });
        }
    }
}

/// Locates the symbolic input region in an ELF image.
///
/// # Errors
/// Returns [`Error::NoSymbolicInput`] if the `__sym_input` symbol is
/// missing.
pub fn find_sym_input(elf: &ElfFile, override_len: Option<u32>) -> Result<(u32, u32), Error> {
    let sym = elf.symbol(SYM_INPUT_SYMBOL).ok_or(Error::NoSymbolicInput)?;
    let sym_addr = sym.value;
    let default_len = if sym.size != 0 {
        sym.size
    } else {
        // Segment ends are computed in 64 bits: a segment may end at (or
        // past) the top of the 32-bit address space.
        let addr = u64::from(sym_addr);
        elf.segments
            .iter()
            .find_map(|s| {
                let start = u64::from(s.vaddr);
                let end = start + s.data.len() as u64;
                (start..end)
                    .contains(&addr)
                    .then(|| u32::try_from(end - addr).unwrap_or(u32::MAX))
            })
            .unwrap_or(4)
    };
    Ok((sym_addr, override_len.unwrap_or(default_len)))
}

/// The paper's engine: one path execution = one run of the symbolic
/// modular interpreter over the formal specification.
///
/// The executor keeps one machine image per program: on its first path it
/// builds a [`SymMachine`] with the ELF loaded (and nothing symbolic yet),
/// and every path — [`PathExecutor::execute_path`] and
/// [`PathExecutor::execute_prefix`] alike — starts from a clone of it. The
/// image and its clones share one semantics memo keyed by instruction
/// word, so each distinct word is decoded and given its semantics program
/// once per executor. An executor is built per worker thread; it is not
/// `Send`.
#[derive(Debug)]
pub struct SpecExecutor {
    spec: Spec,
    elf: ElfFile,
    sym_addr: u32,
    sym_len: u32,
    policy: AddressPolicyKind,
    /// The loaded machine every path is cloned from, built on first use
    /// (not at construction, which sits inside session set-up).
    image: Option<SymMachine>,
}

impl SpecExecutor {
    /// Creates an executor for a binary with a `__sym_input` region.
    ///
    /// # Errors
    /// Returns [`Error::NoSymbolicInput`] if the symbol is missing.
    pub fn new(spec: Spec, elf: &ElfFile, input_len: Option<u32>) -> Result<Self, Error> {
        SpecExecutor::owning(spec, elf.clone(), input_len)
    }

    /// [`SpecExecutor::new`] taking the image by value, so a caller that
    /// owns one does not copy it.
    fn owning(spec: Spec, elf: ElfFile, input_len: Option<u32>) -> Result<Self, Error> {
        let (sym_addr, sym_len) = find_sym_input(&elf, input_len)?;
        Ok(SpecExecutor {
            spec,
            elf,
            sym_addr,
            sym_len,
            policy: AddressPolicyKind::default(),
            image: None,
        })
    }

    /// Sets the address-concretization policy (default:
    /// [`AddressPolicyKind::ConcretizeEq`]).
    #[must_use]
    pub fn with_policy(mut self, policy: AddressPolicyKind) -> Self {
        self.policy = policy;
        self.image = None;
        self
    }

    /// A machine ready to run one path: a clone of the loaded image with
    /// `input` in the symbolic region.
    fn start(&mut self, tm: &mut TermManager, input: &[u8]) -> SymMachine {
        let image = self.image.get_or_insert_with(|| {
            let mut m = SymMachine::new(self.spec.clone());
            m.policy = self.policy;
            m.load_elf(&self.elf);
            m
        });
        let mut m = image.clone();
        m.mark_symbolic(tm, self.sym_addr, self.sym_len, "in", input);
        m
    }
}

impl PathExecutor for SpecExecutor {
    fn execute_path(
        &mut self,
        tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        obs: &mut dyn Observer,
    ) -> Result<PathOutcome, Error> {
        let mut m = self.start(tm, input);
        for _ in 0..fuel {
            obs.on_step(m.pc, m.steps);
            let before = m.trail.len();
            let r = m.step(tm)?;
            for entry in &m.trail[before..] {
                if let TrailEntry::Branch { cond, taken, pc } = *entry {
                    obs.on_branch(pc, cond, taken);
                }
            }
            match r {
                StepResult::Continue => {}
                exit => {
                    return Ok(PathOutcome {
                        exit,
                        trail: m.trail,
                        steps: m.steps,
                        input: input.to_vec(),
                    })
                }
            }
        }
        Err(Error::OutOfFuel {
            input: input.to_vec(),
        })
    }

    fn execute_prefix(
        &mut self,
        tm: &mut TermManager,
        input: &[u8],
        fuel: u64,
        branch_limit: usize,
    ) -> Result<Vec<TrailEntry>, Error> {
        // Early-stop replay: a prescription only needs the trail up to its
        // flipped branch, so stop as soon as enough branches are recorded
        // instead of running the path to termination.
        let mut m = self.start(tm, input);
        let mut branches = 0usize;
        for _ in 0..fuel {
            let before = m.trail.len();
            let r = m.step(tm)?;
            branches += m.trail[before..].iter().filter(|e| e.is_branch()).count();
            if branches >= branch_limit || r != StepResult::Continue {
                return Ok(m.trail);
            }
        }
        Err(Error::OutOfFuel {
            input: input.to_vec(),
        })
    }

    fn input_len(&self) -> u32 {
        self.sym_len
    }

    fn policy(&self) -> AddressPolicyKind {
        self.policy
    }
}

/// Builder for [`Session`] and [`ParallelSession`]; obtained via
/// [`Session::builder`] (spec + binary), [`Session::executor_builder`]
/// (custom engine instance, no spec), or [`Session::factory_builder`]
/// (replicable custom engine, usable by worker threads).
///
/// Sequential and parallel sessions grow from the same builder: the shared
/// knobs (`binary`, `limit`, `fuel`, `address_policy`) apply to both, while
/// the engine *instances* (`strategy`, `observer`, and the executor of
/// [`Session::executor_builder`]) are sequential-only — worker threads
/// cannot share them. Parallel sessions take `Send` *factories* for the
/// policy and observer (`shard_strategy`, `observer_factory`) and, for a
/// custom engine, the executor factory of [`Session::factory_builder`];
/// [`SessionBuilder::build_parallel`] consumes them, and every replayed
/// flip is solved in a fresh solver (or through the warm cache).
pub struct SessionBuilder {
    executor: ExecutorSource,
    elf: Option<ElfFile>,
    strategy: Box<dyn PathStrategy>,
    strategy_set: bool,
    observer: Box<dyn Observer>,
    observer_set: bool,
    limit: Option<u64>,
    fuel: u64,
    address_policy: Option<AddressPolicyKind>,
    workers: Option<usize>,
    observer_factory: Option<ObserverFactory>,
    shard_strategy: Option<ShardStrategyFactory>,
    warm_start: bool,
    static_analysis: bool,
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<dyn TraceSink>>,
    checkpoint: Option<(std::path::PathBuf, u64)>,
    resume: Option<std::path::PathBuf>,
}

/// Where a builder's path executors come from, fixed by the [`Session`]
/// constructor that made the builder.
enum ExecutorSource {
    /// A [`SpecExecutor`] over this spec and [`SessionBuilder::binary`]
    /// ([`Session::builder`]).
    Spec(Spec),
    /// One custom executor, sequential-only ([`Session::executor_builder`]).
    Instance(Box<dyn PathExecutor>),
    /// One custom executor per worker ([`Session::factory_builder`]).
    Factory(ExecutorFactory),
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("strategy", &self.strategy.name())
            .field("limit", &self.limit)
            .field("fuel", &self.fuel)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl SessionBuilder {
    /// The binary to explore (must define a `__sym_input` symbol).
    pub fn binary(mut self, elf: &ElfFile) -> Self {
        self.elf = Some(elf.clone());
        self
    }

    /// Path-selection strategy (default: [`Dfs`], the paper's policy).
    /// Sequential-only; parallel sessions take [`SessionBuilder::shard_strategy`].
    pub fn strategy(mut self, strategy: impl PathStrategy + 'static) -> Self {
        self.strategy = Box::new(strategy);
        self.strategy_set = true;
        self
    }

    /// Observer receiving step/branch/path/query callbacks (default: none).
    /// Sequential-only; parallel sessions take [`SessionBuilder::observer_factory`].
    pub fn observer(mut self, observer: impl Observer + 'static) -> Self {
        self.observer = Box::new(observer);
        self.observer_set = true;
        self
    }

    /// Number of worker threads for [`SessionBuilder::build_parallel`]
    /// (default: the machine's available parallelism, capped at 8). Must be
    /// nonzero. Setting it makes the builder parallel-only: `build()` will
    /// refuse, pointing here.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Factory producing one [`Observer`] per worker thread, receiving the
    /// worker index. Worker observers see their shard's events live
    /// (`on_step`/`on_branch` during materialized-path execution, plus
    /// `on_query`/`on_path`); the deterministic merged stream is the record
    /// list of [`ParallelSession::records`].
    pub fn observer_factory(
        mut self,
        factory: impl Fn(usize) -> Box<dyn Observer> + Send + Sync + 'static,
    ) -> Self {
        self.observer_factory = Some(std::sync::Arc::new(factory));
        self
    }

    /// Factory producing each worker's shard-local frontier policy,
    /// receiving the worker index (default: depth-first). Affects
    /// *scheduling only*: the merged results are canonical for any policy.
    pub fn shard_strategy(
        mut self,
        factory: impl Fn(usize) -> Box<dyn PrescriptionStrategy> + Send + Sync + 'static,
    ) -> Self {
        self.shard_strategy = Some(std::sync::Arc::new(factory));
        self
    }

    /// Enables the deterministic solver warm start for parallel sessions
    /// (default: off). Each worker keeps its [`crate::warm::WARM_CAPACITY`]
    /// most recently used parent trails, keyed by parent concrete input,
    /// so a parent's prefix is executed once and reused; and one retained
    /// solver context holding the last query's prefix bit-blast, with each
    /// flip solved on a disposable clone of it. The cache affects **wall
    /// time only, never models** — merged records stay byte-identical to
    /// a cache-off run on every worker count, schedule, and hit pattern
    /// (see [`crate::warm`]).
    ///
    /// Parallel-only (the sequential engine already has true cross-query
    /// incrementality).
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Enables the word-level static-analysis gate (default: **on**).
    /// Before a flip query is bit-blasted, a known-bits + interval +
    /// order-closure pass over the path condition tries to prove it
    /// infeasible; proved queries skip the SAT solver entirely (see
    /// [`crate::StaticGate`]). Like the warm-start cache, the gate affects
    /// wall time only, never results: merged records stay byte-identical
    /// to an analysis-off run — residual queries are blasted from the
    /// original terms, and eliminations are exact. Per-query accounting
    /// flows through [`crate::Observer::on_static_analysis`]. The
    /// `BINSYM_SA_SHADOW` environment variable cross-checks every
    /// elimination against the full SAT query (a soundness tripwire for
    /// CI that re-adds the solver work the gate saves).
    pub fn static_analysis(mut self, enabled: bool) -> Self {
        self.static_analysis = enabled;
        self
    }

    /// Installs a shared [`MetricsRegistry`]: the engine times every
    /// [`Phase`] (execute/replay, bit-blast, solve, gate, warm promote/
    /// solve, merge) into the registry's lock-free per-worker shards, plus
    /// a per-query latency histogram. Keep an `Arc` clone and read
    /// [`MetricsRegistry::report`] after the run.
    ///
    /// Like the warm cache and the static gate, metrics change **wall time
    /// only, never results** — both determinism suites pin metrics-on runs
    /// byte-identical to metrics-off runs. With no registry and no trace
    /// sink installed the engine measures no clocks at all.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Installs a [`TraceSink`] receiving begin/end span events for every
    /// timed [`Phase`], one track per worker (track `i` = worker `i`; a
    /// parallel merge lands on track `workers`). Use
    /// [`crate::ChromeTraceSink`] to open the hunt in `ui.perfetto.dev`.
    /// Carries the same wall-time-only contract as
    /// [`SessionBuilder::metrics`].
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Writes an atomic checkpoint of the parallel exploration to `path`
    /// every `every_n` newly merged paths (and once more on drain). A
    /// checkpoint captures the committed records, every pending
    /// prescription (queued, in flight or failed) and the truncation
    /// watermark in the versioned [`crate::persist`] wire format — no
    /// shard or policy state; [`SessionBuilder::resume`] turns it back into
    /// a run whose merged records are **byte-identical** to the
    /// uninterrupted run's.
    /// Files are written via a temp sibling + rename, so a kill at any
    /// instant leaves a complete checkpoint on disk. `every_n` must be
    /// nonzero. Parallel-only. Progress flows through
    /// [`crate::Observer::on_checkpoint`].
    pub fn checkpoint(mut self, path: impl Into<std::path::PathBuf>, every_n: u64) -> Self {
        self.checkpoint = Some((path.into(), every_n));
        self
    }

    /// Seeds the parallel exploration from a checkpoint written by
    /// [`SessionBuilder::checkpoint`] instead of from the root
    /// prescription. The session's symbolic input length, `fuel`, and
    /// `limit` must match the checkpoint's (typed [`Error::Persist`]
    /// otherwise — as for any unreadable, truncated, or wrong-version
    /// file). The pending prescriptions are always redistributed over
    /// this session's shards in contiguous [`crate::PathId`] chunks, so
    /// worker count and shard policy may differ from the interrupted
    /// run's: they only shape scheduling. The resumed run's merged records
    /// are byte-identical to the uninterrupted run's. Parallel-only.
    pub fn resume(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Upper bound on explored paths. Must be nonzero — for unbounded
    /// exploration simply don't set a limit.
    ///
    /// A sequential session stops after the first `max_paths` paths in
    /// *strategy order*; a parallel session returns the canonical
    /// `max_paths`-lowest-[`crate::PathId`] prefix of the full exploration,
    /// independent of scheduling (see [`crate::parallel`]).
    pub fn limit(mut self, max_paths: u64) -> Self {
        self.limit = Some(max_paths);
        self
    }

    /// Instruction budget per path (default: 10 million).
    pub fn fuel(mut self, fuel_per_path: u64) -> Self {
        self.fuel = fuel_per_path;
        self
    }

    /// Sets the address-concretization policy for symbolic memory accesses
    /// (default: [`AddressPolicyKind::ConcretizeEq`], the paper's §III-B
    /// behavior — see [`crate::memory`] for the alternatives). Applies to
    /// the builder's own [`SpecExecutor`]; a custom executor (or executor
    /// factory) must be configured with the same policy itself — the
    /// builder cross-checks and refuses on a mismatch.
    pub fn address_policy(mut self, policy: AddressPolicyKind) -> Self {
        self.address_policy = Some(policy);
        self
    }

    fn validate_common(&self) -> Result<(), Error> {
        if self.limit == Some(0) {
            return Err(Error::InvalidConfig {
                what: "path limit must be nonzero (omit `limit` for unbounded exploration)",
            });
        }
        if self.fuel == 0 {
            return Err(Error::InvalidConfig {
                what: "per-path fuel must be nonzero",
            });
        }
        if matches!(self.checkpoint, Some((_, 0))) {
            return Err(Error::InvalidConfig {
                what: "checkpoint interval must be nonzero paths",
            });
        }
        Ok(())
    }

    /// Assembles the sequential session.
    ///
    /// # Errors
    /// [`Error::MissingBinary`] when the builder has no executor (from
    /// [`Session::executor_builder`] or [`Session::factory_builder`]) and
    /// [`SessionBuilder::binary`] was not called,
    /// [`Error::InvalidConfig`] for a zero path limit, zero fuel, or a
    /// builder made parallel-only via [`SessionBuilder::workers`], and
    /// [`Error::NoSymbolicInput`] when the binary lacks the symbol.
    pub fn build(self) -> Result<Session, Error> {
        self.validate_common()?;
        if self.workers.is_some() {
            return Err(Error::InvalidConfig {
                what: "`workers` configures a parallel session: call `build_parallel()`",
            });
        }
        if self.checkpoint.is_some() || self.resume.is_some() {
            return Err(Error::InvalidConfig {
                what: "`checkpoint`/`resume` persist the sharded frontier of a parallel \
                       session: call `build_parallel()`",
            });
        }
        if self.warm_start {
            return Err(Error::InvalidConfig {
                what: "`warm_start` serves the parallel engine (the sequential session is \
                       already incremental): call `build_parallel()`",
            });
        }
        let executor = match self.executor {
            ExecutorSource::Instance(exec) => exec,
            ExecutorSource::Factory(factory) => factory()?,
            ExecutorSource::Spec(spec) => {
                let elf = self.elf.ok_or(Error::MissingBinary)?;
                // Move the builder's ELF copy into the executor instead of
                // cloning a second time — images can be large, and session
                // construction sits inside benchmarked regions.
                Box::new(
                    SpecExecutor::owning(spec, elf, None)?
                        .with_policy(self.address_policy.unwrap_or_default()),
                )
            }
        };
        if let Some(kind) = self.address_policy {
            if executor.policy() != kind {
                return Err(Error::InvalidConfig {
                    what: "`address_policy` disagrees with the custom executor's policy: \
                           configure the executor itself (e.g. `with_policy`)",
                });
            }
        }
        let input = vec![0u8; executor.input_len() as usize];
        let root = Prescription::root(input.clone(), executor.policy());
        Ok(Session {
            executor,
            tm: TermManager::new(),
            strategy: self.strategy,
            solver: Solver::new(),
            observer: self.observer,
            gate: StaticGate::new(self.static_analysis),
            fuel: self.fuel,
            max_paths: self.limit,
            next: Some((root, input)),
            done: false,
            summary: Summary::default(),
            instr: Instruments::new(self.metrics, self.trace, 0),
        })
    }

    /// Assembles a [`ParallelSession`]: N worker threads, each owning a
    /// complete engine, exploring the same path tree via replayable
    /// [`Prescription`]s pulled from work-stealing shard frontiers.
    ///
    /// The sequential-only engine instances must not have been set — their
    /// factory counterparts replace them, because every worker needs its
    /// own copies.
    ///
    /// # Errors
    /// [`Error::MissingBinary`] when a builder from [`Session::builder`]
    /// was given no binary; [`Error::InvalidConfig`] for zero
    /// workers/limit/fuel or for sequential-only components (including the
    /// executor of [`Session::executor_builder`]);
    /// [`Error::NoSymbolicInput`] when the binary lacks the symbol.
    pub fn build_parallel(self) -> Result<ParallelSession, Error> {
        self.validate_common()?;
        if self.workers == Some(0) {
            return Err(Error::InvalidConfig {
                what: "worker count must be nonzero",
            });
        }
        if self.strategy_set {
            return Err(Error::InvalidConfig {
                what: "`strategy` is sequential-only: use `shard_strategy` for parallel sessions",
            });
        }
        if self.observer_set {
            return Err(Error::InvalidConfig {
                what: "`observer` is sequential-only: use `observer_factory` for parallel sessions",
            });
        }
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(8)
        });
        let executor_factory: ExecutorFactory = match self.executor {
            ExecutorSource::Factory(factory) => factory,
            ExecutorSource::Spec(spec) => {
                let elf = self.elf.ok_or(Error::MissingBinary)?;
                let policy = self.address_policy.unwrap_or_default();
                std::sync::Arc::new(move || {
                    Ok(Box::new(
                        SpecExecutor::new(spec.clone(), &elf, None)?.with_policy(policy),
                    ))
                })
            }
            ExecutorSource::Instance(_) => {
                return Err(Error::InvalidConfig {
                    what: "a boxed executor cannot be shared across workers: \
                           start from `Session::factory_builder`",
                })
            }
        };
        // Probe one executor now: fail fast on a broken factory or missing
        // symbol, and learn the input length and address policy for the
        // root prescription.
        let probe = executor_factory()?;
        let input_len = probe.input_len();
        let policy = probe.policy();
        if self.address_policy.is_some_and(|kind| kind != policy) {
            return Err(Error::InvalidConfig {
                what: "`address_policy` disagrees with the executor factory's policy: \
                       configure the factory's executors themselves (e.g. `with_policy`)",
            });
        }
        let shard_strategy: ShardStrategyFactory = self
            .shard_strategy
            .unwrap_or_else(|| std::sync::Arc::new(|_| Box::new(Dfs::<Prescription>::new())));
        Ok(ParallelSession::new(
            workers,
            executor_factory,
            self.observer_factory,
            shard_strategy,
            self.fuel,
            self.limit,
            input_len,
            self.warm_start.then_some(WARM_CAPACITY),
            StaticGate::new(self.static_analysis),
            Instruments::new(self.metrics, self.trace, 0),
            PersistPlan {
                checkpoint: self.checkpoint,
                resume: self.resume,
            },
            policy,
        ))
    }
}

/// One symbolic exploration of one binary: executor + strategy + solver
/// + observer, with lazily discovered paths.
///
/// See the [module docs](self) for the full picture and an example.
pub struct Session {
    executor: Box<dyn PathExecutor>,
    tm: TermManager,
    strategy: Box<dyn PathStrategy>,
    /// The incremental solver every flip query runs on.
    solver: Solver,
    observer: Box<dyn Observer>,
    gate: StaticGate,
    fuel: u64,
    max_paths: Option<u64>,
    /// The next path and its input, when already known (the all-zero root,
    /// the model of the last feasible flip, or a path that failed to
    /// execute and is retried).
    next: Option<(Prescription, Vec<u8>)>,
    done: bool,
    /// Totals so far, except `solver_checks`, which `solver` counts.
    summary: Summary,
    /// Phase timers and trace spans (track 0); disabled unless a metrics
    /// registry or trace sink was installed.
    instr: Instruments,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("strategy", &self.strategy.name())
            .field("paths", &self.summary.paths)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl Session {
    fn builder_for(executor: ExecutorSource) -> SessionBuilder {
        SessionBuilder {
            executor,
            elf: None,
            strategy: Box::new(Dfs::<Candidate>::new()),
            strategy_set: false,
            observer: Box::new(NullObserver),
            observer_set: false,
            limit: None,
            fuel: 10_000_000,
            address_policy: None,
            workers: None,
            observer_factory: None,
            shard_strategy: None,
            warm_start: false,
            static_analysis: true,
            metrics: None,
            trace: None,
            checkpoint: None,
            resume: None,
        }
    }

    /// Starts building a session for the given ISA specification.
    pub fn builder(spec: Spec) -> SessionBuilder {
        Session::builder_for(ExecutorSource::Spec(spec))
    }

    /// Starts building a session around a custom [`PathExecutor`] — no ISA
    /// specification is needed (the executor brings its own translation
    /// layer); custom engines such as the IR-lifter baseline enter the
    /// session this way. Sequential-only (the boxed executor cannot be
    /// replicated onto worker threads); parallel custom engines start from
    /// [`Session::factory_builder`].
    pub fn executor_builder(executor: impl PathExecutor + 'static) -> SessionBuilder {
        Session::builder_for(ExecutorSource::Instance(Box::new(executor)))
    }

    /// Starts building a session around a *replicable* custom engine: the
    /// factory is invoked once per worker thread by
    /// [`SessionBuilder::build_parallel`] (and once by
    /// [`SessionBuilder::build`] for a sequential session), so one builder
    /// serves both modes. The factory must be `Send + Sync`; the executors
    /// it returns stay on the thread that created them.
    pub fn factory_builder(
        factory: impl Fn() -> Result<Box<dyn PathExecutor>, Error> + Send + Sync + 'static,
    ) -> SessionBuilder {
        Session::builder_for(ExecutorSource::Factory(std::sync::Arc::new(factory)))
    }

    /// Length of the symbolic input region in bytes.
    pub fn input_len(&self) -> u32 {
        self.executor.input_len()
    }

    /// Name of the active path-selection strategy.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// True when the frontier is exhausted (or the path limit was hit) and
    /// no further path will be yielded. A path that failed to execute
    /// leaves it `false`: that path stays staged (see [`Session::run_all`]).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Totals accumulated so far (complete once exploration is done).
    pub fn summary(&self) -> Summary {
        Summary {
            solver_checks: self.solver.num_checks(),
            ..self.summary.clone()
        }
    }

    /// Executes a single path with the given concrete input, without
    /// touching the exploration frontier.
    ///
    /// This is a replay facility outside the exploration loop: the
    /// session's observer does **not** see the run (its per-path state and
    /// counters stay consistent with the explored paths only).
    ///
    /// # Errors
    /// Returns [`Error`] on execution errors or fuel exhaustion.
    pub fn execute_path(&mut self, input: &[u8]) -> Result<PathOutcome, Error> {
        self.executor
            .execute_path(&mut self.tm, input, self.fuel, &mut NullObserver)
    }

    /// The streaming path iterator: each `next()` executes exactly one
    /// path and yields its [`PathOutcome`]. The feasibility search for
    /// the *following* input runs lazily on the subsequent call, so
    /// consuming a prefix of the paths does no wasted solver work. An
    /// iterator ends after yielding an error; the failing path stays
    /// staged, so the next `paths()` or [`Session::run_all`] re-executes
    /// it.
    pub fn paths(&mut self) -> Paths<'_> {
        Paths {
            session: self,
            failed: false,
        }
    }

    /// Runs exploration to completion (or to the path limit), returning
    /// the [`Summary`]. Thin wrapper draining [`Session::paths`]; totals
    /// accumulate across calls, so interleaving with a partially consumed
    /// iterator is fine.
    ///
    /// # Errors
    /// Returns [`Error`] if any path fails to execute. The failing path is
    /// not consumed: calling again re-executes it (no new solver check)
    /// and, execution being deterministic, returns the same error.
    pub fn run_all(&mut self) -> Result<Summary, Error> {
        while let Some(r) = self.next_path() {
            r?;
        }
        Ok(self.summary())
    }

    /// Core of the lazy loop: executes one path and queues its flip
    /// candidates; solves for the next input only when none is staged.
    fn next_path(&mut self) -> Option<Result<PathOutcome, Error>> {
        if self.done {
            return None;
        }
        let Some((p, input)) = self.next.take().or_else(|| self.solve_next()) else {
            self.done = true;
            return None;
        };
        let (record, spawned, outcome) = match materialize(
            &mut *self.executor,
            &mut self.tm,
            &mut *self.observer,
            &p,
            self.fuel,
            input.clone(),
            &self.instr,
        ) {
            Ok(materialized) => materialized,
            Err(e) => {
                self.next = Some((p, input));
                return Some(Err(e));
            }
        };
        self.summary.add_path(&record);
        if self
            .max_paths
            .is_some_and(|limit| self.summary.paths >= limit)
        {
            self.summary.truncated = true;
            self.done = true;
        } else {
            let trail: Rc<[TrailEntry]> = Rc::from(outcome.trail.as_slice());
            for prescription in spawned {
                self.strategy.push(Candidate {
                    prescription,
                    trail: Rc::clone(&trail),
                });
            }
        }
        Some(Ok(outcome))
    }

    /// Pops frontier candidates until a flip is feasible, returning its
    /// prescription and the model's input bytes, or `None` when the
    /// frontier is exhausted.
    fn solve_next(&mut self) -> Option<(Prescription, Vec<u8>)> {
        while let Some(Candidate {
            prescription,
            trail,
        }) = self.strategy.pop()
        {
            let flip = prescription
                .flip
                .expect("frontier candidates flip a branch");
            let (prefix, flipped) = flip
                .query(&trail, &mut self.tm)
                .expect("a path's own trail holds each of its flips");
            let (_, bytes) = discharge(
                &mut self.solver,
                &mut self.tm,
                self.gate,
                &prefix,
                flipped,
                self.executor.input_len(),
                &self.instr,
                &mut *self.observer,
            );
            if let Some(bytes) = bytes {
                return Some((prescription, bytes));
            }
        }
        None
    }
}

/// Executes the path a prescription materializes under its solved `input`
/// and derives the prescriptions of its unexplored suffix — the branches
/// past the flipped one (all of them for the root). The path step of both
/// engines: returns the path's record, its spawned prescriptions, and the
/// full outcome.
///
/// # Errors
/// Returns [`Error`] on execution errors or fuel exhaustion.
pub(crate) fn materialize(
    executor: &mut dyn PathExecutor,
    tm: &mut TermManager,
    observer: &mut dyn Observer,
    p: &Prescription,
    fuel: u64,
    input: Vec<u8>,
    instr: &Instruments,
) -> Result<(PathRecord, Vec<Prescription>, PathOutcome), Error> {
    let execute_started = instr.begin(Phase::Execute);
    let outcome = executor.execute_path(tm, &input, fuel, observer);
    instr.finish(execute_started, Phase::Execute, observer);
    let outcome = outcome?;
    instr.note_path();
    observer.on_path(&input, &outcome);

    let forced = p.flip.map_or(0, |f| f.ord + 1);
    let mut spawned = Vec::new();
    let mut decisions = Vec::new();
    for entry in &outcome.trail {
        if let TrailEntry::Branch { taken, pc, .. } = *entry {
            let ord = decisions.len();
            if ord >= forced {
                spawned.push(Prescription {
                    id: p.id.child(ord),
                    input: input.clone(),
                    flip: Some(Flip { ord, taken, pc }),
                    policy: p.policy,
                });
            }
            decisions.push(taken);
        }
    }
    let record = PathRecord {
        id: p.id.clone(),
        input,
        exit: outcome.exit,
        steps: outcome.steps,
        trail_len: outcome.trail.len(),
        decisions,
    };
    Ok((record, spawned, outcome))
}

/// Iterator over lazily explored paths; see [`Session::paths`].
#[derive(Debug)]
pub struct Paths<'a> {
    session: &'a mut Session,
    /// Set once an error is yielded: the failing path stays staged, so
    /// going on would yield the same error forever.
    failed: bool,
}

impl Iterator for Paths<'_> {
    type Item = Result<PathOutcome, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let next = self.session.next_path();
        self.failed = matches!(next, Some(Err(_)));
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::CountingObserver;
    use crate::strategy::{Bfs, RandomRestart};
    use binsym_asm::Assembler;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn session_for(src: &str) -> Session {
        let elf = Assembler::new().assemble(src).expect("assembles");
        Session::builder(Spec::rv32im())
            .binary(&elf)
            .build()
            .expect("has sym input")
    }

    fn explore(src: &str) -> Summary {
        session_for(src).run_all().expect("explores")
    }

    const SINGLE_COMPARE: &str = r#"
        .data
__sym_input: .word 0
        .text
_start:
    la a0, __sym_input
    lw a1, 0(a0)
    li a2, 42
    beq a1, a2, hit
    li a0, 0
    li a7, 93
    ecall
hit:
    li a0, 1
    li a7, 93
    ecall
"#;

    /// `n` independent byte compares (`in[i] <u 100`): 2^n paths.
    fn compares(n: usize) -> String {
        let zeros = vec!["0"; n].join(", ");
        let mut src = format!(
            ".data\n__sym_input: .byte {zeros}\n.text\n_start:\n    la a0, __sym_input\n    li a2, 100\n"
        );
        for i in 0..n {
            src += &format!("    lbu a1, {i}(a0)\n    bltu a1, a2, c{i}\nc{i}:\n");
        }
        src + "    li a0, 0\n    li a7, 93\n    ecall\n"
    }

    #[test]
    fn two_paths_for_single_compare() {
        let s = explore(SINGLE_COMPARE);
        assert_eq!(s.paths, 2);
        assert_eq!(s.error_paths.len(), 1);
        // The witness input must be 42 (little-endian).
        assert_eq!(s.error_paths[0].input, vec![42, 0, 0, 0]);
    }

    #[test]
    fn chained_compares_enumerate_all_paths() {
        // Three independent byte comparisons: 8 paths.
        let s = explore(&compares(3));
        assert_eq!(s.paths, 8);
        assert!(s.error_paths.is_empty());
    }

    #[test]
    fn divu_fig2_both_outcomes_found() {
        // The paper's running example: z = x / y; if (x < z) fail.
        // With symbolic x, y the fail branch is reachable only via y == 0.
        let s = explore(
            r#"
        .data
__sym_input: .word 0, 0
        .text
_start:
    la a5, __sym_input
    lw a0, 0(a5)        # x
    lw a1, 4(a5)        # y
    divu a2, a0, a1     # z = x /u y
    bltu a0, a2, fail   # if (x < z) goto fail
    li a0, 0
    li a7, 93
    ecall
fail:
    li a0, 1
    li a7, 93
    ecall
"#,
        );
        // Paths: y==0 with x<0xffffffff (fail), y==0 with x==0xffffffff
        // (no fail), y!=0 (no fail) — DIVU itself forks on y == 0.
        assert!(s.paths >= 3, "expected >= 3 paths, got {}", s.paths);
        assert_eq!(s.error_paths.len(), 1, "exactly one failing path");
        let witness = &s.error_paths[0].input;
        let y = u32::from_le_bytes([witness[4], witness[5], witness[6], witness[7]]);
        assert_eq!(y, 0, "the failure witness must have a zero divisor");
    }

    #[test]
    fn loop_over_symbolic_bound_terminates() {
        // Loop count bounded by 2-bit input: 4 paths (0..=3 iterations).
        let s = explore(
            r#"
        .data
__sym_input: .byte 0
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    andi a1, a1, 3
    li a2, 0
loop:
    beq a2, a1, done
    addi a2, a2, 1
    j loop
done:
    li a0, 0
    li a7, 93
    ecall
"#,
        );
        assert_eq!(s.paths, 4);
    }

    #[test]
    fn table_lookup_with_concretization() {
        // A symbolic index into a table is concretized; exploration still
        // covers both sides of the following branch.
        let s = explore(
            r#"
        .data
__sym_input: .byte 0
table:       .byte 1, 2, 3, 4
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    andi a1, a1, 3
    la a2, table
    add a2, a2, a1
    lbu a3, 0(a2)
    li a4, 3
    beq a3, a4, found
    li a0, 0
    li a7, 93
    ecall
found:
    li a0, 0
    li a7, 93
    ecall
"#,
        );
        // At least 2 paths (branch directions); concretization may pin the
        // table slot, so the exact count depends on the address constraint.
        assert!(s.paths >= 2);
        assert!(s.max_trail_len >= 2);
    }

    #[test]
    fn error_break_paths_reported() {
        let s = explore(
            r#"
        .data
__sym_input: .byte 0
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    li a2, 7
    bne a1, a2, ok
    ebreak
ok:
    li a0, 0
    li a7, 93
    ecall
"#,
        );
        assert_eq!(s.paths, 2);
        assert_eq!(s.error_paths.len(), 1);
        assert_eq!(s.error_paths[0].exit_code, None);
        assert_eq!(s.error_paths[0].input, vec![7]);
    }

    #[test]
    fn limit_truncates() {
        let elf = Assembler::new().assemble(&compares(4)).unwrap();
        let mut session = Session::builder(Spec::rv32im())
            .binary(&elf)
            .limit(5)
            .build()
            .unwrap();
        let s = session.run_all().unwrap();
        assert_eq!(s.paths, 5);
        assert!(s.truncated);
        assert!(session.is_done());
    }

    #[test]
    fn all_strategies_enumerate_the_same_path_set() {
        let run = |strategy: Box<dyn PathStrategy>| {
            let elf = Assembler::new().assemble(&compares(3)).unwrap();
            Session::builder(Spec::rv32im())
                .binary(&elf)
                .strategy(strategy)
                .build()
                .unwrap()
                .run_all()
                .unwrap()
        };
        let dfs = run(Box::<Dfs>::default());
        let bfs = run(Box::<Bfs>::default());
        let rnd = run(Box::<RandomRestart>::default());
        assert_eq!(dfs.paths, 8);
        assert_eq!(bfs.paths, 8, "bfs misses paths");
        assert_eq!(rnd.paths, 8, "random-restart misses paths");
    }

    #[test]
    fn paths_iterator_is_lazy_and_resumable() {
        let mut session = session_for(&compares(3));
        let first: Vec<PathOutcome> = session.paths().take(3).map(|r| r.unwrap()).collect();
        assert_eq!(first.len(), 3);
        assert_eq!(session.summary().paths, 3);
        assert!(!session.is_done());
        // Draining the rest through run_all completes the same exploration.
        let s = session.run_all().unwrap();
        assert_eq!(s.paths, 8);

        // Chunks of 7 through fresh iterators yield the stream of one
        // uninterrupted drain.
        let whole: Vec<PathOutcome> = session_for(&compares(8))
            .paths()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(whole.len(), 256);
        let mut session = session_for(&compares(8));
        let mut chunked = Vec::new();
        while !session.is_done() {
            chunked.extend(session.paths().take(7).map(|r| r.unwrap()));
        }
        assert_eq!(chunked.len(), whole.len());
        for (i, (a, b)) in whole.iter().zip(&chunked).enumerate() {
            assert_eq!(a.input, b.input, "path {i}");
            assert_eq!(a.exit, b.exit, "path {i}");
            assert_eq!(a.steps, b.steps, "path {i}");
            assert_eq!(a.trail, b.trail, "path {i}");
        }
        let elf = Assembler::new().assemble(&compares(8)).unwrap();
        let cold = Session::builder(Spec::rv32im())
            .binary(&elf)
            .workers(1)
            .build_parallel()
            .unwrap()
            .run_all()
            .unwrap();
        assert_eq!(cold.paths, whole.len() as u64);
    }

    #[test]
    fn failed_path_stays_staged_for_a_retry() {
        // Path 3 (byte 0 >= 100) makes an unknown syscall after two clean
        // paths, whatever models the solver picks.
        let mut session = session_for(
            r#"
        .data
__sym_input: .byte 0, 0
        .text
_start:
    la a0, __sym_input
    li a2, 100
    lbu a1, 0(a0)
    bltu a1, a2, c1
    li a7, 999
    ecall
c1: lbu a1, 1(a0)
    bltu a1, a2, ok
ok:
    li a0, 0
    li a7, 93
    ecall
"#,
        );
        let unknown_syscall = |r: Result<Summary, Error>| {
            matches!(
                r,
                Err(Error::Exec(
                    crate::machine::ExecError::UnknownSyscall { .. }
                ))
            )
        };
        assert!(unknown_syscall(session.run_all()));
        assert!(!session.is_done(), "the frontier is not exhausted");
        let at_failure = session.summary();
        assert_eq!(at_failure.paths, 2);
        // The retry re-executes the staged path: the same error, no new
        // path and no new solver check.
        assert!(unknown_syscall(session.run_all()));
        assert_eq!(session.summary(), at_failure);
        // An iterator that yields the error ends there.
        let mut paths = session.paths();
        assert!(matches!(paths.next(), Some(Err(_))));
        assert!(paths.next().is_none());
        assert!(!session.is_done());
    }

    #[test]
    fn streamed_outcomes_carry_inputs_and_match_summary() {
        let mut session = session_for(SINGLE_COMPARE);
        let outcomes: Vec<PathOutcome> = session.paths().map(|r| r.unwrap()).collect();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(
            outcomes[0].input,
            vec![0, 0, 0, 0],
            "first path is all-zero input"
        );
        let errors: Vec<&PathOutcome> = outcomes.iter().filter(|o| o.is_error()).collect();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].input, vec![42, 0, 0, 0]);
        let s = session.summary();
        assert_eq!(s.paths, 2);
        assert_eq!(s.error_paths[0].input, errors[0].input);
    }

    #[test]
    fn execute_path_exposes_outcome() {
        let mut session = session_for(
            r#"
        .data
__sym_input: .byte 0
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    li a7, 93
    mv a0, a1
    ecall
"#,
        );
        let out = session.execute_path(&[9]).unwrap();
        assert_eq!(out.exit, StepResult::Exited(9));
        assert!(out.steps > 0);
    }

    #[test]
    fn every_path_starts_from_the_loaded_image() {
        let elf = Assembler::new().assemble(&compares(3)).expect("assembles");
        let fresh = || SpecExecutor::new(Spec::rv32im(), &elf, None).expect("sym input");
        let mut tm = TermManager::new();
        let input = [7, 200, 7];
        let expected = fresh()
            .execute_path(&mut tm, &input, 1000, &mut NullObserver)
            .expect("runs");

        let mut exec = fresh();
        let prefix = exec
            .execute_prefix(&mut tm, &[200, 200, 200], 1000, 2)
            .expect("replays");
        assert_eq!(prefix.iter().filter(|e| e.is_branch()).count(), 2);
        for _ in 0..2 {
            let got = exec
                .execute_path(&mut tm, &input, 1000, &mut NullObserver)
                .expect("runs");
            assert_eq!(got.exit, expected.exit);
            assert_eq!(got.steps, expected.steps);
            assert_eq!(got.trail, expected.trail);
            assert_eq!(got.input, expected.input);
        }
    }

    #[test]
    fn builder_rejects_missing_binary_and_zero_limits() {
        let err = Session::builder(Spec::rv32im()).build().unwrap_err();
        assert!(matches!(err, Error::MissingBinary));

        let elf = Assembler::new().assemble(SINGLE_COMPARE).unwrap();
        let err = Session::builder(Spec::rv32im())
            .binary(&elf)
            .limit(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));

        let err = Session::builder(Spec::rv32im())
            .binary(&elf)
            .fuel(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
    }

    #[test]
    fn metrics_leave_results_unchanged() {
        let plain = explore(SINGLE_COMPARE);
        let elf = Assembler::new().assemble(SINGLE_COMPARE).unwrap();
        let registry = std::sync::Arc::new(crate::metrics::MetricsRegistry::new(1));
        let s = Session::builder(Spec::rv32im())
            .binary(&elf)
            .metrics(std::sync::Arc::clone(&registry))
            .build()
            .unwrap()
            .run_all()
            .unwrap();
        assert_eq!(s.paths, plain.paths);
        assert_eq!(s.solver_checks, plain.solver_checks);
        assert_eq!(s.total_steps, plain.total_steps);
        let report = registry.report();
        assert_eq!(report.paths, s.paths);
        assert_eq!(report.queries, s.solver_checks);
    }

    #[test]
    fn sym_input_extent_reaches_the_top_of_the_address_space() {
        // `__sym_input` without a size extends to the end of its segment;
        // a segment ending at (or wrapping past) 2^32 must not overflow.
        use binsym_elf::{Segment, Symbol};
        for (len, expect) in [(16usize, 8u32), (32, 24)] {
            let elf = ElfFile {
                entry: 0,
                segments: vec![Segment {
                    vaddr: 0xFFFF_FFF0,
                    data: vec![0; len],
                    flags: 0,
                }],
                symbols: vec![Symbol {
                    name: SYM_INPUT_SYMBOL.to_string(),
                    value: 0xFFFF_FFF8,
                    size: 0,
                }],
            };
            assert_eq!(
                find_sym_input(&elf, None).unwrap(),
                (0xFFFF_FFF8, expect),
                "{len}-byte segment"
            );
        }
    }

    #[test]
    fn observer_sees_steps_branches_paths_and_queries() {
        let counts = Rc::new(RefCell::new(CountingObserver::new()));
        let elf = Assembler::new().assemble(SINGLE_COMPARE).unwrap();
        let s = Session::builder(Spec::rv32im())
            .binary(&elf)
            .observer(Rc::clone(&counts))
            .build()
            .unwrap()
            .run_all()
            .unwrap();
        let c = *counts.borrow();
        assert_eq!(c.paths, s.paths);
        assert_eq!(c.steps, s.total_steps);
        assert_eq!(c.queries, s.solver_checks);
        assert_eq!(c.branches, 2, "one symbolic branch per path");
        assert_eq!(c.sat_queries, 1, "one feasible flip");

        // The summary counts every solver check, at every point of a drain
        // in chunks.
        let counts = Rc::new(RefCell::new(CountingObserver::new()));
        let elf = Assembler::new().assemble(&compares(8)).unwrap();
        let mut session = Session::builder(Spec::rv32im())
            .binary(&elf)
            .observer(Rc::clone(&counts))
            .build()
            .unwrap();
        while !session.is_done() {
            for r in session.paths().take(7) {
                r.unwrap();
            }
            let (s, c) = (session.summary(), *counts.borrow());
            assert_eq!(c.queries, s.solver_checks, "after {} paths", s.paths);
            assert_eq!(c.paths, s.paths);
            assert_eq!(c.steps, s.total_steps);
        }
        let s = session.summary();
        assert_eq!(s.paths, 256);
        assert_eq!(s.solver_checks, 255, "one feasible flip per inner node");
        assert_eq!(counts.borrow().sat_queries, 255);
    }

    #[test]
    fn execute_path_bypasses_the_observer() {
        // Replays must not corrupt path-scoped observer state: counters
        // stay consistent with the *explored* paths only.
        let counts = Rc::new(RefCell::new(CountingObserver::new()));
        let elf = Assembler::new().assemble(SINGLE_COMPARE).unwrap();
        let mut session = Session::builder(Spec::rv32im())
            .binary(&elf)
            .observer(Rc::clone(&counts))
            .build()
            .unwrap();
        session.execute_path(&[1, 2, 3, 4]).unwrap();
        assert_eq!(counts.borrow().steps, 0, "replay must not be observed");
        let s = session.run_all().unwrap();
        assert_eq!(counts.borrow().steps, s.total_steps);
        assert_eq!(counts.borrow().paths, s.paths);
    }
}
