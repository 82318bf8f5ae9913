//! Work-stealing parallel exploration: [`ParallelSession`].
//!
//! The sequential [`crate::Session`] is bounded by one core: one frontier,
//! one term manager, one incremental solver. `ParallelSession` shards the
//! same exploration across N worker threads **without** making any of the
//! engine state `Sync`: the unit of work shipped between threads is a
//! plain-data [`Prescription`] (see [`crate::prescribe`]), and each worker
//! owns a complete engine — its own [`TermManager`], solver contexts, and
//! [`PathExecutor`] — on which any prescription can be replayed from
//! scratch. The flip query, its discharge, and the path step are the same
//! code the sequential session runs; only the solver context differs.
//!
//! # Worker topology
//!
//! Every worker has a shard-local frontier (a [`PrescriptionStrategy`])
//! guarded by its own lock. A worker pushes the prescriptions spawned by
//! its own paths onto its own shard and pops from it LIFO-deep (under the
//! default depth-first policy); when its shard runs dry it *steals* from a
//! victim's shard cold end — the shallowest pending flip, i.e. the largest
//! unexplored subtree. Exploration terminates when every shard is empty
//! and no worker holds in-flight work.
//!
//! # Determinism
//!
//! Replaying a prescription is a pure function of the prescription itself:
//! the worker resets its term manager (restoring fresh handle numbering,
//! see [`TermManager::reset`]) and solves the flip query in a brand-new
//! [`Solver`]. Scheduling — worker count, steal
//! order, shard policy — therefore cannot change any individual result,
//! only which worker computes it. The merged output is sorted by
//! [`PathId`], which reproduces the sequential depth-first discovery
//! order, so the final [`Summary`] (and the [`PathRecord`] stream) is
//! byte-identical across 1/2/4/8 workers and across repeated runs, and its
//! path ordering — the sequence of branch-decision fingerprints — is
//! identical to the sequential session's discovery order. (Witness
//! *inputs* for a path are whichever model the solver returns; the
//! sequential session's one incremental solver may pick a different,
//! equally valid model than the fresh replay solver.)
//!
//! The price of replay is re-executing each parent prefix once per spawned
//! flip (bounded by the early-stopping
//! [`PathExecutor::execute_prefix`]) and forgoing cross-query solver
//! incrementality; the parallel speedup has to buy that back (the hunt
//! benchmark's `par-cold` and `par-warm` workloads measure both).
//! [`crate::SessionBuilder::warm_start`] claws most of that price back
//! *without* giving up determinism: each worker keeps its most recently
//! used parent trails and one retained prefix context, so consecutive
//! prescriptions from the same subtree skip the prefix re-execution and
//! reuse the prefix's bit-blast, solving each flip on a disposable clone
//! of it — bit-identical results, cheaper replays (see [`crate::warm`]
//! and ablation 3).
//!
//! # Canonical truncation
//!
//! A truncated run ([`crate::SessionBuilder::limit`]) is schedule-
//! independent too: it returns the `limit` **lowest-`PathId`** paths of the
//! full exploration — i.e. the exact prefix an unbounded run's merged
//! stream would start with — not the first `limit` paths that happened to
//! *finish*. Workers over-collect under a shrinking watermark (the
//! `limit`-th smallest materialized id so far): a prescription whose id
//! already exceeds the watermark can never enter the final prefix — and,
//! parents ordering before descendants, neither can anything it would
//! spawn — so it is pruned without replay, and the merged, `PathId`-sorted
//! record list is trimmed at the `limit`-th path. Query records ride the
//! same trim, so summaries and records of truncated runs are byte-identical
//! across 1..N workers, repeated runs, and shard policies.
//!
//! Replay errors obey the same cut: a truncated run keeps exploring past
//! an error and decides at merge time — the error surfaces iff its id
//! sorts before the `limit`-th path (i.e. the sequential engine would
//! have hit it before stopping); an error beyond the cut belongs to work
//! the truncated exploration never owed anyone and is dropped. Stopping
//! at the first error observed would make the outcome a race.
//!
//! # Commit ledger and checkpoints
//!
//! One ledger records every run's committed *and* pending work: the
//! records, and a [`PathId`]-ordered map of every prescription seeded or
//! spawned but not yet committed or pruned — queued in a shard, in flight
//! on a worker, or failed. The seeds (the root, or a resumed checkpoint's
//! pending prescriptions) enter the map before any worker starts. A
//! worker's commit appends its record, removes its own id from the map and
//! inserts the children it spawns (then pushes them to its shard), all
//! under the one ledger lock; a pruned prescription leaves the map under it
//! too, and a failed one simply stays. The merged output is the ledger's
//! records, sorted.
//!
//! A checkpoint ([`crate::SessionBuilder::checkpoint`]) is therefore the
//! result-shaping parameters, the records, the pending map and the
//! truncation watermark, written under the ledger lock alone — a
//! consistent cut, with no shard state in it. A resume
//! ([`crate::SessionBuilder::resume`]) always spreads the pending map over
//! its own shards in contiguous `PathId` chunks, whatever the worker count
//! and shard policy of the interrupted run; replay purity and the
//! canonical merge make its records byte-identical to an uninterrupted
//! run's. The locks nest one way only: ledger → {watermark, shard}.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use binsym_smt::{SatResult, Solver, TermManager};

use crate::backend::{discharge, StaticGate};
use crate::error::Error;
use crate::memory::AddressPolicyKind;
use crate::metrics::{Instruments, Phase};
use crate::observe::{CheckpointEvent, NullObserver, Observer};
use crate::persist::{decode_seq, encode_seq, section, Dec, Document, Enc, PersistError, Wire};
use crate::prescribe::{PathId, PathRecord, Prescription};
use crate::session::{materialize, PathExecutor, Summary};
use crate::strategy::PrescriptionStrategy;
use crate::warm::WarmCache;

/// Factory producing one [`PathExecutor`] per worker thread.
pub type ExecutorFactory = Arc<dyn Fn() -> Result<Box<dyn PathExecutor>, Error> + Send + Sync>;
/// Factory producing one [`Observer`] per worker thread (argument: worker
/// index).
pub type ObserverFactory = Arc<dyn Fn(usize) -> Box<dyn Observer> + Send + Sync>;
/// Factory producing one shard-local frontier policy per worker thread
/// (argument: worker index).
pub type ShardStrategyFactory = Arc<dyn Fn(usize) -> Box<dyn PrescriptionStrategy> + Send + Sync>;

const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Prescription>();
    assert_send::<PathRecord>();
    assert_send::<Error>();
    assert_send::<TermManager>();
};

/// Result of replaying one prescription, as recorded by a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PrescriptionRecord {
    pub(crate) id: PathId,
    /// `Some` when a feasibility query was discharged (every non-root
    /// prescription), with its result.
    pub(crate) query: Option<SatResult>,
    /// The materialized path, when the flip was feasible.
    pub(crate) path: Option<PathRecord>,
}

impl Wire for PrescriptionRecord {
    fn encode(&self, enc: &mut Enc) {
        self.id.encode(enc);
        self.query.encode(enc);
        self.path.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        Ok(PrescriptionRecord {
            id: PathId::decode(dec)?,
            query: Option::decode(dec)?,
            path: Option::decode(dec)?,
        })
    }
}

/// What the session builder asked the run to persist: where to write
/// checkpoints (and how often, in merged paths) and/or which checkpoint to
/// resume from. Threaded from [`crate::SessionBuilder::checkpoint`] /
/// [`crate::SessionBuilder::resume`].
#[derive(Debug, Clone, Default)]
pub(crate) struct PersistPlan {
    pub(crate) checkpoint: Option<(PathBuf, u64)>,
    pub(crate) resume: Option<PathBuf>,
}

/// The run parameters a checkpoint is only valid under. All three shape
/// the result *content*, so a resume validates them strictly; worker count
/// and shard policy shape scheduling only and are not recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CheckpointMeta {
    input_len: u32,
    fuel: u64,
    limit: Option<u64>,
}

impl Wire for CheckpointMeta {
    fn encode(&self, enc: &mut Enc) {
        self.input_len.encode(enc);
        self.fuel.encode(enc);
        self.limit.encode(enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        Ok(CheckpointMeta {
            input_len: u32::decode(dec)?,
            fuel: u64::decode(dec)?,
            limit: Option::decode(dec)?,
        })
    }
}

/// The single record of a run's committed and pending work, guarded by one
/// mutex that doubles as the **commit lock**. Every prescription of the run
/// is in exactly one place: a committed record, the pending map, or gone
/// (pruned past the truncation watermark). Each move between them happens
/// under this lock, so a checkpoint written under it alone is a consistent
/// cut.
#[derive(Default)]
struct Ledger {
    records: Vec<PrescriptionRecord>,
    /// Every seeded or spawned prescription not yet committed or pruned:
    /// queued in a shard, in flight on a worker, or failed. A failed
    /// replay stays here, so a resume re-replays it and — replay being
    /// pure — re-derives the same typed [`Error`] without serializing it.
    pending: BTreeMap<PathId, Prescription>,
    /// Materialized paths committed so far (including restored ones).
    paths: u64,
    /// Paths committed since the last checkpoint write.
    since_write: u64,
}

/// Where and how often a run writes checkpoints.
struct CheckpointPlan {
    path: PathBuf,
    /// Write a checkpoint every this many newly committed paths.
    every: u64,
    meta: CheckpointMeta,
    /// Address policy of the run; persisted in its own section and
    /// validated strictly on resume (it shapes every trail, so a
    /// checkpoint is meaningless under a different policy).
    policy: AddressPolicyKind,
}

/// Everything a resume checkpoint seeds a run with.
struct ResumeSeed {
    records: Vec<PrescriptionRecord>,
    pending: Vec<Prescription>,
    watermark_ids: Vec<PathId>,
}

/// Loads and validates a checkpoint. Every failure — I/O, bad magic,
/// version mismatch, truncation, or a checkpoint taken under different
/// result-shaping parameters — is a typed [`Error::Persist`], never a
/// panic.
fn load_checkpoint(
    path: &Path,
    expect: &CheckpointMeta,
    expect_policy: AddressPolicyKind,
) -> Result<ResumeSeed, Error> {
    let doc = Document::read(path)?;
    let meta: CheckpointMeta = crate::persist::decode_one(doc.require(section::META)?)?;
    let policy: AddressPolicyKind = crate::persist::decode_one(doc.require(section::POLICY)?)?;
    for (differs, what) in [
        (
            policy != expect_policy,
            "checkpoint address policy differs from this session's",
        ),
        (
            meta.input_len != expect.input_len,
            "checkpoint input_len differs from this session's",
        ),
        (
            meta.fuel != expect.fuel,
            "checkpoint fuel differs from this session's",
        ),
        (
            meta.limit != expect.limit,
            "checkpoint path limit differs from this session's",
        ),
    ] {
        if differs {
            return Err(PersistError::Mismatch { what }.into());
        }
    }
    let records: Vec<PrescriptionRecord> = decode_seq(doc.require(section::RECORDS)?)?;
    // Every executor stops a path at `fuel` steps, so a restored path that
    // ran longer is corrupt — and its step count could overflow the merged
    // summary's total.
    if records
        .iter()
        .filter_map(|r| r.path.as_ref())
        .any(|path| path.steps > meta.fuel)
    {
        return Err(PersistError::Corrupt("restored path ran past the checkpoint's fuel").into());
    }
    Ok(ResumeSeed {
        records,
        pending: decode_seq(doc.require(section::PENDING)?)?,
        watermark_ids: decode_seq(doc.require(section::WATERMARK)?)?,
    })
}

/// Writes one atomic checkpoint of the run from the held ledger: the
/// committed records, every pending prescription in [`PathId`] order, and
/// the truncation watermark. The caller holds the ledger (the commit lock)
/// and nothing else; the watermark lock is taken inside it, in the run's
/// one lock order, ledger → {watermark, shard}.
fn write_checkpoint(
    ck: &CheckpointPlan,
    ledger: &Ledger,
    watermark: Option<&Mutex<Watermark>>,
) -> Result<u64, PersistError> {
    let mut watermark_ids: Vec<PathId> = match watermark {
        Some(w) => w
            .lock()
            .expect("watermark lock")
            .heap
            .iter()
            .cloned()
            .collect(),
        None => Vec::new(),
    };
    // Heap iteration order is internal; sort so equal run states write
    // byte-identical checkpoints.
    watermark_ids.sort();
    // `encode_seq`'s layout, straight from the map: no copy of the bag.
    let mut pending = Enc::new();
    pending.u64(ledger.pending.len() as u64);
    for p in ledger.pending.values() {
        p.encode(&mut pending);
    }

    let mut doc = Document::new();
    doc.push(section::META, crate::persist::encode_one(&ck.meta));
    doc.push(section::POLICY, crate::persist::encode_one(&ck.policy));
    doc.push(section::RECORDS, encode_seq(&ledger.records));
    doc.push(section::PENDING, pending.into_bytes());
    doc.push(section::WATERMARK, encode_seq(&watermark_ids));
    doc.write_atomic(&ck.path)?;
    Ok(ledger.paths)
}

/// Spreads the pending map across the shards in contiguous chunks of its
/// [`PathId`] order: that order is depth-first discovery order, so
/// contiguous chunks are (unions of) subtrees — the same locality the live
/// run's work-stealing maintains. Placement only shapes scheduling; the
/// merge stays canonical regardless.
fn distribute(frontier: &Frontier, pending: &BTreeMap<PathId, Prescription>) {
    let chunk = pending.len().div_ceil(frontier.shards.len()).max(1);
    let mut bag = pending.values().cloned();
    for shard in 0..frontier.shards.len() {
        frontier.push_batch(shard, bag.by_ref().take(chunk).collect());
    }
}

/// The shared work-stealing frontier.
struct Frontier {
    shards: Vec<Mutex<Box<dyn PrescriptionStrategy>>>,
    /// Prescriptions sitting in shards.
    queued: AtomicUsize,
    /// Prescriptions taken but not yet fully processed (their spawns are
    /// not pushed yet), so an empty `queued` does not imply termination.
    in_flight: AtomicUsize,
    /// Cooperative stop (error or path limit reached).
    stop: AtomicBool,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

impl Frontier {
    fn new(shards: Vec<Box<dyn PrescriptionStrategy>>) -> Self {
        Frontier {
            shards: shards.into_iter().map(Mutex::new).collect(),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
        }
    }

    fn push_batch(&self, shard: usize, batch: Vec<Prescription>) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len();
        {
            let mut s = self.shards[shard].lock().expect("shard lock");
            for p in batch {
                s.push(p);
            }
        }
        self.queued.fetch_add(n, Ordering::SeqCst);
        if n == 1 {
            self.idle_cv.notify_one();
        } else {
            self.idle_cv.notify_all();
        }
    }

    /// Blocks until a prescription is available (own shard first, then
    /// stealing round-robin), or until exploration is over.
    fn acquire(&self, me: usize) -> Option<Prescription> {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            let own = self.shards[me].lock().expect("shard lock").pop();
            let taken = own.or_else(|| {
                (1..self.shards.len()).find_map(|k| {
                    let victim = (me + k) % self.shards.len();
                    self.shards[victim].lock().expect("shard lock").steal()
                })
            });
            if let Some(p) = taken {
                // In flight before it leaves `queued`: no instant has
                // both counters at zero while `p` is live.
                self.in_flight.fetch_add(1, Ordering::SeqCst);
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(p);
            }
            if self.queued.load(Ordering::SeqCst) == 0 && self.in_flight.load(Ordering::SeqCst) == 0
            {
                self.idle_cv.notify_all();
                return None;
            }
            // Somebody is still working and may spawn more; doze briefly.
            // The timeout bounds any lost-wakeup window.
            let guard = self.idle_lock.lock().expect("idle lock");
            let _ = self
                .idle_cv
                .wait_timeout(guard, Duration::from_millis(1))
                .expect("idle wait");
        }
    }

    fn release(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1
            && self.queued.load(Ordering::SeqCst) == 0
        {
            // Possibly the last unit of work: wake idlers so they can exit.
            self.idle_cv.notify_all();
        }
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.idle_cv.notify_all();
    }
}

/// The `limit` lowest materialized [`PathId`]s so far, as a bounded
/// max-heap. Once full, its maximum is a *watermark*: any prescription
/// whose id exceeds it can never enter the final truncated prefix (and,
/// parents ordering before descendants, neither can its whole subtree), so
/// workers prune such work without replaying it. The watermark only ever
/// tightens, which makes pruning canonical: everything below the final
/// watermark is guaranteed to be materialized on every schedule.
struct Watermark {
    limit: usize,
    heap: std::collections::BinaryHeap<PathId>,
}

impl Watermark {
    fn new(limit: u64) -> Self {
        Watermark {
            limit: usize::try_from(limit).unwrap_or(usize::MAX),
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// Records a materialized path id.
    fn insert(&mut self, id: PathId) {
        self.heap.push(id);
        if self.heap.len() > self.limit {
            self.heap.pop();
        }
    }

    /// True when `id` can no longer enter the `limit` lowest ids.
    fn prunes(&self, id: &PathId) -> bool {
        self.heap.len() >= self.limit && self.heap.peek().is_some_and(|max| id > max)
    }
}

/// Shared run state beyond the frontier.
struct RunState {
    frontier: Frontier,
    /// Canonical truncation state; `None` for unbounded runs.
    watermark: Option<Mutex<Watermark>>,
    /// First error in canonical order: workers keep the error whose
    /// prescription id sorts smallest, so the reported failure is
    /// schedule-independent.
    error: Mutex<Option<(PathId, Error)>>,
    /// Committed records and pending work; its lock is the commit lock.
    ledger: Mutex<Ledger>,
    /// Checkpoint writing; `None` when no checkpoint path is configured.
    checkpoint: Option<CheckpointPlan>,
}

impl RunState {
    /// Records a replay error, keeping the canonically-first one.
    ///
    /// Unbounded runs stop immediately — the run is lost either way. A
    /// *truncated* run keeps exploring: whether this error lies inside the
    /// canonical `limit`-prefix (and must surface) or beyond it (and must
    /// be dropped, exactly as the sequential engine would never have
    /// reached it) is only decidable once the watermark has converged, so
    /// stopping here would make the outcome schedule-dependent.
    fn record_error(&self, id: PathId, e: Error) {
        // A root-id error (worker startup, root-prescription replay) sorts
        // before any cut, so it surfaces on every schedule — stopping
        // early is safe and spares the surviving workers a doomed
        // exploration.
        let always_surfaces = self.watermark.is_none() || id == PathId::root();
        let mut slot = self.error.lock().expect("error lock");
        match &*slot {
            Some((winner, _)) if *winner <= id => {}
            _ => *slot = Some((id, e)),
        }
        if always_surfaces {
            self.frontier.request_stop();
        }
    }

    /// True when `id` is already past the truncation watermark.
    fn pruned(&self, id: &PathId) -> bool {
        self.watermark
            .as_ref()
            .is_some_and(|w| w.lock().expect("watermark lock").prunes(id))
    }

    /// Commits one replayed prescription under the ledger lock: its record
    /// lands, its id leaves the pending map, and the children of a
    /// materialized path — minus those the tightened watermark already
    /// rules out — enter the map and `shard`. The children are pushed
    /// before the worker's in-flight count is released, so the
    /// termination check never sees a window with neither queued nor
    /// in-flight work. Every `every`-th committed path also writes the
    /// checkpoint, still under the lock; the committed path count is
    /// returned when it does.
    fn commit(
        &self,
        shard: usize,
        mut record: PrescriptionRecord,
        materialized: Option<(PathRecord, Vec<Prescription>)>,
    ) -> Result<Option<u64>, PersistError> {
        let mut ledger = self.ledger.lock().expect("ledger lock");
        ledger.pending.remove(&record.id);
        if let Some((path, mut spawned)) = materialized {
            if let Some(w) = &self.watermark {
                let mut w = w.lock().expect("watermark lock");
                w.insert(record.id.clone());
                spawned.retain(|s| !w.prunes(&s.id));
            }
            ledger
                .pending
                .extend(spawned.iter().map(|s| (s.id.clone(), s.clone())));
            self.frontier.push_batch(shard, spawned);
            record.path = Some(path);
            ledger.paths += 1;
            ledger.since_write += 1;
        }
        ledger.records.push(record);
        match &self.checkpoint {
            Some(ck) if ledger.since_write >= ck.every => {
                ledger.since_write = 0;
                write_checkpoint(ck, &ledger, self.watermark.as_ref()).map(Some)
            }
            _ => Ok(None),
        }
    }
}

/// A sharded, work-stealing exploration of one binary: N worker threads,
/// each owning a complete engine, cooperating through replayable
/// [`Prescription`]s. Built by [`crate::SessionBuilder::build_parallel`];
/// see the [module docs](self) for topology and determinism guarantees.
pub struct ParallelSession {
    workers: usize,
    executor_factory: ExecutorFactory,
    observer_factory: Option<ObserverFactory>,
    shard_strategy: ShardStrategyFactory,
    fuel: u64,
    limit: Option<u64>,
    input_len: u32,
    /// Per-worker warm-start cache bound; `None` = cache off (the
    /// default). See [`crate::warm`] — affects wall time only, never
    /// results.
    warm_capacity: Option<usize>,
    /// The word-level static-analysis gate screening flip queries before
    /// any bit-blast (on by default). Affects wall time only, never
    /// merged records.
    gate: StaticGate,
    /// Metrics/trace wiring ([`crate::SessionBuilder::metrics`],
    /// `::trace`) on track 0; each worker re-points it at its own track.
    /// Like the warm cache and the gate, instrumentation affects wall time
    /// only, never merged records.
    instr: Instruments,
    /// Checkpoint/resume wiring ([`crate::SessionBuilder::checkpoint`],
    /// `::resume`). Affects wall time and on-disk artifacts only, never
    /// merged records.
    persist: PersistPlan,
    /// The address-concretization policy every worker executor resolves
    /// symbolic memory addresses under (learned from the factory's probe
    /// executor). Stamped into every prescription and persisted with
    /// checkpoints.
    policy: AddressPolicyKind,
    strategy_name: &'static str,
    done: bool,
    summary: Summary,
    records: Vec<PathRecord>,
}

impl std::fmt::Debug for ParallelSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSession")
            .field("workers", &self.workers)
            .field("strategy", &self.strategy_name)
            .field("warm_start", &self.warm_start())
            .field("paths", &self.summary.paths)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl ParallelSession {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        workers: usize,
        executor_factory: ExecutorFactory,
        observer_factory: Option<ObserverFactory>,
        shard_strategy: ShardStrategyFactory,
        fuel: u64,
        limit: Option<u64>,
        input_len: u32,
        warm_capacity: Option<usize>,
        gate: StaticGate,
        instr: Instruments,
        persist: PersistPlan,
        policy: AddressPolicyKind,
    ) -> Self {
        let strategy_name = shard_strategy(0).name();
        ParallelSession {
            workers,
            executor_factory,
            observer_factory,
            shard_strategy,
            fuel,
            limit,
            input_len,
            warm_capacity,
            gate,
            instr,
            persist,
            policy,
            strategy_name,
            done: false,
            summary: Summary::default(),
            records: Vec::new(),
        }
    }

    /// The result-shaping parameters a checkpoint of this session records.
    fn checkpoint_meta(&self) -> CheckpointMeta {
        CheckpointMeta {
            input_len: self.input_len,
            fuel: self.fuel,
            limit: self.limit,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Length of the symbolic input region in bytes.
    pub fn input_len(&self) -> u32 {
        self.input_len
    }

    /// The address-concretization policy the worker executors run under.
    pub fn policy(&self) -> AddressPolicyKind {
        self.policy
    }

    /// Name of the shard-local path-selection policy.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy_name
    }

    /// True when the deterministic warm start is enabled
    /// ([`crate::SessionBuilder::warm_start`]).
    pub fn warm_start(&self) -> bool {
        self.warm_capacity.is_some()
    }

    /// True once [`ParallelSession::run_all`] has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Totals of the completed exploration (empty before
    /// [`ParallelSession::run_all`]).
    pub fn summary(&self) -> Summary {
        self.summary.clone()
    }

    /// The deterministic merged event stream: one record per materialized
    /// path, sorted by [`PathId`] — i.e. in sequential depth-first
    /// discovery order, independent of worker count and scheduling. Empty
    /// before [`ParallelSession::run_all`].
    pub fn records(&self) -> &[PathRecord] {
        &self.records
    }

    /// Runs the sharded exploration to completion (or to the path limit)
    /// from the root — or, when resuming, from the checkpoint's pending
    /// prescriptions — and returns the merged [`Summary`]. After a
    /// successful run, subsequent calls return the cached summary without
    /// re-exploring; a *failed* run is never cached — calling again
    /// re-explores and deterministically reproduces the error.
    ///
    /// # Errors
    /// Returns the canonically-first [`Error`] if any worker fails to
    /// replay a prescription (decode error, unknown syscall, fuel
    /// exhaustion).
    pub fn run_all(&mut self) -> Result<Summary, Error> {
        if self.done {
            return Ok(self.summary());
        }
        let shards: Vec<Box<dyn PrescriptionStrategy>> = (0..self.workers)
            .map(|i| (self.shard_strategy)(i))
            .collect();
        let mut state = RunState {
            frontier: Frontier::new(shards),
            watermark: self.limit.map(|l| Mutex::new(Watermark::new(l))),
            error: Mutex::new(None),
            ledger: Mutex::new(Ledger::default()),
            checkpoint: self
                .persist
                .checkpoint
                .clone()
                .map(|(path, every)| CheckpointPlan {
                    path,
                    every,
                    meta: self.checkpoint_meta(),
                    policy: self.policy,
                }),
        };

        // The coordinator's own observer (one extra factory draw, index
        // `workers`) reports resume seeding and the final drain checkpoint.
        // Only materialized when persistence is configured, so plain runs
        // see no extra factory call.
        let persist_active = self.persist.checkpoint.is_some() || self.persist.resume.is_some();
        let mut coord_observer: Box<dyn Observer> = if persist_active {
            match &self.observer_factory {
                Some(f) => f(self.workers),
                None => Box::new(NullObserver),
            }
        } else {
            Box::new(NullObserver)
        };

        // Seed the ledger before any worker starts: from the checkpoint
        // when resuming (its records stay in the ledger, so periodic
        // checkpoints of a resumed run carry the full record set, not a
        // delta), from the root otherwise. The pending prescriptions are
        // redistributed whatever the worker count and shard policy were.
        let ledger = state.ledger.get_mut().expect("ledger lock");
        let seeds = match &self.persist.resume {
            Some(resume_path) => {
                let loaded = load_checkpoint(resume_path, &self.checkpoint_meta(), self.policy)?;
                if let Some(w) = &state.watermark {
                    let mut w = w.lock().expect("watermark lock");
                    for id in loaded.watermark_ids {
                        w.insert(id);
                    }
                }
                coord_observer.on_checkpoint(CheckpointEvent::Resumed {
                    records: loaded.records.len() as u64,
                });
                ledger.paths = loaded.records.iter().filter(|r| r.path.is_some()).count() as u64;
                ledger.records = loaded.records;
                loaded.pending
            }
            None => vec![Prescription::root(
                vec![0u8; self.input_len as usize],
                self.policy,
            )],
        };
        ledger
            .pending
            .extend(seeds.into_iter().map(|p| (p.id.clone(), p)));
        distribute(&state.frontier, &ledger.pending);

        // One `Instruments` handle per worker, all sharing the registry and
        // sink but each stamping its own track (worker index); track
        // `self.workers` is reserved for the coordinator's merge phase.
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers);
            for idx in 0..self.workers {
                let state = &state;
                let executor_factory = Arc::clone(&self.executor_factory);
                let observer_factory = self.observer_factory.clone();
                let fuel = self.fuel;
                let warm_capacity = self.warm_capacity;
                let gate = self.gate;
                let instr = self.instr.for_track(idx as u32);
                handles.push(scope.spawn(move || {
                    worker_main(
                        idx,
                        state,
                        &*executor_factory,
                        observer_factory.as_deref(),
                        fuel,
                        warm_capacity,
                        gate,
                        instr,
                    )
                }));
            }
            // Join each worker rather than let `scope` wait: a dropped
            // handle detaches its thread, which may still be exiting — and
            // holding its malloc arena — when the next run spawns workers.
            for h in handles {
                h.join().expect("worker panicked");
            }
        });

        let mut error = state.error.lock().expect("error lock").take();
        if self.limit.is_none() {
            if let Some((_, e)) = error.take() {
                // A failed run is not cached (`done` stays false): retrying
                // re-explores and, replay being deterministic, reproduces
                // the same error instead of masking it behind an empty
                // summary. The last periodic checkpoint stays on disk: the
                // failed prescription is still pending in it, so a resume
                // deterministically re-derives this error.
                return Err(e);
            }
        }

        // Drain checkpoint: one final write after the workers settle, so a
        // finished (or truncated) run leaves a checkpoint a resume turns
        // into the identical merged output without re-exploring.
        if let Some(ck) = &state.checkpoint {
            let ledger = state.ledger.lock().expect("ledger lock");
            let wrote = write_checkpoint(ck, &ledger, state.watermark.as_ref());
            drop(ledger);
            match wrote {
                Ok(paths) => coord_observer.on_checkpoint(CheckpointEvent::Written { paths }),
                Err(e) => return Err(Error::Persist(e)),
            }
        }

        // Deterministic merge: canonical (sequential depth-first) order.
        // Timed on the coordinator track (`self.workers`) so the trace
        // shows the sequential tail after the worker tracks go quiet.
        let merge_instr = self.instr.for_track(self.workers as u32);
        let merge_started = merge_instr.begin(Phase::Merge);
        let mut all = state.ledger.into_inner().expect("ledger lock").records;
        all.sort_by(|a, b| a.id.cmp(&b.id));
        // A checkpoint is a consistent cut, so RECORDS and PENDING never
        // share an id; a hand-made one might. Replay purity makes equal-id
        // records byte-identical, so dropping duplicates is canonical.
        all.dedup_by(|a, b| a.id == b.id);

        // Canonical truncation: workers over-collected under the shrinking
        // watermark; keep exactly the `limit` lowest-id paths — the prefix
        // an unbounded run's merged stream starts with — and the query
        // records up to and including the last kept path. Records past the
        // cut (racers and their queries) are schedule-dependent and must
        // not surface.
        let mut truncated = false;
        if let Some(limit) = self.limit {
            let mut paths = 0u64;
            let mut cut = all.len();
            let mut cut_id = None;
            for (i, rec) in all.iter().enumerate() {
                if rec.path.is_some() {
                    paths += 1;
                    if paths == limit {
                        cut = i + 1;
                        cut_id = Some(&rec.id);
                        break;
                    }
                }
            }
            // A replay error surfaces iff the sequential engine would have
            // hit it before its `limit`-th path: its id sorts before the
            // cut (or the limit was never reached). Every prescription
            // below the final watermark is processed on every schedule, so
            // this decision — and the canonically-first error it returns —
            // is schedule-independent. Errors beyond the cut belong to
            // work the truncated exploration never owed anyone.
            if let Some((eid, e)) = error.take() {
                let surfaces = match cut_id {
                    None => true,
                    Some(cid) => eid < *cid,
                };
                if surfaces {
                    // Close the merge span before bailing so traced runs
                    // keep every `B` event balanced even on error.
                    merge_instr.finish(merge_started, Phase::Merge, &mut NullObserver);
                    return Err(e);
                }
            }
            truncated = paths >= limit;
            all.truncate(cut);
        }
        self.done = true;

        let mut summary = Summary {
            truncated,
            ..Summary::default()
        };
        let mut records = Vec::new();
        for rec in all {
            if rec.query.is_some() {
                summary.solver_checks += 1;
            }
            if let Some(path) = rec.path {
                summary.add_path(&path);
                records.push(path);
            }
        }
        self.summary = summary;
        self.records = records;
        merge_instr.finish(merge_started, Phase::Merge, &mut NullObserver);
        Ok(self.summary())
    }
}

/// One worker: pull prescriptions, replay each on the worker's own engine
/// in a fresh solver context (or through the worker's warm-start cache),
/// and commit each result — record and spawned follow-up work — to the
/// ledger.
#[allow(clippy::too_many_arguments)]
fn worker_main(
    idx: usize,
    state: &RunState,
    executor_factory: &(dyn Fn() -> Result<Box<dyn PathExecutor>, Error> + Send + Sync),
    observer_factory: Option<&(dyn Fn(usize) -> Box<dyn Observer> + Send + Sync)>,
    fuel: u64,
    warm_capacity: Option<usize>,
    gate: StaticGate,
    instr: Instruments,
) {
    let mut executor = match executor_factory() {
        Ok(e) => e,
        Err(e) => {
            state.record_error(PathId::root(), e);
            return;
        }
    };
    let mut observer: Box<dyn Observer> = match observer_factory {
        Some(f) => f(idx),
        None => Box::new(NullObserver),
    };
    let mut tm = TermManager::new();
    let mut warm = warm_capacity.map(WarmCache::new);

    while let Some(p) = state.frontier.acquire(idx) {
        // Balance the frontier's in-flight count on every exit from this
        // iteration — including an unwind out of user code (executor,
        // solver, or observer panics). Without this, a panicking worker
        // would leave `in_flight` elevated and the surviving workers would
        // doze forever in `acquire` while the main thread blocks joining.
        let _checked_in = InFlightGuard(&state.frontier);
        // Canonical truncation: ids past the watermark can never enter the
        // final `limit`-lowest prefix, and neither can their descendants —
        // skip the replay entirely, recording nothing. `pruned` has
        // dropped the watermark guard before the ledger lock is taken, so
        // the lock order stays ledger → {watermark, shard}.
        if state.pruned(&p.id) {
            state
                .ledger
                .lock()
                .expect("ledger lock")
                .pending
                .remove(&p.id);
            continue;
        }
        // A fresh engine context per prescription: reset handle numbering
        // and solve in a brand-new solver — or, with warm start on, in a
        // cached prefix context whose answers are bit-identical to the
        // fresh one (see `crate::warm`). Either way the replay is a pure
        // function of the prescription (schedule-independent results).
        tm.reset();
        let outcome = replay(
            &mut *executor,
            &mut tm,
            warm.as_mut(),
            &mut *observer,
            &p,
            fuel,
            gate,
            &instr,
        );
        let (query, materialized) = match outcome {
            Ok(replayed) => replayed,
            Err(e) => {
                // The failed prescription stays in the ledger's pending
                // map. A truncated run explores on: the erroring
                // prescription contributes no record and spawns nothing,
                // and whether the error surfaces is decided canonically at
                // merge time.
                let stopping = state.watermark.is_none();
                state.record_error(p.id, e);
                if stopping {
                    break;
                }
                continue;
            }
        };
        let record = PrescriptionRecord {
            id: p.id,
            query,
            path: None,
        };
        match state.commit(idx, record, materialized) {
            Ok(None) => {}
            // Fired outside the lock: a sibling may replace the file
            // mid-event, which is fine — every written checkpoint is a
            // consistent cut.
            Ok(Some(paths)) => observer.on_checkpoint(CheckpointEvent::Written { paths }),
            Err(e) => {
                // A failed checkpoint write is fatal on every schedule: it
                // sorts as a root-id error, which always surfaces and
                // stops the run.
                state.record_error(PathId::root(), Error::Persist(e));
                break;
            }
        }
    }
}

/// Releases one unit of in-flight work when dropped; on an unwind it also
/// stops the run so the sibling workers exit instead of exploring on while
/// the main thread re-raises the panic from `join`.
struct InFlightGuard<'a>(&'a Frontier);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.request_stop();
        }
        self.0.release();
    }
}

/// Replays one prescription on the given engine: solve the flip (if any),
/// materialize the path, and derive the prescriptions of its unexplored
/// suffix. Returns the query result (`None` for the root and for a query
/// the gate eliminated, so the merge counts no solver check) and, when the
/// flip is feasible, the path's record and spawned prescriptions.
///
/// Cold replay re-executes the parent prefix on `tm` and discharges the
/// flip in a brand-new solver; warm replay routes the flip through the
/// worker's [`WarmCache`], whose answers are bit-identical (see
/// [`crate::warm`]) and whose contexts keep their terms in the cache's own
/// manager. Either way the replay is pure in the prescription given a
/// freshly reset `tm`.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn replay(
    executor: &mut dyn PathExecutor,
    tm: &mut TermManager,
    warm: Option<&mut WarmCache>,
    observer: &mut dyn Observer,
    p: &Prescription,
    fuel: u64,
    gate: StaticGate,
    instr: &Instruments,
) -> Result<(Option<SatResult>, Option<(PathRecord, Vec<Prescription>)>), Error> {
    check_policy(p, executor)?;
    let (query, input) = match p.flip {
        None => (None, p.input.clone()),
        Some(flip) => {
            let solved = match warm {
                Some(cache) => {
                    cache.solve_flip(executor, &p.input, flip, fuel, gate, instr, observer)?
                }
                None => {
                    let replay_started = instr.begin(Phase::Replay);
                    let trail = executor.execute_prefix(tm, &p.input, fuel, flip.ord + 1);
                    instr.finish(replay_started, Phase::Replay, observer);
                    let (prefix, flipped) = flip.query(&trail?, tm)?;
                    discharge(
                        &mut Solver::new(),
                        tm,
                        gate,
                        &prefix,
                        flipped,
                        executor.input_len(),
                        instr,
                        observer,
                    )
                }
            };
            match solved {
                (query, Some(bytes)) => (query, bytes),
                (query, None) => return Ok((query, None)),
            }
        }
    };
    let (record, spawned, _) = materialize(executor, tm, observer, p, fuel, input, instr)?;
    Ok((query, Some((record, spawned))))
}

/// The policy divergence guard of prescription replay: a prescription
/// records the address policy its trail was produced under, and replaying
/// it under any other policy would silently renumber branch ordinals (the
/// trail shape depends on how symbolic addresses resolve). Cold and warm
/// replay share this single check.
fn check_policy(p: &Prescription, executor: &dyn PathExecutor) -> Result<(), Error> {
    if p.policy != executor.policy() {
        return Err(Error::ReplayDivergence {
            what: "prescription's address policy differs from the replaying executor's",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::TrailEntry;
    use crate::observe::CountingObserver;
    use crate::session::Session;
    use crate::strategy::{Bfs, RandomRestart};
    use binsym_asm::Assembler;
    use binsym_isa::Spec;

    const THREE_COMPARES: &str = r#"
        .data
__sym_input: .byte 0, 0, 0
        .text
_start:
    la a0, __sym_input
    li a2, 100
    lbu a1, 0(a0)
    bltu a1, a2, c1
c1: lbu a1, 1(a0)
    bltu a1, a2, c2
c2: lbu a1, 2(a0)
    bltu a1, a2, c3
c3:
    li a0, 0
    li a7, 93
    ecall
"#;

    const WITH_BUG: &str = r#"
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
"#;

    fn elf(src: &str) -> binsym_elf::ElfFile {
        Assembler::new().assemble(src).expect("assembles")
    }

    fn builder(src: &str) -> crate::SessionBuilder {
        Session::builder(Spec::rv32im()).binary(&elf(src))
    }

    fn parallel(src: &str, workers: usize) -> ParallelSession {
        builder(src)
            .workers(workers)
            .build_parallel()
            .expect("builds")
    }

    /// A finished run of `src` on `workers` workers.
    fn finished(src: &str, workers: usize) -> ParallelSession {
        let mut par = parallel(src, workers);
        par.run_all().unwrap();
        par
    }

    #[test]
    fn matches_sequential_summary_and_path_set() {
        let mut seq = builder(THREE_COMPARES).build().unwrap();
        // The model-independent fingerprint of each path is its
        // branch-decision vector; the complete path *set* is a semantic
        // property and must agree exactly. The discovery *order* within
        // each engine is DFS over its own solver's models (witness inputs
        // are model choices — the sequential incremental solver and the
        // fresh replay contexts may pick different, equally valid models,
        // reordering sibling subtrees).
        let mut seq_decisions: Vec<Vec<bool>> = seq
            .paths()
            .map(|r| {
                r.unwrap()
                    .trail
                    .iter()
                    .filter_map(|e| match *e {
                        TrailEntry::Branch { taken, .. } => Some(taken),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        seq_decisions.sort();
        let seq_summary = seq.summary();

        let reference = finished(THREE_COMPARES, 1);
        for workers in [1, 2, 4] {
            let mut par = parallel(THREE_COMPARES, workers);
            let summary = par.run_all().unwrap();
            assert_eq!(summary.paths, seq_summary.paths, "{workers} workers");
            assert_eq!(summary.total_steps, seq_summary.total_steps);
            assert_eq!(summary.solver_checks, seq_summary.solver_checks);
            assert_eq!(summary.max_trail_len, seq_summary.max_trail_len);
            let mut par_decisions: Vec<Vec<bool>> =
                par.records().iter().map(|r| r.decisions.clone()).collect();
            par_decisions.sort();
            assert_eq!(
                par_decisions, seq_decisions,
                "{workers} workers: path set equals sequential"
            );
            // Across worker counts the merge is byte-identical, witness
            // inputs included.
            assert_eq!(par.records(), reference.records(), "{workers} workers");
            assert_eq!(summary.error_paths, reference.summary().error_paths);
        }
    }

    #[test]
    fn canonical_sort_reproduces_single_worker_dfs_discovery_order() {
        // With one worker and the default depth-first shard policy, the
        // live processing order IS sequential DFS discovery. The merged
        // output is sorted by PathId — so if PathId::Ord is correct, the
        // sort must be a no-op relative to what the worker's observer saw.
        #[derive(Debug, Default)]
        struct DecisionLog(Arc<Mutex<Vec<Vec<bool>>>>);
        impl Observer for DecisionLog {
            fn on_path(&mut self, _input: &[u8], outcome: &crate::session::PathOutcome) {
                let decisions = outcome
                    .trail
                    .iter()
                    .filter_map(|e| match *e {
                        TrailEntry::Branch { taken, .. } => Some(taken),
                        _ => None,
                    })
                    .collect();
                self.0.lock().unwrap().push(decisions);
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let handle = Arc::clone(&log);
        let mut par = builder(THREE_COMPARES)
            .workers(1)
            .observer_factory(move |_| Box::new(DecisionLog(Arc::clone(&handle))))
            .build_parallel()
            .unwrap();
        par.run_all().unwrap();
        let discovery: Vec<Vec<bool>> = log.lock().unwrap().clone();
        let merged: Vec<Vec<bool>> = par.records().iter().map(|r| r.decisions.clone()).collect();
        assert_eq!(merged, discovery, "PathId sort == DFS discovery order");
    }

    #[test]
    fn error_paths_surface_with_witness_inputs() {
        let mut par = parallel(WITH_BUG, 3);
        let s = par.run_all().unwrap();
        assert_eq!(s.paths, 2);
        assert_eq!(s.error_paths.len(), 1);
        assert_eq!(s.error_paths[0].exit_code, None);
        assert_eq!(s.error_paths[0].input, vec![7]);
        assert!(par.is_done());
        // Cached: a second run_all returns the same summary.
        let again = par.run_all().unwrap();
        assert_eq!(again.paths, 2);
    }

    #[test]
    fn shard_policies_do_not_change_merged_results() {
        let reference = parallel(THREE_COMPARES, 2).run_all().unwrap();
        let policies: [ShardStrategyFactory; 2] = [
            Arc::new(|_| Box::new(Bfs::<Prescription>::new())),
            Arc::new(|i| Box::new(RandomRestart::<Prescription>::with_seed(42 + i as u64))),
        ];
        for policy in policies {
            let mut par = builder(THREE_COMPARES)
                .workers(2)
                .shard_strategy(move |i| policy(i))
                .build_parallel()
                .unwrap();
            let s = par.run_all().unwrap();
            assert_eq!(s.paths, reference.paths);
            assert_eq!(s.error_paths, reference.error_paths);
            assert_eq!(s.total_steps, reference.total_steps);
            assert_eq!(s.solver_checks, reference.solver_checks);
        }
    }

    #[test]
    fn limit_truncates_with_exact_count() {
        let mut par = builder(THREE_COMPARES)
            .workers(4)
            .limit(5)
            .build_parallel()
            .unwrap();
        let s = par.run_all().unwrap();
        assert_eq!(s.paths, 5);
        assert!(s.truncated);
    }

    #[test]
    fn worker_observers_fire_per_shard() {
        use std::sync::atomic::AtomicU64;
        #[derive(Debug)]
        struct AtomicCounter(Arc<AtomicU64>);
        impl Observer for AtomicCounter {
            fn on_path(&mut self, _input: &[u8], _outcome: &crate::session::PathOutcome) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let paths_seen = Arc::new(AtomicU64::new(0));
        let handle = Arc::clone(&paths_seen);
        let mut par = builder(THREE_COMPARES)
            .workers(2)
            .observer_factory(move |_| Box::new(AtomicCounter(Arc::clone(&handle))))
            .build_parallel()
            .unwrap();
        let s = par.run_all().unwrap();
        assert_eq!(paths_seen.load(Ordering::SeqCst), s.paths);
    }

    #[test]
    fn counting_observer_is_a_valid_worker_observer() {
        // Worker observers do not need shared handles to be useful in
        // benchmarks (cost models); a plain counter per worker works.
        let mut par = builder(THREE_COMPARES)
            .workers(2)
            .observer_factory(|_| Box::new(CountingObserver::new()))
            .build_parallel()
            .unwrap();
        assert_eq!(par.run_all().unwrap().paths, 8);
    }

    #[test]
    fn fuel_exhaustion_is_reported_as_error() {
        let mut par = builder(THREE_COMPARES)
            .workers(2)
            .fuel(3)
            .build_parallel()
            .unwrap();
        assert!(matches!(par.run_all(), Err(Error::OutOfFuel { .. })));
        // A failed run is not cached as an empty success: retrying
        // re-explores and reproduces the same error.
        assert!(!par.is_done());
        assert!(matches!(par.run_all(), Err(Error::OutOfFuel { .. })));
        assert!(par.records().is_empty());
    }

    #[test]
    fn truncated_runs_surface_errors_canonically() {
        // An unknown syscall reachable only on the all-flipped path, whose
        // id ([0,1,2]) sorts *last* in canonical order: a truncated run
        // whose prefix ends before it must succeed (the sequential engine
        // would have stopped before ever replaying it), while a budget
        // that forces exploration past every materializable path must
        // surface it — identically on every worker count.
        const LATE_ERROR: &str = r#"
        .data
__sym_input: .byte 0, 0, 0
        .text
_start:
    la a0, __sym_input
    li a2, 100
    li a3, 0
    lbu a1, 0(a0)
    bltu a1, a2, c1
    addi a3, a3, 1
c1: lbu a1, 1(a0)
    bltu a1, a2, c2
    addi a3, a3, 1
c2: lbu a1, 2(a0)
    bltu a1, a2, c3
    addi a3, a3, 1
c3: li a4, 3
    bne a3, a4, ok
    li a7, 999
    ecall
ok:
    li a0, 0
    li a7, 93
    ecall
"#;
        let image = elf(LATE_ERROR);
        let run = |workers: usize, limit: Option<u64>| {
            let mut builder = Session::builder(Spec::rv32im())
                .binary(&image)
                .workers(workers);
            if let Some(limit) = limit {
                builder = builder.limit(limit);
            }
            builder.build_parallel().unwrap().run_all()
        };
        // Unbounded: the error always surfaces.
        assert!(matches!(
            run(2, None),
            Err(Error::Exec(
                crate::machine::ExecError::UnknownSyscall { .. }
            ))
        ));
        for workers in [1usize, 2, 4] {
            // 7 paths materialize before the erroring prescription in
            // canonical order; a 4-path budget never owes it.
            let s = run(workers, Some(4)).expect("error lies beyond the cut");
            assert_eq!(s.paths, 4, "{workers} workers");
            assert!(s.truncated);
            // A budget the exploration cannot fill forces the error.
            assert!(
                matches!(run(workers, Some(8)), Err(Error::Exec(_))),
                "{workers} workers: unreachable budget surfaces the error"
            );
        }
    }

    #[test]
    fn panicking_worker_observer_propagates_instead_of_deadlocking() {
        #[derive(Debug)]
        struct Bomb;
        impl Observer for Bomb {
            fn on_path(&mut self, _input: &[u8], _outcome: &crate::session::PathOutcome) {
                panic!("observer bomb");
            }
        }
        let mut par = builder(THREE_COMPARES)
            .workers(2)
            .observer_factory(|_| Box::new(Bomb))
            .build_parallel()
            .unwrap();
        // The panic must surface through run_all (via the worker join), not
        // hang the surviving workers on a never-released in-flight count.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| par.run_all()));
        assert!(result.is_err(), "worker panic propagates");
    }

    #[test]
    fn warm_start_records_are_byte_identical_to_cache_off() {
        let reference = finished(THREE_COMPARES, 1);
        for workers in [1usize, 2, 4] {
            let mut warm = builder(THREE_COMPARES)
                .workers(workers)
                .warm_start(true)
                .build_parallel()
                .unwrap();
            assert!(warm.warm_start());
            let summary = warm.run_all().unwrap();
            assert_eq!(summary.paths, 8, "{workers} workers");
            assert_eq!(
                warm.records(),
                reference.records(),
                "{workers} workers: warm records byte-identical to cache-off"
            );
            assert_eq!(summary.solver_checks, reference.summary().solver_checks);
            assert_eq!(summary.error_paths, reference.summary().error_paths);
        }
    }

    #[test]
    fn warm_start_with_tiny_capacity_stays_identical() {
        let reference = finished(THREE_COMPARES, 2);
        // Capacity 1 forces constant eviction — results must not care.
        let mut warm = builder(THREE_COMPARES)
            .workers(2)
            .warm_start(true)
            .build_parallel()
            .unwrap();
        warm.warm_capacity = Some(1);
        warm.run_all().unwrap();
        assert_eq!(warm.records(), reference.records());
    }

    #[test]
    fn warm_start_reports_cache_stats_through_observers() {
        use std::sync::atomic::AtomicU64;
        #[derive(Debug)]
        struct WarmTally {
            queries: Arc<AtomicU64>,
            warm: Arc<AtomicU64>,
            hits: Arc<AtomicU64>,
        }
        impl Observer for WarmTally {
            fn on_query(&mut self, _r: SatResult) {
                self.queries.fetch_add(1, Ordering::SeqCst);
            }
            fn on_warm_query(&mut self, stats: &crate::observe::WarmQueryStats) {
                self.warm.fetch_add(1, Ordering::SeqCst);
                if stats.cache_hit {
                    self.hits.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let queries = Arc::new(AtomicU64::new(0));
        let warm = Arc::new(AtomicU64::new(0));
        let hits = Arc::new(AtomicU64::new(0));
        let (q, w, h) = (Arc::clone(&queries), Arc::clone(&warm), Arc::clone(&hits));
        let mut par = builder(THREE_COMPARES)
            .workers(1)
            .warm_start(true)
            .observer_factory(move |_| {
                Box::new(WarmTally {
                    queries: Arc::clone(&q),
                    warm: Arc::clone(&w),
                    hits: Arc::clone(&h),
                })
            })
            .build_parallel()
            .unwrap();
        let s = par.run_all().unwrap();
        assert_eq!(
            queries.load(Ordering::SeqCst),
            s.solver_checks,
            "every query observed"
        );
        assert_eq!(
            warm.load(Ordering::SeqCst),
            s.solver_checks,
            "every query carries warm stats"
        );
        assert!(
            hits.load(Ordering::SeqCst) > 0,
            "sibling flips hit the cache"
        );
    }

    #[test]
    fn warm_start_builder_validation() {
        let elf = elf(THREE_COMPARES);
        // Sequential build refuses warm start.
        let err = Session::builder(Spec::rv32im())
            .binary(&elf)
            .warm_start(true)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        // Parallel builds take it either way.
        for enabled in [false, true] {
            let par = Session::builder(Spec::rv32im())
                .binary(&elf)
                .workers(2)
                .warm_start(enabled)
                .build_parallel()
                .unwrap();
            assert_eq!(par.warm_start(), enabled);
        }
    }

    #[test]
    fn warm_start_surfaces_error_paths_identically() {
        let mut cold = parallel(WITH_BUG, 2);
        let cold_summary = cold.run_all().unwrap();
        let mut warm = builder(WITH_BUG)
            .workers(2)
            .warm_start(true)
            .build_parallel()
            .unwrap();
        let warm_summary = warm.run_all().unwrap();
        assert_eq!(warm_summary.error_paths, cold_summary.error_paths);
        assert_eq!(warm.records(), cold.records());
    }

    #[test]
    fn builder_validation() {
        let elf = elf(THREE_COMPARES);
        // workers + build() is refused.
        let err = Session::builder(Spec::rv32im())
            .binary(&elf)
            .workers(2)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        // Zero workers.
        let err = Session::builder(Spec::rv32im())
            .binary(&elf)
            .workers(0)
            .build_parallel()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        // Sequential-only instances are rejected in parallel mode.
        let err = Session::builder(Spec::rv32im())
            .binary(&elf)
            .observer(CountingObserver::new())
            .build_parallel()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        let err = Session::builder(Spec::rv32im())
            .binary(&elf)
            .strategy(crate::strategy::Dfs::new())
            .build_parallel()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        // A boxed executor cannot be replicated onto workers.
        let exec = crate::session::SpecExecutor::new(Spec::rv32im(), &elf, None).unwrap();
        let err = Session::executor_builder(exec)
            .build_parallel()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        // No binary at all.
        let err = Session::builder(Spec::rv32im())
            .build_parallel()
            .unwrap_err();
        assert!(matches!(err, Error::MissingBinary));
    }

    #[test]
    fn factory_builder_serves_both_modes() {
        let image = elf(THREE_COMPARES);
        let make = move || -> ExecutorFactory {
            let image = image.clone();
            Arc::new(move || {
                Ok(Box::new(crate::session::SpecExecutor::new(
                    Spec::rv32im(),
                    &image,
                    None,
                )?) as Box<dyn PathExecutor>)
            })
        };
        let f = make();
        let seq = Session::factory_builder(move || f())
            .build()
            .unwrap()
            .run_all()
            .unwrap();
        let f = make();
        let par = Session::factory_builder(move || f())
            .workers(2)
            .build_parallel()
            .unwrap()
            .run_all()
            .unwrap();
        assert_eq!(seq.paths, 8);
        assert_eq!(par.paths, 8);
        assert_eq!(seq.error_paths, par.error_paths);
    }

    /// A collision-free scratch path for checkpoint files.
    fn ck_path(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "binsym-parallel-{tag}-{}-{}.ck",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::SeqCst)
        ))
    }

    /// Simulates a kill: copies the live checkpoint file aside when the
    /// second `Written` event fires. The copy opens the file at one
    /// instant — atomic tmp+rename replacement means whatever inode it
    /// reads is a complete, consistent checkpoint, so resuming from the
    /// copy is exactly resuming a process killed at that moment.
    #[derive(Debug)]
    struct CopyOnWritten {
        src: PathBuf,
        dst: PathBuf,
        seen: Arc<std::sync::atomic::AtomicU64>,
    }
    impl Observer for CopyOnWritten {
        fn on_checkpoint(&mut self, event: CheckpointEvent) {
            if let CheckpointEvent::Written { .. } = event {
                // `fetch_add` returns the writes seen before this one.
                if self.seen.fetch_add(1, Ordering::SeqCst) == 1 {
                    std::fs::copy(&self.src, &self.dst).expect("copy checkpoint aside");
                }
            }
        }
    }

    /// Runs `builder` to the end with a checkpoint after every committed
    /// path, each worker observing through `observer` and a
    /// [`CopyOnWritten`], and returns the copied mid-run checkpoint.
    fn checkpoint_cut(
        builder: crate::SessionBuilder,
        observer: impl Fn() -> Box<dyn Observer> + Send + Sync + 'static,
    ) -> PathBuf {
        let (live, copy) = (ck_path("cut-live"), ck_path("cut-copy"));
        let seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (src, dst) = (live.clone(), copy.clone());
        builder
            .checkpoint(&live, 1)
            .observer_factory(move |_| {
                let copier = CopyOnWritten {
                    src: src.clone(),
                    dst: dst.clone(),
                    seen: Arc::clone(&seen),
                };
                Box::new((observer(), copier))
            })
            .build_parallel()
            .unwrap()
            .run_all()
            .unwrap();
        let _ = std::fs::remove_file(&live);
        assert!(copy.exists(), "mid-run checkpoint copied");
        copy
    }

    #[test]
    fn resume_from_drain_checkpoint_reproduces_the_finished_run() {
        let path = ck_path("drain");
        let mut first = builder(THREE_COMPARES)
            .workers(2)
            .checkpoint(&path, 4)
            .build_parallel()
            .unwrap();
        let first_summary = first.run_all().unwrap();
        assert!(path.exists(), "drain checkpoint written");
        // The drain checkpoint has nothing pending: resuming replays
        // nothing and merges the restored records straight through.
        let mut resumed = builder(THREE_COMPARES)
            .workers(2)
            .resume(&path)
            .build_parallel()
            .unwrap();
        let resumed_summary = resumed.run_all().unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(resumed_summary, first_summary);
        assert_eq!(resumed.records(), first.records());
    }

    #[test]
    fn resume_after_mid_run_kill_is_byte_identical() {
        let reference = finished(THREE_COMPARES, 1);
        for workers in [1usize, 2, 4] {
            let copy = checkpoint_cut(builder(THREE_COMPARES).workers(workers), || {
                Box::new(NullObserver)
            });
            // Resume from the mid-run cut with the warm cache on: the
            // merged records must come out byte-identical to the
            // uninterrupted cache-off run.
            let mut resumed = builder(THREE_COMPARES)
                .workers(workers)
                .warm_start(true)
                .resume(&copy)
                .build_parallel()
                .unwrap();
            let summary = resumed.run_all().unwrap();
            let _ = std::fs::remove_file(&copy);
            assert_eq!(summary, reference.summary(), "{workers} workers");
            assert_eq!(resumed.records(), reference.records(), "{workers} workers");
        }
    }

    #[test]
    fn resume_redistributes_across_topology_changes() {
        let reference = finished(THREE_COMPARES, 1);
        let copy = checkpoint_cut(builder(THREE_COMPARES).workers(4), || {
            Box::new(NullObserver)
        });
        // Different worker count AND a different shard policy: the pending
        // bag is redistributed over the new shards — scheduling changes,
        // merged records must not.
        let mut resumed = builder(THREE_COMPARES)
            .workers(2)
            .shard_strategy(|_| Box::new(Bfs::<Prescription>::new()))
            .resume(&copy)
            .build_parallel()
            .unwrap();
        let summary = resumed.run_all().unwrap();
        let _ = std::fs::remove_file(&copy);
        assert_eq!(summary, reference.summary());
        assert_eq!(resumed.records(), reference.records());
    }

    #[test]
    fn checkpoint_is_records_plus_sorted_pending_prescriptions() {
        use crate::coverage::{CoverageMap, CoverageObserver};
        use crate::strategy::{CoverageGuided, Dfs};
        let reference = finished(THREE_COMPARES, 1);
        let map = CoverageMap::shared_for(&elf(THREE_COMPARES));
        let (policy_map, observer_map) = (Arc::clone(&map), Arc::clone(&map));
        let coverage_guided = builder(THREE_COMPARES).workers(2).shard_strategy(move |_| {
            Box::new(CoverageGuided::<Prescription>::new(Arc::clone(&policy_map)))
        });
        let copy = checkpoint_cut(coverage_guided, move || {
            Box::new(CoverageObserver::new(Arc::clone(&observer_map)))
        });

        let doc = Document::read(&copy).unwrap();
        let records: Vec<PrescriptionRecord> =
            decode_seq(doc.require(section::RECORDS).unwrap()).unwrap();
        let pending: Vec<Prescription> =
            decode_seq(doc.require(section::PENDING).unwrap()).unwrap();
        assert!(!records.is_empty(), "the root is committed");
        assert!(
            pending.windows(2).all(|w| w[0].id < w[1].id),
            "PENDING is strictly PathId-sorted"
        );
        for p in &pending {
            assert!(
                records.iter().all(|r| r.id != p.id),
                "{:?} is both committed and pending",
                p.id
            );
            let ords = p.id.as_slice();
            assert!(!ords.is_empty(), "the root is never pending at a cut");
            let parent = PathId::from_ordinals(ords[..ords.len() - 1].to_vec());
            assert!(
                records.iter().any(|r| r.id == parent && r.path.is_some()),
                "{:?}'s parent is a materialized record",
                p.id
            );
        }

        let policies: [ShardStrategyFactory; 3] = [
            Arc::new(|_| Box::new(Dfs::<Prescription>::new())),
            Arc::new(|_| Box::new(Bfs::<Prescription>::new())),
            Arc::new(|i| Box::new(RandomRestart::<Prescription>::with_seed(7 + i as u64))),
        ];
        for policy in policies {
            for workers in [1usize, 3] {
                let policy = Arc::clone(&policy);
                let mut resumed = builder(THREE_COMPARES)
                    .workers(workers)
                    .shard_strategy(move |i| policy(i))
                    .resume(&copy)
                    .build_parallel()
                    .unwrap();
                let summary = resumed.run_all().unwrap();
                assert_eq!(summary, reference.summary(), "{workers} workers");
                assert_eq!(resumed.records(), reference.records(), "{workers} workers");
            }
        }
        let _ = std::fs::remove_file(&copy);
    }

    #[test]
    fn truncated_resume_keeps_the_canonical_prefix() {
        let reference = {
            let mut par = builder(THREE_COMPARES)
                .workers(1)
                .limit(5)
                .build_parallel()
                .unwrap();
            par.run_all().unwrap();
            par
        };
        let copy = checkpoint_cut(builder(THREE_COMPARES).workers(2).limit(5), || {
            Box::new(NullObserver)
        });
        // The copy carries the watermark: the resumed truncated run must
        // return the same canonical limit-lowest-id prefix.
        let mut resumed = builder(THREE_COMPARES)
            .workers(2)
            .limit(5)
            .resume(&copy)
            .build_parallel()
            .unwrap();
        let summary = resumed.run_all().unwrap();
        let _ = std::fs::remove_file(&copy);
        assert_eq!(summary.paths, 5);
        assert!(summary.truncated);
        assert_eq!(summary, reference.summary());
        assert_eq!(resumed.records(), reference.records());
    }

    #[test]
    fn checkpointed_failing_run_resumes_into_the_same_error() {
        // Unknown syscall on the flipped (a1 == 7) path: a replay *error*,
        // not an error path — run_all fails, and the failed prescription
        // stays pending in the checkpoint.
        const BAD_SYSCALL: &str = r#"
        .data
__sym_input: .byte 0
        .text
_start:
    la a0, __sym_input
    lbu a1, 0(a0)
    li a2, 7
    bne a1, a2, ok
    li a7, 999
    ecall
ok:
    li a0, 0
    li a7, 93
    ecall
"#;
        let path = ck_path("fail");
        let mut failing = builder(BAD_SYSCALL)
            .workers(2)
            .checkpoint(&path, 1)
            .build_parallel()
            .unwrap();
        let err = failing.run_all().unwrap_err();
        assert!(matches!(
            err,
            Error::Exec(crate::machine::ExecError::UnknownSyscall { .. })
        ));
        assert!(path.exists(), "periodic checkpoint survives the failure");
        // Resume re-replays the persisted pending prescription and — replay
        // being pure — deterministically re-derives the same error.
        let mut resumed = builder(BAD_SYSCALL)
            .workers(2)
            .resume(&path)
            .build_parallel()
            .unwrap();
        let err = resumed.run_all().unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            err,
            Error::Exec(crate::machine::ExecError::UnknownSyscall { .. })
        ));
    }

    #[test]
    fn checkpoint_events_reach_counting_observers() {
        let path = ck_path("counters");
        let counters = Arc::new(Mutex::new(CountingObserver::new()));
        let handle = Arc::clone(&counters);
        let mut par = builder(THREE_COMPARES)
            .workers(2)
            .checkpoint(&path, 1)
            .observer_factory(move |_| Box::new(Arc::clone(&handle)))
            .build_parallel()
            .unwrap();
        let s = par.run_all().unwrap();
        {
            let c = counters.lock().unwrap();
            // One write per committed path plus the coordinator's drain.
            assert_eq!(c.checkpoints_written, s.paths + 1);
            assert_eq!(c.resumed_from, 0);
        }
        let counters = Arc::new(Mutex::new(CountingObserver::new()));
        let handle = Arc::clone(&counters);
        let mut resumed = builder(THREE_COMPARES)
            .workers(2)
            .resume(&path)
            .observer_factory(move |_| Box::new(Arc::clone(&handle)))
            .build_parallel()
            .unwrap();
        resumed.run_all().unwrap();
        let _ = std::fs::remove_file(&path);
        let c = counters.lock().unwrap();
        assert_eq!(c.resumed_from, 1, "coordinator reports the resume seed");
        assert_eq!(c.checkpoints_written, 0, "resume alone writes nothing");
    }

    #[test]
    fn resume_rejects_mismatched_or_missing_checkpoints() {
        let path = ck_path("meta");
        let mut first = builder(THREE_COMPARES)
            .workers(1)
            .checkpoint(&path, 4)
            .build_parallel()
            .unwrap();
        first.run_all().unwrap();
        // Wrong binary: the symbolic input length disagrees.
        let err = builder(WITH_BUG)
            .workers(1)
            .resume(&path)
            .build_parallel()
            .unwrap()
            .run_all()
            .unwrap_err();
        assert!(matches!(err, Error::Persist(PersistError::Mismatch { .. })));
        // Wrong path limit: truncation is result-shaping.
        let err = builder(THREE_COMPARES)
            .workers(1)
            .limit(5)
            .resume(&path)
            .build_parallel()
            .unwrap()
            .run_all()
            .unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, Error::Persist(PersistError::Mismatch { .. })));
        // Missing file: a session-level Io error, never a panic.
        let err = builder(THREE_COMPARES)
            .workers(1)
            .resume(ck_path("missing"))
            .build_parallel()
            .unwrap()
            .run_all()
            .unwrap_err();
        assert!(matches!(err, Error::Persist(PersistError::Io(_))));
    }

    #[test]
    fn persistence_builder_validation() {
        let elf = elf(THREE_COMPARES);
        // Sequential build refuses checkpoint/resume (they persist the
        // sharded frontier).
        let err = Session::builder(Spec::rv32im())
            .binary(&elf)
            .checkpoint("/tmp/x.ck", 4)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        let err = Session::builder(Spec::rv32im())
            .binary(&elf)
            .resume("/tmp/x.ck")
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
        // A zero write interval is meaningless.
        let err = Session::builder(Spec::rv32im())
            .binary(&elf)
            .workers(2)
            .checkpoint("/tmp/x.ck", 0)
            .build_parallel()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }));
    }

    #[test]
    fn resume_rejects_restored_steps_past_the_fuel() {
        // Two restored paths whose step counts sum past `u64::MAX`: folded
        // into the merged summary they would overflow `total_steps`. No
        // executor runs a path past its fuel, so the load rejects them.
        let path = ck_path("steps");
        builder(THREE_COMPARES)
            .workers(2)
            .checkpoint(&path, 4)
            .build_parallel()
            .unwrap()
            .run_all()
            .unwrap();
        let doc = Document::read(&path).unwrap();
        let mut records: Vec<PrescriptionRecord> =
            decode_seq(doc.require(section::RECORDS).unwrap()).unwrap();
        let mut paths = records.iter_mut().filter_map(|r| r.path.as_mut());
        for _ in 0..2 {
            paths.next().expect("two restored paths").steps = u64::MAX / 2 + 1;
        }
        let mut corrupt = Document::new();
        for tag in [
            section::META,
            section::POLICY,
            section::PENDING,
            section::WATERMARK,
        ] {
            corrupt.push(tag, doc.require(tag).unwrap().to_vec());
        }
        corrupt.push(section::RECORDS, encode_seq(&records));
        corrupt.write_atomic(&path).unwrap();
        let resumed = builder(THREE_COMPARES)
            .workers(2)
            .resume(&path)
            .build_parallel()
            .unwrap()
            .run_all();
        let _ = std::fs::remove_file(&path);
        assert!(
            matches!(resumed, Err(Error::Persist(PersistError::Corrupt(_)))),
            "{resumed:?}"
        );
    }
}
