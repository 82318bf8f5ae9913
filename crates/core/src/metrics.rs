//! Lock-free phase-timing metrics, sharded per worker.
//!
//! The engine's existing [`Observer`](crate::Observer) seam counts *events*
//! (queries, cache hits, gate eliminations); this module measures *where the
//! time goes*. A [`MetricsRegistry`] holds one [`WorkerMetrics`] shard per
//! worker thread (plus one for the coordinating thread); each worker writes
//! only its own shard through relaxed atomics, so the hot path takes no lock
//! — unlike the `Arc<Mutex<CountingObserver>>` pattern the ablation harness
//! uses for plain counters. After a run, [`MetricsRegistry::report`] merges
//! the shards into a plain-data [`MetricsReport`] with per-[`Phase`] wall
//! seconds and query-latency percentiles.
//!
//! Instrumentation carries the same hard contract as the warm cache and the
//! static-analysis gate: it may change wall time, never merged records. The
//! timers only *observe* the engine; nothing reads them back into any
//! exploration decision, and both determinism suites pin metrics-on runs
//! byte-identical to metrics-off runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::observe::Observer;
use crate::trace::TraceSink;

/// Number of [`Phase`] variants (length of [`Phase::ALL`]).
pub const NUM_PHASES: usize = 8;

/// Number of power-of-two latency buckets in a [`Histogram`].
pub(crate) const NUM_BUCKETS: usize = 64;

/// A timed phase of the engine's work loop.
///
/// Phase timers cover both the sequential engine and the parallel workers;
/// a phase that a given configuration never enters (e.g. [`Phase::WarmSolve`]
/// without `.warm_start(true)`) simply reports zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Executing a path to completion on concrete-feasible input — the
    /// sequential engine's path step and the parallel worker's
    /// materialisation of a prescription.
    Execute,
    /// Replaying a prescription's parent input up to its flip ordinal to
    /// recover the branch trail (parallel replay and warm-cache deepening).
    Replay,
    /// Lowering path-condition terms into solver assertions (bit-blasting).
    BitBlast,
    /// A SAT `check_sat` call on a cold (freshly asserted) solver.
    Solve,
    /// Screening a flip query through the word-level static-analysis gate.
    Gate,
    /// Building a retained warm-start prefix context (promotion), including
    /// the up-front blast of the shared prefix.
    WarmPromote,
    /// Solving a flip on a retained warm context — scratch-clone reuse,
    /// rollback bookkeeping, and the `check_sat` itself.
    WarmSolve,
    /// The deterministic merge of worker outputs into discovery order.
    Merge,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Execute,
        Phase::Replay,
        Phase::BitBlast,
        Phase::Solve,
        Phase::Gate,
        Phase::WarmPromote,
        Phase::WarmSolve,
        Phase::Merge,
    ];

    /// Stable `snake_case` name, used for trace span names and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Execute => "execute",
            Phase::Replay => "replay",
            Phase::BitBlast => "bit_blast",
            Phase::Solve => "solve",
            Phase::Gate => "gate",
            Phase::WarmPromote => "warm_promote",
            Phase::WarmSolve => "warm_solve",
            Phase::Merge => "merge",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Bucket index for a nanosecond latency: bucket `i` holds values in
/// `[2^(i-1), 2^i)` (bucket 0 holds exactly 0), clamped to the last bucket.
fn bucket_of(nanos: u64) -> usize {
    (u64::BITS as usize - nanos.leading_zeros() as usize).min(NUM_BUCKETS - 1)
}

/// Upper bound of a bucket, in nanoseconds — the value percentiles report.
fn bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        (1u64 << index) - 1
    }
}

/// A lock-free latency histogram with fixed power-of-two nanosecond buckets.
///
/// Recording is a single relaxed `fetch_add`, safe to call from the worker
/// that owns the shard while other threads take racy snapshot reads.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one observation of `nanos`.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Owned copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Plain-data copy of a [`Histogram`]'s buckets — mergeable across shards
/// and across bench rounds (counts add; they are never averaged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; NUM_BUCKETS],
}

impl HistogramSnapshot {
    /// A snapshot with every bucket empty.
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: [0; NUM_BUCKETS],
        }
    }

    /// Add `other`'s counts into this snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `p`-th percentile (`0.0 < p <= 1.0`) in **seconds**, resolved to
    /// the upper bound of the bucket holding that rank. Returns `0.0` for an
    /// empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_bound(i) as f64 * 1e-9;
            }
        }
        bucket_bound(NUM_BUCKETS - 1) as f64 * 1e-9
    }

    /// The raw bucket counts, for the wire codec.
    pub(crate) fn bucket_counts(&self) -> &[u64; NUM_BUCKETS] {
        &self.counts
    }

    /// Rebuilds a snapshot from decoded bucket counts.
    pub(crate) fn from_bucket_counts(counts: [u64; NUM_BUCKETS]) -> Self {
        HistogramSnapshot { counts }
    }
}

/// One worker's private metrics shard: phase timers, a query-latency
/// histogram, and path and query counters.
#[derive(Debug)]
pub struct WorkerMetrics {
    phase_nanos: [AtomicU64; NUM_PHASES],
    phase_counts: [AtomicU64; NUM_PHASES],
    query_latency: Histogram,
    paths: AtomicU64,
    queries: AtomicU64,
}

impl WorkerMetrics {
    fn new() -> Self {
        WorkerMetrics {
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            query_latency: Histogram::new(),
            paths: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }

    /// Add one timed interval to `phase`.
    pub fn record_phase(&self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
        self.phase_counts[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one solver query and its end-to-end latency.
    pub fn record_query(&self, nanos: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.query_latency.record(nanos);
    }

    /// Count one completed path.
    pub fn note_path(&self) {
        self.paths.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared, lock-free registry of per-worker metrics shards.
///
/// Create one with [`MetricsRegistry::new`], hand an `Arc` clone to
/// [`SessionBuilder::metrics`](crate::SessionBuilder::metrics), and read the
/// merged [`report`](MetricsRegistry::report) after the run. Each engine
/// thread writes only the shard matching its trace track, so no mutex guards
/// the hot path; cross-thread reads (live snapshots) are racy-but-monotone
/// relaxed loads.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<WorkerMetrics>,
}

impl MetricsRegistry {
    /// A registry with `workers + 1` shards: one per worker thread plus one
    /// for the coordinating thread (sequential sessions use shard 0; the
    /// parallel merge phase lands on shard `workers`).
    pub fn new(workers: usize) -> Self {
        MetricsRegistry {
            shards: (0..workers + 1).map(|_| WorkerMetrics::new()).collect(),
        }
    }

    /// The shard for `track` (wrapping, so a registry sized for fewer
    /// workers still accepts every track).
    pub fn shard(&self, track: usize) -> &WorkerMetrics {
        &self.shards[track % self.shards.len()]
    }

    /// Merge every shard into a plain-data report.
    pub fn report(&self) -> MetricsReport {
        let mut report = MetricsReport::empty();
        for shard in &self.shards {
            for i in 0..NUM_PHASES {
                report.phase_nanos[i] += shard.phase_nanos[i].load(Ordering::Relaxed);
                report.phase_counts[i] += shard.phase_counts[i].load(Ordering::Relaxed);
            }
            report.query_latency.merge(&shard.query_latency.snapshot());
            report.paths += shard.paths.load(Ordering::Relaxed);
            report.queries += shard.queries.load(Ordering::Relaxed);
        }
        report
    }
}

/// Merged, plain-data view of a [`MetricsRegistry`] after a run.
///
/// Reports from repeated rounds can be [`merge`](MetricsReport::merge)d:
/// phase seconds and counts add (divide by the round count for an average),
/// while percentiles are computed over the union histogram — counts are
/// never divided, the same discipline the bench applies to event counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    phase_nanos: [u64; NUM_PHASES],
    phase_counts: [u64; NUM_PHASES],
    query_latency: HistogramSnapshot,
    /// Completed paths across all shards.
    pub paths: u64,
    /// Solver queries (cold and warm `check_sat` calls) across all shards.
    pub queries: u64,
}

impl MetricsReport {
    /// An all-zero report.
    pub fn empty() -> Self {
        MetricsReport {
            phase_nanos: [0; NUM_PHASES],
            phase_counts: [0; NUM_PHASES],
            query_latency: HistogramSnapshot::empty(),
            paths: 0,
            queries: 0,
        }
    }

    /// Total wall seconds spent in `phase` (summed over all shards, so
    /// parallel phases can exceed the run's wall clock).
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        self.phase_nanos[phase.index()] as f64 * 1e-9
    }

    /// Number of timed intervals recorded for `phase`.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_counts[phase.index()]
    }

    /// The merged query-latency histogram.
    pub fn query_latency(&self) -> &HistogramSnapshot {
        &self.query_latency
    }

    /// The private pieces the wire codec serializes.
    pub(crate) fn wire_parts(&self) -> ([u64; NUM_PHASES], [u64; NUM_PHASES], &HistogramSnapshot) {
        (self.phase_nanos, self.phase_counts, &self.query_latency)
    }

    /// Rebuilds a report from decoded wire pieces.
    pub(crate) fn from_wire_parts(
        phase_nanos: [u64; NUM_PHASES],
        phase_counts: [u64; NUM_PHASES],
        query_latency: HistogramSnapshot,
        paths: u64,
        queries: u64,
    ) -> Self {
        MetricsReport {
            phase_nanos,
            phase_counts,
            query_latency,
            paths,
            queries,
        }
    }

    /// Add `other` into this report (phase times, histogram, counters).
    pub fn merge(&mut self, other: &MetricsReport) {
        for i in 0..NUM_PHASES {
            self.phase_nanos[i] += other.phase_nanos[i];
            self.phase_counts[i] += other.phase_counts[i];
        }
        self.query_latency.merge(&other.query_latency);
        self.paths += other.paths;
        self.queries += other.queries;
    }
}

/// The engine-internal bundle threading a registry shard and a trace track
/// through one thread's work loop. Cloned per worker with the worker's own
/// track; all methods are near-zero cost when both halves are disabled
/// ([`begin`](Instruments::begin) returns `None` after two `Option` checks,
/// and every other method early-outs the same way).
#[derive(Clone)]
pub(crate) struct Instruments {
    registry: Option<Arc<MetricsRegistry>>,
    sink: Option<Arc<dyn TraceSink>>,
    track: u32,
}

impl Instruments {
    /// Instrumentation that records nothing.
    pub(crate) fn disabled() -> Self {
        Instruments {
            registry: None,
            sink: None,
            track: 0,
        }
    }

    pub(crate) fn new(
        registry: Option<Arc<MetricsRegistry>>,
        sink: Option<Arc<dyn TraceSink>>,
        track: u32,
    ) -> Self {
        Instruments {
            registry,
            sink,
            track,
        }
    }

    /// A copy of these instruments re-pointed at `track` (one per worker).
    pub(crate) fn for_track(&self, track: u32) -> Self {
        Instruments {
            registry: self.registry.clone(),
            sink: self.sink.clone(),
            track,
        }
    }

    pub(crate) fn active(&self) -> bool {
        self.registry.is_some() || self.sink.is_some()
    }

    /// Open a phase span. Returns `None` (and emits nothing) when disabled.
    pub(crate) fn begin(&self, phase: Phase) -> Option<Instant> {
        if !self.active() {
            return None;
        }
        if let Some(sink) = &self.sink {
            sink.begin_span(self.track, phase.name());
        }
        Some(Instant::now())
    }

    /// Close a phase span opened by [`begin`](Instruments::begin): stamps the
    /// shard, ends the trace span, and fires [`Observer::on_phase`]. Returns
    /// the elapsed nanoseconds (0 when the span was disabled).
    pub(crate) fn finish(
        &self,
        started: Option<Instant>,
        phase: Phase,
        observer: &mut dyn Observer,
    ) -> u64 {
        let Some(started) = started else { return 0 };
        let nanos = started.elapsed().as_nanos() as u64;
        if let Some(sink) = &self.sink {
            sink.end_span(self.track, phase.name());
        }
        if let Some(registry) = &self.registry {
            registry
                .shard(self.track as usize)
                .record_phase(phase, nanos);
        }
        observer.on_phase(phase, nanos);
        nanos
    }

    /// Record one solver query's latency (no-op without a registry).
    pub(crate) fn record_query(&self, nanos: u64) {
        if let Some(registry) = &self.registry {
            registry.shard(self.track as usize).record_query(nanos);
        }
    }

    /// Count one completed path (no-op without a registry).
    pub(crate) fn note_path(&self) {
        if let Some(registry) = &self.registry {
            registry.shard(self.track as usize).note_path();
        }
    }

    /// Emit an instant (zero-duration) trace event.
    pub(crate) fn instant(&self, name: &str) {
        if let Some(sink) = &self.sink {
            sink.instant(self.track, name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        // Every bucket's bound falls back into that bucket (self-consistent).
        for i in 1..NUM_BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn histogram_percentiles_resolve_to_bucket_bounds() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().percentile(0.5), 0.0, "empty histogram");
        // 90 fast observations (~1µs) and 10 slow ones (~1ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.total(), 100);
        let p50 = snap.percentile(0.5);
        let p99 = snap.percentile(0.99);
        // p50 lands in the 1µs bucket, p99 in the 1ms bucket.
        assert!(p50 < 3e-6, "p50 {p50}");
        assert!(p99 > 5e-4 && p99 < 3e-3, "p99 {p99}");
        assert!(snap.percentile(0.90) <= p99);
    }

    #[test]
    fn snapshot_merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(10);
        b.record(1_000_000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.total(), 3);
        // With 2 of 3 observations fast, p50 stays fast and p99 goes slow.
        assert!(merged.percentile(0.5) < 1e-6);
        assert!(merged.percentile(0.99) > 5e-4);
    }

    #[test]
    fn registry_merges_across_worker_shards() {
        let registry = Arc::new(MetricsRegistry::new(4));
        thread::scope(|scope| {
            for worker in 0..4usize {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let shard = registry.shard(worker);
                    shard.record_phase(Phase::Solve, 500);
                    shard.record_phase(Phase::Execute, (worker as u64 + 1) * 100);
                    shard.record_query(2_000);
                    shard.note_path();
                });
            }
        });
        // Coordinator shard: the merge phase.
        registry.shard(4).record_phase(Phase::Merge, 4_000);
        let report = registry.report();
        assert_eq!(report.phase_count(Phase::Solve), 4);
        assert!((report.phase_seconds(Phase::Solve) - 2_000e-9).abs() < 1e-12);
        assert!((report.phase_seconds(Phase::Execute) - 1_000e-9).abs() < 1e-12);
        assert_eq!(report.phase_count(Phase::Merge), 1);
        assert_eq!(report.paths, 4);
        assert_eq!(report.queries, 4);
        assert_eq!(report.query_latency().total(), 4);
        assert_eq!(report.phase_seconds(Phase::WarmSolve), 0.0);
    }

    #[test]
    fn report_merge_accumulates_rounds() {
        let registry = MetricsRegistry::new(1);
        registry.shard(0).record_phase(Phase::Solve, 1_000);
        registry.shard(0).record_query(1_000);
        let round = registry.report();
        let mut sum = MetricsReport::empty();
        sum.merge(&round);
        sum.merge(&round);
        assert_eq!(sum.phase_count(Phase::Solve), 2);
        assert!((sum.phase_seconds(Phase::Solve) - 2e-6).abs() < 1e-12);
        assert_eq!(sum.queries, 2);
        assert_eq!(sum.query_latency().total(), 2);
    }

    #[test]
    fn disabled_instruments_record_nothing() {
        let instr = Instruments::disabled();
        assert!(!instr.active());
        let started = instr.begin(Phase::Solve);
        assert!(started.is_none());
        let mut obs = crate::observe::CountingObserver::new();
        assert_eq!(instr.finish(started, Phase::Solve, &mut obs), 0);
        instr.record_query(10);
        instr.note_path();
    }

    #[test]
    fn instruments_route_to_the_shard_of_their_track() {
        let registry = Arc::new(MetricsRegistry::new(2));
        let instr = Instruments::new(Some(Arc::clone(&registry)), None, 0);
        let worker = instr.for_track(1);
        let mut obs = crate::observe::NullObserver;
        let t = worker.begin(Phase::Execute);
        assert!(t.is_some());
        let nanos = worker.finish(t, Phase::Execute, &mut obs);
        assert!(nanos > 0);
        worker.record_query(42);
        worker.note_path();
        let report = registry.report();
        assert_eq!(report.phase_count(Phase::Execute), 1);
        assert_eq!(report.paths, 1);
        assert_eq!(report.queries, 1);
    }
}
