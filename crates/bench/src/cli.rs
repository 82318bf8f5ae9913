//! Shared command-line plumbing for the bench bins: `--workers` /
//! `BINSYM_WORKERS` resolution, the per-run [`RunSpec`] and campaign trace
//! behind the shared flags, and a dependency-free JSON writer for the
//! machine-readable `--json` summaries.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use binsym::{ChromeTraceSink, CountingObserver, TraceSink};

use crate::engines::{memory_policy_from_opts, RunSpec, SearchStrategy};

/// Options common to the bench bins.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// Worker threads for parallel sessions: `--workers N`, falling back
    /// to the `BINSYM_WORKERS` environment variable. `None`/0 means
    /// sequential.
    pub workers: Option<usize>,
    /// Path-selection strategy (`--strategy dfs|bfs|coverage`, default
    /// dfs); parsed into a [`crate::SearchStrategy`] by the engines layer.
    pub strategy: Option<String>,
    /// Address-concretization policy of the symbolic-memory layer
    /// (`--memory-policy eq|symbolic:N`, default eq); parsed into a
    /// [`binsym::AddressPolicyKind`] by [`crate::engines::memory_policy_from_opts`].
    pub memory_policy: Option<String>,
    /// Where to write the machine-readable JSON summary (`--json PATH`).
    pub json: Option<PathBuf>,
    /// Skip the heavy benchmark rows (`--quick`).
    pub quick: bool,
    /// CI-sized run: only the fast programs and datapoints (`--smoke`).
    pub smoke: bool,
    /// Repetitions for timing harnesses (`--runs N`, at least 1).
    pub runs: Option<usize>,
    /// Where to write a Chrome-trace-event file of the run
    /// (`--trace PATH`), openable in `ui.perfetto.dev`.
    pub trace: Option<PathBuf>,
    /// Collect phase-timing metrics and include them in the report
    /// (`--metrics`).
    pub metrics: bool,
    /// Base path for atomic exploration checkpoints (`--checkpoint PATH`);
    /// the bins run many (engine × benchmark) sessions per invocation, so
    /// each derives its own file via [`persist_target`]. Parallel runs
    /// only (`--workers N` with N > 0).
    pub checkpoint: Option<PathBuf>,
    /// Merged-path interval between checkpoint writes
    /// (`--checkpoint-every N`, default 64).
    pub checkpoint_every: Option<u64>,
    /// Base path to resume explorations from (`--resume PATH`), suffixed
    /// per (engine, benchmark) exactly like `--checkpoint`.
    pub resume: Option<PathBuf>,
}

/// Every flag [`BenchOpts`] parses, in field order.
const SHARED_FLAGS: [&str; 12] = [
    "--workers",
    "--strategy",
    "--memory-policy",
    "--json",
    "--quick",
    "--smoke",
    "--runs",
    "--trace",
    "--metrics",
    "--checkpoint",
    "--checkpoint-every",
    "--resume",
];

impl BenchOpts {
    /// Parses the process arguments (and the `BINSYM_WORKERS` fallback).
    /// `bin_flags` are the flags the calling bin parses itself; any other
    /// `--` argument that is not a shared flag fails, so a flag of a
    /// removed mode is an error instead of being silently ignored.
    pub fn from_env(bin_flags: &[&str]) -> BenchOpts {
        Self::parse(
            std::env::args().skip(1),
            std::env::var("BINSYM_WORKERS").ok(),
            bin_flags,
        )
    }

    fn parse(
        args: impl Iterator<Item = String>,
        workers_env: Option<String>,
        bin_flags: &[&str],
    ) -> BenchOpts {
        let args: Vec<String> = args.collect();
        // Values never start with `--` (checked below), so every such
        // argument is a flag.
        if let Some(unknown) = args.iter().find(|a| {
            a.starts_with("--")
                && !SHARED_FLAGS.contains(&a.as_str())
                && !bin_flags.contains(&a.as_str())
        }) {
            panic!("unknown flag {unknown:?}");
        }
        let value_of = |flag: &str| -> Option<&String> {
            args.iter().position(|a| a == flag).map(|i| {
                // The value slot must exist AND not be another flag:
                // `--workers --quick` used to silently consume `--quick`
                // as the worker count and then panic with a misleading
                // "invalid value" message; fail with the real problem.
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => v,
                    Some(v) => panic!("{flag} needs a value (found flag {v:?} instead)"),
                    None => panic!("{flag} needs a value"),
                }
            })
        };
        // A malformed count must fail loudly: silently falling back to the
        // sequential engine would record a wrong datapoint.
        let count = |flag: &str, raw: &str| -> usize {
            raw.parse()
                .unwrap_or_else(|_| panic!("invalid value for {flag}: {raw:?}"))
        };
        let workers = value_of("--workers")
            .map(|s| count("--workers", s))
            .or_else(|| {
                workers_env
                    .as_deref()
                    .filter(|s| !s.is_empty())
                    .map(|s| count("BINSYM_WORKERS", s))
            })
            .filter(|&w| w > 0);
        BenchOpts {
            workers,
            strategy: value_of("--strategy").cloned(),
            memory_policy: value_of("--memory-policy").cloned(),
            json: value_of("--json").map(PathBuf::from),
            quick: args.iter().any(|a| a == "--quick"),
            smoke: args.iter().any(|a| a == "--smoke"),
            // Zero runs would time nothing and then average over nothing.
            runs: value_of("--runs").map(|s| match count("--runs", s) {
                0 => panic!("invalid value for --runs: {s:?} (at least one run is needed)"),
                n => n,
            }),
            trace: value_of("--trace").map(PathBuf::from),
            metrics: args.iter().any(|a| a == "--metrics"),
            checkpoint: value_of("--checkpoint").map(PathBuf::from),
            // A zero interval would be accepted here and then fail every
            // session build after the bin has started printing its table.
            checkpoint_every: value_of("--checkpoint-every").map(|s| {
                match count("--checkpoint-every", s) {
                    0 => panic!(
                        "invalid value for --checkpoint-every: {s:?} (the interval must be at least one path)"
                    ),
                    n => n as u64,
                }
            }),
            resume: value_of("--resume").map(PathBuf::from),
        }
    }

    /// The worker count to report in summaries (0 = sequential).
    pub fn workers_or_sequential(&self) -> usize {
        self.workers.unwrap_or(0)
    }

    /// The checkpoint write interval (default 64 merged paths).
    pub fn checkpoint_interval(&self) -> u64 {
        self.checkpoint_every.unwrap_or(64)
    }

    /// The [`RunSpec`] of one (engine, benchmark) run of a campaign:
    /// `--workers`, `--strategy`, `--memory-policy` and `--metrics` as
    /// given, the campaign's shared `trace` sink, and `--checkpoint`
    /// (every `--checkpoint-every` paths) / `--resume` suffixed per run by
    /// [`persist_target`].
    ///
    /// # Panics
    /// Panics on an unknown `--strategy` or `--memory-policy` value.
    pub fn run_spec(
        &self,
        engine: &str,
        benchmark: &str,
        trace: Option<&Arc<ChromeTraceSink>>,
    ) -> RunSpec {
        let target = |base: &Path| persist_target(base, engine, benchmark);
        RunSpec {
            workers: self.workers_or_sequential(),
            strategy: SearchStrategy::from_opts(self),
            policy: memory_policy_from_opts(self),
            metrics: self.metrics,
            trace: trace.map(|sink| Arc::clone(sink) as Arc<dyn TraceSink>),
            checkpoint: self
                .checkpoint
                .as_deref()
                .map(|base| (target(base), self.checkpoint_interval())),
            resume: self.resume.as_deref().map(target),
        }
    }

    /// The campaign's trace sink when `--trace PATH` was given: one sink
    /// shared by every run of the invocation, so the whole campaign lands
    /// in a single Perfetto-openable file on one timeline. Write it out
    /// with [`write_trace`].
    pub fn trace_sink(&self) -> Option<Arc<ChromeTraceSink>> {
        self.trace
            .as_ref()
            .map(|_| Arc::new(ChromeTraceSink::new()))
    }

    /// True when any persistence flag was given.
    pub fn wants_persistence(&self) -> bool {
        self.checkpoint.is_some() || self.resume.is_some()
    }
}

/// The checkpoint file one session of a campaign uses under a `--checkpoint`
/// (or `--resume`) base path: `BASE.<engine>.<benchmark>.ck`, with names
/// slugged to `[a-z0-9-]` so personas like "angr (fixed)" stay
/// filesystem-safe. Symmetric between writing and resuming, so
/// `--checkpoint X` in one invocation pairs with `--resume X` in the next.
pub fn persist_target(base: &Path, engine: &str, benchmark: &str) -> PathBuf {
    let slug = |s: &str| -> String {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect()
    };
    let mut name = base
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".into());
    name.push_str(&format!(".{}.{}.ck", slug(engine), slug(benchmark)));
    base.with_file_name(name)
}

/// A JSON value, built by hand — the build environment has no serde, and
/// the bench summaries only need objects/arrays of scalars.
#[derive(Debug, Clone)]
pub enum Json {
    /// The null value.
    Null,
    /// A string (escaped on render).
    S(String),
    /// An unsigned integer.
    U(u64),
    /// A float (rendered with full precision).
    F(f64),
    /// A boolean.
    B(bool),
    /// An array.
    A(Vec<Json>),
    /// An object with ordered keys.
    O(Vec<(&'static str, Json)>),
}

impl Json {
    /// Convenience constructor from anything string-like.
    pub fn s(v: impl Into<String>) -> Json {
        Json::S(v.into())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::S(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::U(v) => out.push_str(&v.to_string()),
            Json::F(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::B(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::A(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::O(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::s(*k).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a JSON summary to `path` (with a trailing newline) and reports
/// the destination on stdout.
///
/// # Panics
/// Panics if the file cannot be written — bench bins treat an unwritable
/// summary destination as a hard configuration error.
pub fn write_json(path: &Path, value: &Json) {
    let mut file = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    writeln!(file, "{}", value.render())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("\nJSON summary written to {}", path.display());
}

/// Writes the campaign trace of [`BenchOpts::trace_sink`] to the `--trace`
/// path and reports the destination on stdout.
///
/// # Panics
/// Panics if the file cannot be written.
pub fn write_trace(opts: &BenchOpts, sink: Option<&ChromeTraceSink>) {
    if let (Some(path), Some(sink)) = (&opts.trace, sink) {
        sink.write_to(path)
            .unwrap_or_else(|e| panic!("writing trace to {}: {e}", path.display()));
        println!(
            "trace: {} events written to {} (open in ui.perfetto.dev)",
            sink.len(),
            path.display()
        );
    }
}

/// Accumulates one round's [`CountingObserver`] totals into a
/// multi-run sum (the timing harnesses interleave rounds and average).
pub fn add_counters(sum: &mut CountingObserver, round: &CountingObserver) {
    sum.steps += round.steps;
    sum.branches += round.branches;
    sum.paths += round.paths;
    sum.queries += round.queries;
    sum.sat_queries += round.sat_queries;
    sum.warm_hits += round.warm_hits;
    sum.warm_misses += round.warm_misses;
    sum.warm_replays_skipped += round.warm_replays_skipped;
    sum.warm_prefix_reused += round.warm_prefix_reused;
    sum.warm_prefix_blasted += round.warm_prefix_blasted;
    sum.warm_cross_parent_reuse += round.warm_cross_parent_reuse;
    sum.sa_queries += round.sa_queries;
    sum.sa_queries_eliminated += round.sa_queries_eliminated;
    sum.sa_facts += round.sa_facts;
    sum.checkpoints_written += round.checkpoints_written;
    sum.resumed_from += round.resumed_from;
}

/// Divides totals accumulated over `runs` rounds back to their per-round
/// values, so `--runs N` reports the same counters as a single run. Every
/// counter but the `warm_*` ones is independent of the schedule, so its
/// division is exact — a remainder would mean a round diverged, which the
/// determinism suites forbid. The `warm_*` counters depend on the
/// schedule at 2+ workers (each worker's cache holds what it happened to
/// pop or steal), so rounds legitimately differ: they come back zero here
/// and are reported by [`warm_means`] instead.
pub fn counters_per_round(sum: &CountingObserver, runs: usize) -> CountingObserver {
    let n = runs.max(1) as u64;
    let per = |total: u64| -> u64 {
        debug_assert_eq!(total % n, 0, "counter diverged across rounds");
        total / n
    };
    CountingObserver {
        steps: per(sum.steps),
        branches: per(sum.branches),
        paths: per(sum.paths),
        queries: per(sum.queries),
        sat_queries: per(sum.sat_queries),
        sa_queries: per(sum.sa_queries),
        sa_queries_eliminated: per(sum.sa_queries_eliminated),
        sa_facts: per(sum.sa_facts),
        checkpoints_written: per(sum.checkpoints_written),
        resumed_from: per(sum.resumed_from),
        ..CountingObserver::new()
    }
}

/// The `warm_*` counters of a `runs`-round sum as exact per-round means,
/// ready for a JSON row. A mean need not be whole (see
/// [`counters_per_round`]); a single round renders as an integer.
pub fn warm_means(sum: &CountingObserver, runs: usize) -> Vec<(&'static str, Json)> {
    let n = runs.max(1) as f64;
    [
        ("warm_hits", sum.warm_hits),
        ("warm_misses", sum.warm_misses),
        ("warm_replays_skipped", sum.warm_replays_skipped),
        ("warm_prefix_reused", sum.warm_prefix_reused),
        ("warm_prefix_blasted", sum.warm_prefix_blasted),
        ("warm_cross_parent_reuse", sum.warm_cross_parent_reuse),
    ]
    .into_iter()
    .map(|(name, total)| (name, Json::F(total as f64 / n)))
    .collect()
}

/// Renders a [`binsym::Summary`] as a JSON object (shared row shape of
/// every bench bin).
pub fn summary_json(summary: &binsym::Summary, seconds: f64) -> Json {
    Json::O(vec![
        ("paths", Json::U(summary.paths)),
        ("error_paths", Json::U(summary.error_paths.len() as u64)),
        ("total_steps", Json::U(summary.total_steps)),
        ("solver_checks", Json::U(summary.solver_checks)),
        ("max_trail_len", Json::U(summary.max_trail_len as u64)),
        ("truncated", Json::B(summary.truncated)),
        ("seconds", Json::F(seconds)),
    ])
}

/// Renders a [`binsym::MetricsReport`] accumulated over `runs` rounds as a
/// JSON object: per-phase wall seconds (averaged back to one round, like
/// the timings), per-round path/query counts (deterministic across rounds,
/// so the division is exact), and the p50/p90/p99 solver-query latency
/// percentiles over the union histogram of all rounds.
pub fn metrics_json(report: &binsym::MetricsReport, runs: usize) -> Json {
    let n = runs.max(1) as u64;
    let phases: Vec<(&'static str, Json)> = binsym::Phase::ALL
        .iter()
        .map(|&p| (p.name(), Json::F(report.phase_seconds(p) / n as f64)))
        .collect();
    let latency = report.query_latency();
    Json::O(vec![
        ("phase_seconds", Json::O(phases)),
        ("paths", Json::U(report.paths / n)),
        ("queries", Json::U(report.queries / n)),
        (
            "query_latency",
            Json::O(vec![
                ("p50_seconds", Json::F(latency.percentile(0.50))),
                ("p90_seconds", Json::F(latency.percentile(0.90))),
                ("p99_seconds", Json::F(latency.percentile(0.99))),
                ("count", Json::U(latency.total() / n)),
            ]),
        ),
    ])
}

/// A parsed JSON value — the reading counterpart of the [`Json`] writer
/// (whose object keys are `&'static str` and thus cannot hold parsed
/// input). Used by the `trace_check` bin to validate trace files without
/// serde.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; trace timestamps fit exactly).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(JsonValue::Num)
                .ok_or_else(|| format!("invalid token at byte {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid utf8"));
            }
        }
    }
}

/// Shape summary of a validated trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceShape {
    /// Span-pair and instant events (metadata excluded).
    pub events: usize,
    /// Distinct tracks (`tid`s) carrying at least one event.
    pub tracks: usize,
}

/// Validates a trace file produced by `--trace` (the Chrome trace-event
/// document of `binsym::ChromeTraceSink`): the document parses, every `B`
/// has a matching same-name `E` on its track, timestamps are monotone per
/// track, and at least one track carries at least one event.
///
/// # Errors
/// Returns a description of the first schema violation.
pub fn validate_trace(text: &str) -> Result<TraceShape, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("unparseable trace document: {e}"))?;
    let events = doc
        .get("traceEvents")
        .ok_or("document has no traceEvents array")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut counted = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp/track semantics
        }
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i} has no name"))?;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i} has no tid"))? as u64;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i} has no ts"))?;
        let prev = last_ts.entry(tid).or_insert(ts);
        if ts < *prev {
            return Err(format!(
                "event {i} ({name}): ts {ts} goes backwards on track {tid}"
            ));
        }
        *prev = ts;
        counted += 1;
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let open = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: E without open span on track {tid}"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E {name:?} closes open span {open:?} on track {tid}"
                    ));
                }
            }
            "i" | "I" => {}
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("track {tid}: span {open:?} never closed"));
        }
    }
    if counted == 0 {
        return Err("trace carries no events".into());
    }
    Ok(TraceShape {
        events: counted,
        tracks: last_ts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_env_fallback() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = BenchOpts::parse(
            args(&["--workers", "4", "--json", "out.json"]).into_iter(),
            None,
            &[],
        );
        assert_eq!(o.workers, Some(4));
        assert_eq!(o.json.as_deref(), Some(Path::new("out.json")));
        assert!(!o.quick);

        let o = BenchOpts::parse(args(&["--quick"]).into_iter(), Some("2".into()), &[]);
        assert_eq!(o.workers, Some(2), "env fallback");
        assert!(o.quick);

        let o = BenchOpts::parse(args(&["--workers", "0"]).into_iter(), None, &[]);
        assert_eq!(o.workers, None, "0 means sequential");

        let o = BenchOpts::parse(args(&["--runs", "7"]).into_iter(), None, &[]);
        assert_eq!(o.runs, Some(7));

        let o = BenchOpts::parse(args(&["--strategy", "coverage"]).into_iter(), None, &[]);
        assert_eq!(o.strategy.as_deref(), Some("coverage"));

        let o = BenchOpts::parse(
            args(&["--memory-policy", "symbolic:64"]).into_iter(),
            None,
            &[],
        );
        assert_eq!(o.memory_policy.as_deref(), Some("symbolic:64"));
        let o = BenchOpts::parse(args(&["--quick"]).into_iter(), None, &[]);
        assert_eq!(o.memory_policy, None, "policy defaults to the engine's");
    }

    #[test]
    fn persistence_flags_parse_and_suffix_per_run() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = BenchOpts::parse(
            args(&["--checkpoint", "ck/base", "--checkpoint-every", "16"]).into_iter(),
            None,
            &[],
        );
        assert_eq!(o.checkpoint.as_deref(), Some(Path::new("ck/base")));
        assert_eq!(o.checkpoint_interval(), 16);
        assert!(o.wants_persistence());
        let spec = o.run_spec("angr (fixed)", "uri-parser", None);
        assert_eq!(
            spec.checkpoint,
            Some((PathBuf::from("ck/base.angr--fixed-.uri-parser.ck"), 16))
        );
        assert_eq!(spec.resume, None);

        let o = BenchOpts::parse(args(&["--resume", "ck/base"]).into_iter(), None, &[]);
        assert_eq!(o.checkpoint_interval(), 64, "default interval");
        let spec = o.run_spec("BinSym", "bubble-sort", None);
        assert_eq!(
            spec.resume.as_deref(),
            Some(Path::new("ck/base.binsym.bubble-sort.ck")),
            "resume suffixes identically to checkpoint"
        );

        let o = BenchOpts::parse(args(&["--quick"]).into_iter(), None, &[]);
        assert!(!o.wants_persistence());
        let spec = o.run_spec("BinSym", "bubble-sort", None);
        assert!(spec.checkpoint.is_none() && spec.resume.is_none());
    }

    #[test]
    #[should_panic(expected = "invalid value for --workers")]
    fn malformed_workers_value_fails_loudly() {
        let args = vec!["--workers".to_string(), "fourr".to_string()];
        let _ = BenchOpts::parse(args.into_iter(), None, &[]);
    }

    #[test]
    #[should_panic(expected = "invalid value for --runs: \"0\" (at least one run is needed)")]
    fn zero_runs_fail_loudly() {
        let args = vec!["--runs".to_string(), "0".to_string()];
        let _ = BenchOpts::parse(args.into_iter(), None, &[]);
    }

    #[test]
    #[should_panic(expected = "unknown flag \"--procs\"")]
    fn unknown_flags_fail_loudly() {
        // No bin takes `--procs` or `--verify`: a script passing them must
        // fail, not get a plain hunt and exit 0. `--benchmark` comes first
        // and passes as one of the bin's own flags.
        let args = ["--benchmark", "table-lookup", "--procs", "2", "--verify"].map(String::from);
        let _ = BenchOpts::parse(args.into_iter(), None, &["--benchmark", "--records"]);
    }

    #[test]
    #[should_panic(
        expected = "invalid value for --checkpoint-every: \"0\" (the interval must be at least one path)"
    )]
    fn zero_checkpoint_interval_fails_loudly() {
        let args = ["--checkpoint", "ck", "--checkpoint-every", "0"].map(String::from);
        let _ = BenchOpts::parse(args.into_iter(), None, &[]);
    }

    #[test]
    #[should_panic(expected = "--workers needs a value")]
    fn trailing_workers_flag_fails_loudly() {
        let args = vec!["--workers".to_string()];
        let _ = BenchOpts::parse(args.into_iter(), None, &[]);
    }

    #[test]
    #[should_panic(expected = "--workers needs a value (found flag \"--quick\" instead)")]
    fn flag_as_value_is_rejected_with_the_real_problem() {
        // Used to silently take `--quick` as the worker count and then
        // panic with a misleading "invalid value for --workers" message.
        let args = vec!["--workers".to_string(), "--quick".to_string()];
        let _ = BenchOpts::parse(args.into_iter(), None, &[]);
    }

    #[test]
    #[should_panic(expected = "--json needs a value (found flag \"--workers\" instead)")]
    fn flag_as_value_is_rejected_for_string_flags_too() {
        let args = vec![
            "--json".to_string(),
            "--workers".to_string(),
            "2".to_string(),
        ];
        let _ = BenchOpts::parse(args.into_iter(), None, &[]);
    }

    #[test]
    fn negative_looking_values_are_not_flags() {
        // A single leading dash is a value, not a flag: only `--`-prefixed
        // tokens are rejected.
        let args = vec!["--json".to_string(), "-out.json".to_string()];
        let o = BenchOpts::parse(args.into_iter(), None, &[]);
        assert_eq!(o.json.as_deref(), Some(Path::new("-out.json")));
    }

    #[test]
    fn smoke_flag_parses() {
        let args = vec!["--smoke".to_string()];
        let o = BenchOpts::parse(args.into_iter(), None, &[]);
        assert!(o.smoke);
        assert!(!o.quick);
    }

    #[test]
    fn multi_run_counters_average_back_to_single_round_values() {
        let round = CountingObserver {
            queries: 719,
            sat_queries: 719,
            warm_hits: 12,
            sa_queries: 2421,
            sa_queries_eliminated: 1702,
            sa_facts: 31,
            ..CountingObserver::new()
        };
        let mut sum = CountingObserver::new();
        for _ in 0..3 {
            add_counters(&mut sum, &round);
        }
        assert_eq!(sum.sa_queries_eliminated, 3 * 1702, "accumulated");
        let avg = counters_per_round(&sum, 3);
        assert_eq!(avg.queries, round.queries);
        assert_eq!(avg.sa_queries, round.sa_queries);
        assert_eq!(avg.sa_queries_eliminated, round.sa_queries_eliminated);
        assert_eq!(avg.sa_facts, round.sa_facts);
        // runs = 0 clamps to a single round.
        assert_eq!(counters_per_round(&round, 0).queries, round.queries);
        // The warm counters average through `warm_means`; equal rounds give
        // the round's own value, rendered as an integer.
        let warm = Json::O(warm_means(&sum, 3)).render();
        assert!(warm.starts_with("{\"warm_hits\":12,"), "{warm}");
    }

    #[test]
    fn warm_counters_average_exactly_when_rounds_differ() {
        // At 2+ workers the warm counters depend on stealing: two rounds
        // of one ablation datapoint gave 92 and 93 cache hits. Their sum
        // is not a multiple of the round count; the other counters repeat.
        let mut sum = CountingObserver::new();
        for warm_hits in [92, 93] {
            let round = CountingObserver {
                queries: 119,
                warm_hits,
                warm_prefix_reused: 2 * warm_hits,
                ..CountingObserver::new()
            };
            add_counters(&mut sum, &round);
        }
        let c = counters_per_round(&sum, 2);
        assert_eq!(c.queries, 119, "schedule-independent counters stay exact");
        assert_eq!(c.warm_hits, 0, "warm counters are left to warm_means");
        let warm = warm_means(&sum, 2);
        let mean = |name: &str| match warm.iter().find(|(k, _)| *k == name) {
            Some((_, Json::F(v))) => *v,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(mean("warm_hits"), 92.5);
        assert_eq!(mean("warm_prefix_reused"), 185.0);
        assert_eq!(mean("warm_misses"), 0.0);
        assert_eq!(warm.len(), 6, "every warm counter is reported");
    }

    #[test]
    fn ablation_row_emits_averaged_counters() {
        // The regression this guards: `--json --runs N` used to average
        // the seconds but emit the counters of whichever round ran last.
        // Build the row the way the ablation bin does and parse the
        // counters back out of the rendered JSON.
        let one = CountingObserver {
            sa_queries: 2421,
            sa_queries_eliminated: 1702,
            ..CountingObserver::new()
        };
        let mut sum = CountingObserver::new();
        for _ in 0..4 {
            add_counters(&mut sum, &one);
        }
        let c = counters_per_round(&sum, 4);
        let row = Json::O(vec![
            ("ablation", Json::s("static-analysis")),
            ("sa_queries", Json::U(c.sa_queries)),
            ("sa_queries_eliminated", Json::U(c.sa_queries_eliminated)),
        ]);
        let rendered = row.render();
        let field = |key: &str| -> u64 {
            let pat = format!("\"{key}\":");
            let at = rendered.find(&pat).expect("key present") + pat.len();
            rendered[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("number")
        };
        assert_eq!(field("sa_queries"), 2421);
        assert_eq!(field("sa_queries_eliminated"), 1702);
    }

    #[test]
    fn json_renders_escaped_and_nested() {
        let v = Json::O(vec![
            ("name", Json::s("a\"b\\c")),
            ("n", Json::U(42)),
            ("ok", Json::B(true)),
            ("xs", Json::A(vec![Json::F(1.5), Json::U(2)])),
            ("none", Json::Null),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"a\"b\\c","n":42,"ok":true,"xs":[1.5,2],"none":null}"#
        );
    }

    #[test]
    fn json_value_roundtrips_writer_output() {
        let doc = Json::O(vec![
            ("name", Json::s("sp\"an\\x")),
            ("n", Json::U(42)),
            ("f", Json::F(1.5)),
            ("ok", Json::B(true)),
            ("none", Json::Null),
            ("xs", Json::A(vec![Json::U(1), Json::U(2)])),
        ])
        .render();
        let v = JsonValue::parse(&doc).expect("parses");
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("sp\"an\\x"));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(42.0));
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("xs").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert!(JsonValue::parse("{\"a\":1,}").is_err());
        assert!(JsonValue::parse("[1 2]").is_err());
        assert!(JsonValue::parse("{\"a\":1} trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn metrics_json_averages_over_runs() {
        use binsym::{MetricsRegistry, Phase};
        let registry = MetricsRegistry::new(1);
        // Two identical rounds on shard 0: 4s of solving, 6 paths,
        // 2 queries total.
        for _ in 0..2 {
            registry.shard(0).record_phase(Phase::Solve, 2_000_000_000);
            for _ in 0..3 {
                registry.shard(0).note_path();
            }
            registry.shard(0).record_query(1_000_000);
        }
        let rendered = metrics_json(&registry.report(), 2).render();
        let doc = JsonValue::parse(&rendered).expect("metrics json parses");
        let phase = doc.get("phase_seconds").expect("phase_seconds");
        let solve = phase
            .get("solve")
            .and_then(JsonValue::as_f64)
            .expect("solve");
        assert!((solve - 2.0).abs() < 1e-9, "per-round solve secs: {solve}");
        assert_eq!(doc.get("paths").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(doc.get("queries").and_then(JsonValue::as_f64), Some(1.0));
        let latency = doc.get("query_latency").expect("query_latency");
        assert_eq!(latency.get("count").and_then(JsonValue::as_f64), Some(1.0));
        let p99 = latency
            .get("p99_seconds")
            .and_then(JsonValue::as_f64)
            .expect("p99");
        assert!(p99 > 0.0);
        // Every phase name appears, even idle ones.
        for p in Phase::ALL {
            assert!(phase.get(p.name()).is_some(), "missing phase {}", p.name());
        }
    }

    #[test]
    fn validate_trace_accepts_real_sink_output() {
        use binsym::{ChromeTraceSink, TraceSink};
        let chrome = ChromeTraceSink::new();
        chrome.begin_span(0, "solve");
        chrome.begin_span(1, "execute");
        chrome.instant(0, "warm_rollback");
        chrome.end_span(1, "execute");
        chrome.end_span(0, "solve");
        let shape = validate_trace(&chrome.render()).expect("chrome trace valid");
        assert_eq!(shape.tracks, 2);
        assert_eq!(shape.events, 5);
    }

    #[test]
    fn validate_trace_rejects_malformed_traces() {
        // Unbalanced: B without E.
        let dangling = r#"{"traceEvents":[
{"name":"solve","ph":"B","ts":1,"pid":1,"tid":0}
]}"#;
        assert!(validate_trace(dangling)
            .unwrap_err()
            .contains("never closed"));
        // E closing the wrong span name.
        let crossed = r#"{"traceEvents":[
{"name":"solve","ph":"B","ts":1,"pid":1,"tid":0},
{"name":"execute","ph":"E","ts":2,"pid":1,"tid":0}
]}"#;
        assert!(validate_trace(crossed)
            .unwrap_err()
            .contains("closes open span"));
        // Timestamps must be monotone per track.
        let backwards = r#"{"traceEvents":[
{"name":"a","ph":"i","ts":5,"pid":1,"tid":0,"s":"t"},
{"name":"b","ph":"i","ts":3,"pid":1,"tid":0,"s":"t"}
]}"#;
        assert!(validate_trace(backwards).unwrap_err().contains("backwards"));
        // An empty trace is a failure, not a vacuous pass.
        assert!(validate_trace(r#"{"traceEvents":[]}"#).is_err());
        assert!(validate_trace("not json at all").is_err());
    }
}
