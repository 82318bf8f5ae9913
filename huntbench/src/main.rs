//! Hunt benchmark command line.
//!
//! ```text
//! cargo run --release --manifest-path huntbench/Cargo.toml -- \
//!     --workload seq|par-cold|par-warm --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` repeats plain hunts for `S` seconds and reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics (see
//! [`binsym_huntbench::run`]). The seed only permutes the order of the
//! programs within a hunt. A per-metric table goes to standard error; the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use binsym_huntbench::{cpu_seconds, run, shuffled, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (seq, par-cold, par-warm)")?,
        seed,
        seconds,
        trace,
    })
}

/// A directory for `par-warm`'s checkpoints inside the build directory.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("huntbench/target"), PathBuf::from);
    target.join(format!("huntbench-scratch-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("huntbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("huntbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let cpu0 = cpu_seconds();
    let jobs = shuffled(args.workload.jobs(), args.seed);
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        run::traced(args.workload, &jobs, &scratch, budget)
    } else {
        run::plain(args.workload, &jobs, &scratch, budget)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("huntbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in outcome.oracle.problems.iter().take(20) {
        eprintln!("oracle: {p}");
    }
    eprintln!(
        "{} seed {}: {} CPU s in total; plain hunt seconds {:.3?}",
        args.workload.name(),
        args.seed,
        cpu_seconds() - cpu0,
        outcome.hunt_s
    );
    let mut fields = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("huntbench: metric {} is not finite", m.name);
            return ExitCode::FAILURE;
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let report = &outcome.oracle;
    let correct = report.failed == 0 && report.problems.is_empty() && outcome.trace_ok;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
