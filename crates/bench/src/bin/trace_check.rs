//! Schema check for the Chrome trace-event documents the bench bins write
//! with `--trace PATH` — the CI gate behind the bench smoke step.
//!
//! ```text
//! cargo run --release -p binsym-bench --bin trace_check -- FILE...
//! ```
//!
//! For each file: the document must parse, every `B` span must be closed by
//! a matching same-name `E` on its track, timestamps must be monotone per
//! track, and the trace must carry at least one event. Exits nonzero on
//! the first violation.

use std::process::ExitCode;

use binsym_bench::cli::validate_trace;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: trace_check FILE...");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                ok = false;
                continue;
            }
        };
        match validate_trace(&text) {
            Ok(shape) => println!(
                "{path}: ok — {} events across {} track(s), all spans balanced",
                shape.events, shape.tracks
            ),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
