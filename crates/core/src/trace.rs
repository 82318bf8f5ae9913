//! Structured trace layer: span and instant events into a pluggable sink,
//! with a Chrome trace-event (Perfetto/catapult) exporter.
//!
//! The engine emits begin/end spans around each timed
//! [`Phase`](crate::Phase) and optional instant markers through a
//! [`TraceSink`]. Sinks stamp their **own** timestamps from a
//! construction-time epoch, so one sink can be shared across several
//! sessions (the bench bins run many engines into a single trace file) and
//! per-track timestamps stay monotone. Tracks map to worker
//! threads — track `i` is worker `i`, and a parallel run's merge phase lands
//! on track `workers` — so a hunt traced through [`ChromeTraceSink`] opens
//! in `ui.perfetto.dev` or `chrome://tracing` with one lane per worker.
//!
//! Like the metrics registry, tracing is wall-time-only: sinks observe the
//! engine and never feed anything back, so traced runs merge byte-identical
//! records (pinned in both determinism suites).

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A consumer of structured trace events.
///
/// Implementations stamp their own timestamps (microseconds from their own
/// epoch) and must tolerate concurrent calls from multiple worker threads;
/// the engine guarantees each track is driven by a single thread, so events
/// on one track always arrive in timestamp order.
pub trait TraceSink: Send + Sync {
    /// A span (duration) named `name` opens on `track`.
    fn begin_span(&self, track: u32, name: &str);
    /// The innermost open span named `name` on `track` closes.
    fn end_span(&self, track: u32, name: &str);
    /// A zero-duration marker on `track`.
    fn instant(&self, track: u32, name: &str);
}

/// Escape `name` into `out` as a JSON string body (no surrounding quotes).
fn escape_into(out: &mut String, name: &str) {
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One buffered Chrome trace event.
struct ChromeEvent {
    ph: char,
    track: u32,
    ts: u64,
    name: String,
}

/// A [`TraceSink`] buffering events in memory and rendering them as a Chrome
/// trace-event JSON document (`{"traceEvents":[...]}`) that opens directly
/// in `ui.perfetto.dev` or `chrome://tracing`, with one named thread track
/// per worker.
pub struct ChromeTraceSink {
    epoch: Instant,
    events: Mutex<Vec<ChromeEvent>>,
}

impl ChromeTraceSink {
    /// An empty sink; the timestamp epoch starts now.
    pub fn new() -> Self {
        ChromeTraceSink {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    fn emit(&self, ph: char, track: u32, name: &str) {
        let ts = self.epoch.elapsed().as_micros() as u64;
        let event = ChromeEvent {
            ph,
            track,
            ts,
            name: name.to_owned(),
        };
        self.events.lock().expect("trace sink lock").push(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink lock").len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the buffered events as a Chrome trace-event JSON document.
    ///
    /// Events are stably sorted by timestamp (preserving per-track order)
    /// and each track gets a `thread_name` metadata record (`worker-<i>`)
    /// so Perfetto labels the lanes.
    pub fn render(&self) -> String {
        let events = self.events.lock().expect("trace sink lock");
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| events[i].ts);
        let mut tracks: Vec<u32> = events.iter().map(|e| e.track).collect();
        tracks.sort_unstable();
        tracks.dedup();

        let mut out = String::with_capacity(events.len() * 80 + 256);
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"binsym\"}}",
        );
        for track in &tracks {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{track},\
                 \"args\":{{\"name\":\"worker-{track}\"}}}}"
            );
        }
        for i in order {
            let e = &events[i];
            out.push_str(",\n{\"name\":\"");
            escape_into(&mut out, &e.name);
            let _ = write!(
                out,
                "\",\"cat\":\"binsym\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                e.ph, e.ts, e.track
            );
            if e.ph == 'i' {
                out.push_str(",\"s\":\"t\"");
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Render and write the document to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.render())
    }
}

impl Default for ChromeTraceSink {
    fn default() -> Self {
        ChromeTraceSink::new()
    }
}

impl TraceSink for ChromeTraceSink {
    fn begin_span(&self, track: u32, name: &str) {
        self.emit('B', track, name);
    }

    fn end_span(&self, track: u32, name: &str) {
        self.emit('E', track, name);
    }

    fn instant(&self, track: u32, name: &str) {
        self.emit('i', track, name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Scrape a rendered document into `(ph, tid, ts, name)` tuples. The
    /// sink renders one event per line, so per-line key scraping gives
    /// enough structure for well-formedness checks without a JSON parser in
    /// this crate (the bench crate's `trace_check` bin does full parsing).
    fn scrape(text: &str) -> Vec<(char, u32, u64, String)> {
        fn field(line: &str, key: &str) -> Option<String> {
            let start = line.find(key)? + key.len();
            let tail = &line[start..];
            let end = tail.find([',', '}']).unwrap_or(tail.len());
            Some(tail[..end].to_string())
        }

        let mut events = Vec::new();
        for line in text.lines() {
            let Some(ph_at) = line.find("\"ph\":\"") else {
                continue;
            };
            let ph = line[ph_at + 6..].chars().next().expect("ph char");
            if ph == 'M' {
                continue;
            }
            let tid = field(line, "\"tid\":").expect("tid").parse().expect("tid");
            let ts = field(line, "\"ts\":").expect("ts").parse().expect("ts");
            let name_at = line.find("\"name\":\"").expect("name") + 8;
            let name_tail = &line[name_at..];
            let mut end = 0;
            let bytes = name_tail.as_bytes();
            while end < bytes.len() && bytes[end] != b'"' {
                end += if bytes[end] == b'\\' { 2 } else { 1 };
            }
            events.push((ph, tid, ts, name_tail[..end.min(bytes.len())].to_string()));
        }
        events
    }

    fn assert_balanced_and_monotone(events: &[(char, u32, u64, String)]) {
        let mut tracks: Vec<u32> = events.iter().map(|e| e.1).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for track in tracks {
            let mut stack: Vec<&str> = Vec::new();
            let mut last_ts = 0u64;
            for (ph, tid, ts, name) in events {
                if *tid != track {
                    continue;
                }
                assert!(*ts >= last_ts, "track {track}: ts must be monotone");
                last_ts = *ts;
                match ph {
                    'B' => stack.push(name),
                    'E' => {
                        let open = stack.pop().expect("E without B");
                        assert_eq!(open, name, "track {track}: span nesting");
                    }
                    'i' => {}
                    other => panic!("unexpected ph {other}"),
                }
            }
            assert!(stack.is_empty(), "track {track}: unbalanced spans");
        }
    }

    #[test]
    fn chrome_sink_renders_balanced_per_track_spans() {
        let sink = ChromeTraceSink::new();
        sink.begin_span(0, "execute");
        sink.begin_span(1, "replay");
        sink.end_span(1, "replay");
        sink.instant(1, "cache-hit");
        sink.end_span(0, "execute");
        sink.begin_span(0, "solve");
        sink.end_span(0, "solve");
        assert_eq!(sink.len(), 7);
        let doc = sink.render();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"thread_name\""), "thread metadata");
        assert!(doc.contains("worker-0") && doc.contains("worker-1"));
        let events = scrape(&doc);
        assert_eq!(events.len(), 7);
        assert_balanced_and_monotone(&events);
    }

    #[test]
    fn shared_sink_keeps_tracks_monotone_across_sessions() {
        // The bench bins reuse one sink for several sequential sessions, all
        // on track 0 — timestamps must still be monotone because the sink
        // owns the epoch.
        let sink = Arc::new(ChromeTraceSink::new());
        for _ in 0..3 {
            sink.begin_span(0, "execute");
            sink.end_span(0, "execute");
        }
        let events = scrape(&sink.render());
        assert_eq!(events.len(), 6);
        assert_balanced_and_monotone(&events);
    }
}
