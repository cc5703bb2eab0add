//! Host-time spans recorded around calls into the program's layers.
//!
//! Spans stay in memory while the traced replay runs and are written once
//! at the end as Chrome trace-event JSON, which Perfetto and
//! `chrome://tracing` load directly.

use std::time::{Duration, Instant};

struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Option<Duration>,
}

/// An in-memory span recorder; span times are offsets from its creation.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span, and return its result with the span's duration in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: None,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed();
        self.spans[id].end = Some(end);
        (out, (end - self.spans[id].start).as_secs_f64())
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per closed span,
    /// timestamps in microseconds, the parent's index in `args`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (id, span) in self.spans.iter().enumerate() {
            let Some(end) = span.end else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            let ts = span.start.as_secs_f64() * 1e6;
            let dur = (end - span.start).as_secs_f64() * 1e6;
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                escape(&span.name)
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_complete_events() {
        let mut spans = Spans::new();
        let ((), outer) = spans.time("outer", |s| {
            let (v, inner) = s.time("in\"ner", |_| 41 + 1);
            assert_eq!(v, 42);
            assert!(inner >= 0.0);
        });
        assert!(outer >= 0.0);
        assert_eq!(spans.len(), 2);
        let json = spans.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"outer\",\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"in\\\"ner\""));
        assert!(json.contains("\"args\":{\"id\":0,\"parent\":null}"));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0}"));
    }
}
