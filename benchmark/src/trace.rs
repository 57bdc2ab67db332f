//! In-memory span recorder for the traced run.
//!
//! One span per call the harness makes into a layer: `op` (one trace op)
//! with child `syscall.<call>` spans, `tick`/`heal` with children
//! `propagate.deliver`, `propagate.run.h<N>`, `recon.pass.h<N>`,
//! `resolver.run.h<N>`. Times are the driver thread's CPU clock. Spans stay
//! in memory until the run ends and are then written as JSON lines, with
//! the counter snapshots taken at segment boundaries interleaved in order.

use std::io::Write;

use crate::clock::bm_thread_cpu_ns;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct BmSpan {
    /// Span id (1-based; 0 means "no span").
    pub id: u32,
    /// Id of the span that caused this one, 0 for a root span.
    pub parent: u32,
    /// Id of the root span (`op`, `tick` or `heal`) this span belongs to.
    pub op_id: u32,
    /// Span name without its host suffix.
    pub name: &'static str,
    /// Host the call ran at (0 = not host-specific); written as `.h<N>`.
    pub host: u32,
    /// Start, thread-CPU nanoseconds.
    pub start_ns: u64,
    /// End, thread-CPU nanoseconds.
    pub end_ns: u64,
}

/// A line of the trace file: a span is referenced by index, anything else
/// (counter snapshots) is kept as pre-rendered JSON.
enum BmRecord {
    Span(usize),
    Json(String),
}

/// The recorder.
#[derive(Default)]
pub struct BmTrace {
    spans: Vec<BmSpan>,
    records: Vec<BmRecord>,
}

impl BmTrace {
    /// An empty recorder with room for `capacity` spans.
    #[must_use]
    pub fn bm_with_capacity(capacity: usize) -> Self {
        BmTrace {
            spans: Vec::with_capacity(capacity),
            records: Vec::with_capacity(capacity),
        }
    }

    /// Opens a span now; returns its id.
    pub fn bm_begin(&mut self, name: &'static str, host: u32, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let op_id = if parent == 0 {
            id
        } else {
            self.spans[parent as usize - 1].op_id
        };
        self.records.push(BmRecord::Span(self.spans.len()));
        self.spans.push(BmSpan {
            id,
            parent,
            op_id,
            name,
            host,
            start_ns: bm_thread_cpu_ns(),
            end_ns: 0,
        });
        id
    }

    /// Closes span `id` now; returns its duration.
    pub fn bm_end(&mut self, id: u32) -> u64 {
        let now = bm_thread_cpu_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Adds a pre-rendered JSON object (a counter snapshot) to the stream.
    pub fn bm_note(&mut self, json: String) {
        self.records.push(BmRecord::Json(json));
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn bm_spans(&self) -> &[BmSpan] {
        &self.spans
    }

    /// Writes the trace as JSON lines.
    pub fn bm_write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for r in &self.records {
            match r {
                BmRecord::Json(j) => writeln!(out, "{j}")?,
                BmRecord::Span(i) => {
                    let s = &self.spans[*i];
                    let suffix = if s.host == 0 {
                        String::new()
                    } else {
                        format!(".h{}", s.host)
                    };
                    writeln!(
                        out,
                        "{{\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}{}\",\
                         \"start_ns\":{},\"end_ns\":{}}}",
                        s.id, s.parent, s.op_id, s.name, suffix, s.start_ns, s.end_ns
                    )?;
                }
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_inherit_the_root_id_and_lines_keep_order() {
        let mut t = BmTrace::bm_with_capacity(4);
        let op = t.bm_begin("op", 0, 0);
        let sys = t.bm_begin("syscall.open", 0, op);
        t.bm_end(sys);
        t.bm_end(op);
        t.bm_note("{\"snapshot\":\"x\"}".into());
        let tick = t.bm_begin("tick", 0, 0);
        let run = t.bm_begin("propagate.run", 2, tick);
        t.bm_end(run);
        t.bm_end(tick);

        assert_eq!(t.bm_spans()[1].op_id, op);
        assert_eq!(t.bm_spans()[3].op_id, tick);
        let duration = |s: &BmSpan| s.end_ns - s.start_ns;
        assert!(duration(&t.bm_spans()[0]) >= duration(&t.bm_spans()[1]));

        let mut buf = Vec::new();
        t.bm_write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[2].contains("snapshot"));
        assert!(lines[4].contains("\"name\":\"propagate.run.h2\""));
    }
}
