//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing is traced inside the program itself.
//!
//! A span has a name, start, end, parent and request id, plus the items
//! it covered and the allocation calls made on the recording thread
//! while it was open. Spans stay in a `Vec` until the run ends; a
//! span's self time is its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub items: u64,
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub items: u64,
    pub allocs: u64,
}

/// A span recorder. When off, `begin`/`end` do nothing but return, so
/// the same code runs traced and untraced.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A handle to an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, t0: Instant) -> Self {
        Tracer {
            on,
            t0,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::with_capacity(16),
        }
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            items: 0,
            // Allocation calls at begin until `end` turns it into a count.
            allocs: alloc::calls(),
        });
        self.open.push(id);
        // Stamp last, so the span's own bookkeeping stays outside it.
        self.spans[id].start_ns = self.t0.elapsed().as_nanos() as u64;
        Open(Some(id))
    }

    pub fn end(&mut self, span: Open, items: u64) {
        let Some(id) = span.0 else { return };
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let allocs = alloc::calls();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.items = items;
        s.allocs = allocs - s.allocs;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded from index `from` on (one ladder pass).
    pub fn since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Self time of every span in `spans` (indices are into the full span
/// list, `offset` being the index of `spans[0]`).
pub fn self_times(spans: &[Span], offset: usize) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p >= offset {
                child[p - offset] += s.dur_ns();
            }
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals over `spans`.
pub fn totals(spans: &[Span], offset: usize) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans, offset);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.items += s.items;
        t.allocs += s.allocs;
    }
    out
}

/// Durations in ns of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The spans as a JSON array, one object per span with its self time.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans, 0);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
             \"parent\":{parent},\"req\":{},\"items\":{},\"allocs\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req, s.items, s.allocs
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}
