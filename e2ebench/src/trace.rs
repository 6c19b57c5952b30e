//! Span recording for the traced replay, and the counting allocator
//! that gives per-layer allocation counts.
//!
//! A span is `(name, start, end, parent, request id)` plus the number
//! of heap allocations made while it was open. Spans stay in memory and
//! are written out once, after the run. A layer's self time is its
//! span's duration minus the time its child spans cover; self
//! allocations are counted the same way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counts allocations while [`COUNTING`] is set, and nothing else: the
/// untraced load pays one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The replayed request this span belongs to.
    pub req: u64,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
}

/// Records spans when on; when off, [`Tracer::span`] only runs the
/// closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Starts counting allocations for this tracer's lifetime.
    pub fn begin(&self) {
        if self.on {
            COUNTING.store(true, Ordering::SeqCst);
        }
    }

    /// Stops counting allocations.
    pub fn end(&self) {
        COUNTING.store(false, Ordering::SeqCst);
    }

    /// Sets the request id that new spans carry.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            req: self.req,
            allocs: 0,
        });
        self.stack.push(idx);
        let a0 = allocs_now();
        let t0 = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let t1 = self.epoch.elapsed().as_nanos() as u64;
        let a1 = allocs_now();
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.start_ns = t0;
        span.end_ns = t1;
        span.allocs = a1 - a0;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

/// Folds spans into per-name self time and self allocations.
pub fn self_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
            child_allocs[p] += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += dur.saturating_sub(child_ns[i]);
        t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
    }
    out
}

/// Renders spans as JSON lines: one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"allocs\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.req, s.allocs
        ));
    }
    out
}
