//! Span recorder for the traced run, plus a heap counter.
//!
//! Spans (name, start, end, parent, operation id) are recorded by the
//! benchmark's own code around each call into a layer. Calls too frequent
//! to keep one span each — the probe's per-configuration snapshot, restore,
//! fingerprint, step and dedup calls, and the engine's `co_net::prof`
//! phases — are kept as aggregates (count and total time under a named
//! parent). Everything stays in memory until [`Tracer::write`] runs at the
//! end of the benchmark.

use co_json::{object, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Clone, Debug, Default)]
struct Aggregate {
    parent: &'static str,
    count: u64,
    total_ns: u64,
}

/// Count and total time of one kind of frequent call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub count: u64,
    pub ns: u64,
}

impl Acc {
    /// Times one call of `f`.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.count += 1;
        r
    }

    /// Mean nanoseconds per call (0 with no calls).
    pub fn mean_ns(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }

    pub fn add(&mut self, other: Acc) {
        self.count += other.count;
        self.ns += other.ns;
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    aggregates: BTreeMap<&'static str, Aggregate>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's creation to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (for children).
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result, the span index and
    /// its duration.
    pub fn run<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize, Duration) {
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        let idx = self.span(name, start, end, parent, op);
        (r, idx, Duration::from_nanos(end - start))
    }

    /// Adds calls of `name`, made inside spans named `parent`, to the
    /// aggregates. Aggregates from several worker threads sum thread time.
    pub fn aggregate(&mut self, name: &'static str, parent: &'static str, acc: Acc) {
        let a = self.aggregates.entry(name).or_default();
        a.parent = parent;
        a.count += acc.count;
        a.total_ns += acc.ns;
    }

    /// Per layer name: (count, total ns, self ns). A span's self time is its
    /// duration minus the part of it covered by child spans (their union)
    /// and minus its child aggregates, floored at zero.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut intervals: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered.min(total);
        }
        for (name, a) in &self.aggregates {
            let e = out.entry(name).or_default();
            e.0 += a.count;
            e.1 += a.total_ns;
            e.2 += a.total_ns;
            if let Some(p) = out.get_mut(a.parent) {
                p.2 = p.2.saturating_sub(a.total_ns);
            }
        }
        out
    }

    /// Writes every span, aggregate and self time as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let line = object([
                ("span", Value::from(s.name)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                ("parent", s.parent.map_or(Value::Null, Value::from)),
                ("op", Value::from(s.op)),
            ]);
            text.push_str(&line.to_string_compact());
            text.push('\n');
        }
        for (name, a) in &self.aggregates {
            let line = object([
                ("aggregate", Value::from(*name)),
                ("parent", Value::from(a.parent)),
                ("count", Value::from(a.count)),
                ("total_ns", Value::from(a.total_ns)),
            ]);
            text.push_str(&line.to_string_compact());
            text.push('\n');
        }
        for (name, (count, total, own)) in self.self_times() {
            let line = object([
                ("layer", Value::from(name)),
                ("count", Value::from(count)),
                ("total_ns", Value::from(total)),
                ("self_ns", Value::from(own)),
            ]);
            text.push_str(&line.to_string_compact());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// The system allocator, plus a live-byte counter that only runs while
/// [`count_heap`] is on (one relaxed load per call otherwise). The probe
/// uses it to measure the dedup index's real heap footprint.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);

#[inline]
fn note(delta: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter only reads
// `layout.size()` and touches no memory it hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; `ptr` came from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Turns heap counting on or off.
pub fn count_heap(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Live heap bytes counted since counting began.
pub fn live_heap() -> isize {
    LIVE.load(Ordering::Relaxed)
}
