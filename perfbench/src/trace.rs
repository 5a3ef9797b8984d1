//! In-memory spans for the traced run: name, start, end, parent and
//! request id, kept in a bounded vector and written out when the run ends.
//!
//! A layer's self time is its span's duration minus the time its child
//! spans cover. Each child's two clock reads run inside the parent's
//! interval, so their calibrated cost is charged to the child, not to the
//! parent's self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    req: u64,
}

/// Totals of every span sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: f64,
    /// Summed self times, ns.
    pub self_ns: f64,
}

impl LayerTotal {
    /// Mean span duration, ns (0 when no span was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }
}

/// The span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    clock_ns: f64,
}

impl Tracer {
    /// A tracer keeping at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        let origin = Instant::now();
        let reps = 20_000u32;
        let t = Instant::now();
        let mut sink = 0u64;
        for _ in 0..reps {
            sink = sink.wrapping_add(origin.elapsed().as_nanos() as u64);
        }
        std::hint::black_box(sink);
        let clock_ns = t.elapsed().as_nanos() as f64 / f64::from(reps);
        Tracer {
            origin,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            clock_ns,
        }
    }

    /// Nanoseconds since the tracer was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether `k` more spans fit.
    pub fn has_room(&self, k: usize) -> bool {
        self.spans.len() + k <= self.cap
    }

    /// Opens a span at the current time; returns its index (or [`ROOT`]
    /// when the store is full).
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = self.now();
        self.record(name, now, now, parent, req)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, idx: u32) {
        let now = self.now();
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end = now;
        }
    }

    /// Records a finished span; returns its index (or [`ROOT`] when full).
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u32,
        req: u64,
    ) -> u32 {
        if self.spans.len() >= self.cap {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Per-name totals with self times.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut covered = vec![0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                let dur = s.end.saturating_sub(s.start) as f64;
                covered[s.parent as usize] += dur + 2.0 * self.clock_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(&covered) {
            let dur = s.end.saturating_sub(s.start) as f64;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += (dur - cov).max(0.0);
        }
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start) as f64)
            .collect()
    }

    /// Writes every span as CSV: `name,start_ns,end_ns,parent,request`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,start_ns,end_ns,parent,request")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(w, "{},{},{},{},{}", s.name, s.start, s.end, parent, s.req)?;
        }
        w.flush()
    }
}
