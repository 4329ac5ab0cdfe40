//! An in-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark's own code around the public calls
//! into each layer (name, start, end, parent, operation id), kept in memory
//! per lane, and written out once when the run ends. A layer's *self time*
//! is its spans' duration minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `nay.clia.solve_bool`.
    pub name: String,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing span in the same lane, if any.
    pub parent: Option<usize>,
    /// The operation (sample) the span belongs to.
    pub op: u64,
}

/// The spans of one lane (one thread issuing operations).
pub struct Tracer {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose offsets count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span of this lane.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Like [`Tracer::span`], but names the span after `f` returns, from
    /// its result (e.g. a cache hit or miss).
    pub fn span_named<R>(
        &mut self,
        f: impl FnOnce(&mut Tracer) -> R,
        name: impl FnOnce(&R) -> &'static str,
    ) -> R {
        let index = self.spans.len();
        let result = self.span("", f);
        self.spans[index].name = name(&result).to_string();
        result
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The recorder's own cost per span in nanoseconds, measured by opening
/// and closing empty spans on a scratch recorder.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let mut tracer = Tracer::new(Instant::now());
    let started = Instant::now();
    for _ in 0..SPANS {
        tracer.span("probe", |_| ());
    }
    started.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

/// Per-layer totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span duration, children included, in seconds.
    pub busy_s: f64,
    /// Summed duration not covered by child spans, in seconds.
    pub self_s: f64,
}

/// Per-layer totals of every lane's spans, keyed by layer name.
pub fn ledger(lanes: &[Tracer]) -> BTreeMap<String, LayerTotals> {
    let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for lane in lanes {
        let spans = lane.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let totals = out.entry(span.name.clone()).or_default();
            totals.calls += 1;
            totals.busy_s += dur as f64 * 1e-9;
            totals.self_s += dur.saturating_sub(children) as f64 * 1e-9;
        }
    }
    out
}

/// Writes every lane's spans as JSON lines to `path`, creating its
/// directory.
pub fn write_spans(path: &std::path::Path, lanes: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::new();
    for (lane, tracer) in lanes.iter().enumerate() {
        for (index, span) in tracer.spans().iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"lane\":{lane},\"id\":{index},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.op, span.name, span.start_ns, span.end_ns
            );
        }
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = ledger(&[tracer]);
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.busy_s >= inner.busy_s);
        assert!((outer.self_s - (outer.busy_s - inner.busy_s)).abs() < 1e-9);
        assert!((inner.self_s - inner.busy_s).abs() < 1e-12);
    }
}
