//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public functions. Nothing inside the program is
//! instrumented: a span covers exactly one call made from here.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `core.parse`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer totals derived from the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans of this name.
    pub calls: u64,
    /// Summed self time in milliseconds.
    pub self_ms: f64,
}

/// Span recorder. Spans stay in memory until [`Tracer::write_jsonl`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Duration of span `id` in milliseconds.
    pub fn duration_ms(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e6
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer name: each span's duration minus the part of
    /// its interval covered by its children (the union of the children's
    /// intervals, so overlapping children are not subtracted twice).
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        self_times(&self.spans)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self-time arithmetic over a span list (see [`Tracer::layer_totals`]).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let k = &spans[c];
                (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in kids {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let t = totals.entry(s.name).or_default();
        t.calls += 1;
        t.self_ms += s.duration_ns().saturating_sub(covered) as f64 / 1e6;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let ms = 1_000_000;
        let spans = vec![
            span("root", 0, 100 * ms, None),
            span("a", 10 * ms, 30 * ms, Some(0)),
            span("b", 20 * ms, 50 * ms, Some(0)), // overlaps a
            span("a", 60 * ms, 70 * ms, Some(0)),
            span("leaf", 62 * ms, 65 * ms, Some(3)),
        ];
        let t = self_times(&spans);
        // Children of root cover [10,50] ∪ [60,70] = 50 ms.
        assert!((t["root"].self_ms - 50.0).abs() < 1e-9);
        // `a` twice: 20 ms + (10 − 3) ms; `b` has no children.
        assert_eq!(t["a"].calls, 2);
        assert!((t["a"].self_ms - 27.0).abs() < 1e-9);
        assert!((t["b"].self_ms - 30.0).abs() < 1e-9);
        assert!((t["leaf"].self_ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_spans_and_clamps_children_to_the_parent() {
        let mut tr = Tracer::new();
        let outer = tr.enter("outer", 7);
        tr.span("inner", 7, || std::hint::black_box((0..1000).sum::<u64>()));
        tr.exit(outer);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].request, 7);
        let t = tr.layer_totals();
        let total = t["outer"].self_ms + t["inner"].self_ms;
        assert!((total - tr.duration_ms(outer)).abs() < 1e-6);
    }
}
