//! In-memory spans recorded by the harness around its calls into each
//! layer. Nothing here is linked into the measured program: the
//! untraced run never constructs a [`Tracer`].

use std::time::Instant;

pub type SpanId = usize;

/// One timed call: which layer, when, under which span, for which op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, `[A-Za-z0-9_.-]+` (rendered unescaped).
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Spans of one op (or one round of layer probes) share this id.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that will enclose others; pair with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one leaf span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self_time_ns(&self.spans, id) as f64 / 1e6)
            .collect()
    }

    /// The span file: one object per span, in recording order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"unit\": \"ns\",\n  \"spans\": [\n"
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"op\": {}, \"start\": {}, \"end\": {}, \"self\": {}}}{comma}\n",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                self_time_ns(&self.spans, id),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A span's duration minus the part of its interval that its child
/// spans cover (overlapping children are counted once; a child that
/// sticks out of its parent is clipped).
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let me = &spans[id];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    covered.sort_unstable();
    let mut child_ns = 0;
    let mut reach = me.start_ns;
    for (start, end) in covered {
        let start = start.max(reach);
        if end > start {
            child_ns += end - start;
            reach = end;
        }
    }
    me.duration_ns() - child_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            // A grandchild shortens `b`, not `op`.
            span("b.inner", Some(2), 45, 55),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 30);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 30 - 10);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }

    #[test]
    fn overlapping_and_protruding_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("op", None, 100, 200),
            span("a", Some(0), 110, 150),
            span("b", Some(0), 140, 160),
            span("late", Some(0), 190, 250),
            span("outside", Some(0), 300, 400),
        ];
        // Covered: 110..160 and 190..200.
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_renders_parseable_json() {
        let mut t = Tracer::new();
        let op = t.open("op", None, 3);
        let got = t.span("md.neighbor_list", Some(op), 3, || 41 + 1);
        t.close(op);
        assert_eq!(got, 42);
        assert_eq!(t.spans[1].parent, Some(op));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.durations_ms("md.neighbor_list").len(), 1);

        let doc = merrimac_bench::json::parse(&t.to_json("step-expanded-900", 42)).unwrap();
        assert_eq!(
            doc.get("workload").and_then(|w| w.as_str()),
            Some("step-expanded-900")
        );
        let spans = doc.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(
            spans[0].get("parent"),
            Some(&merrimac_bench::json::Json::Null)
        );
        assert_eq!(spans[1].get("op").and_then(|p| p.as_u64()), Some(3));
    }
}
