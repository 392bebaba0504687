//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans live in memory and are written out
//! once, when the run ends; self time (a span's duration minus the part
//! its children cover) is aggregated as each span closes, so every traced
//! op counts even when the span file keeps only the first [`KEEP`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the span file; later spans still feed the aggregates.
pub const KEEP: usize = 50_000;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, unique within the run.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// What was called.
    pub name: &'static str,
    /// The layer (workspace crate) the call enters.
    pub layer: &'static str,
    /// Sequence number of the op (or set-up) the span belongs to.
    pub req: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in the same clock.
    pub end_ns: u64,
}

struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// The span recorder. While off, [`Tracer::span`] only calls its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    req: u64,
    next_id: u32,
    stack: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    /// Self time per `(root name, layer, span name)`.
    self_ns: BTreeMap<(&'static str, &'static str, &'static str), u64>,
}

impl Tracer {
    /// A tracer that records only while switched on.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            req: 0,
            next_id: 1,
            stack: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            self_ns: BTreeMap::new(),
        }
    }

    /// Switch recording on or off for the next root span.
    pub fn set_on(&mut self, on: bool, req: u64) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
        self.req = req;
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` in `layer`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let parent = self.stack.last().map_or(0, |o| o.id);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            parent,
            name,
            layer,
            start_ns,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let open = self
            .stack
            .pop()
            .expect("span stack balanced by construction");
        let dur = end_ns.saturating_sub(open.start_ns);
        let root = self.stack.first().map_or(open.name, |o| o.name);
        let acc = self
            .self_ns
            .entry((root, open.layer, open.name))
            .or_insert(0);
        *acc = acc.saturating_add(dur.saturating_sub(open.child_ns));
        if let Some(up) = self.stack.last_mut() {
            up.child_ns = up.child_ns.saturating_add(dur);
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            layer: open.layer,
            req: self.req,
            start_ns: open.start_ns,
            end_ns,
        };
        if self.kept.len() < KEEP {
            self.kept.push(span);
        } else {
            self.dropped += 1;
        }
        out
    }

    /// Self time of every `(layer, name)` under roots named `root`.
    pub fn self_times(&self, root: &str) -> Vec<((&'static str, &'static str), u64)> {
        self.self_ns
            .iter()
            .filter(|((r, _, _), _)| *r == root)
            .map(|((_, layer, name), ns)| ((*layer, *name), *ns))
            .collect()
    }

    /// The span document: every kept span plus the aggregated self times.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\":[");
        for (i, sp) in self.kept.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                sp.id, sp.parent, sp.name, sp.layer, sp.req, sp.start_ns, sp.end_ns
            );
        }
        let _ = write!(s, "],\"dropped\":{},\"self_ns\":{{", self.dropped);
        for (i, ((root, layer, name), ns)) in self.self_ns.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{root}/{layer}.{name}\":{ns}");
        }
        s.push_str("}}");
        s
    }

    /// The spans kept so far.
    #[cfg(test)]
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new();
        let v = t.span("platform", "op", |t| t.span("libos", "input", |_| 7));
        assert_eq!(v, 7);
        assert!(t.kept().is_empty());
        assert!(t.self_times("op").is_empty());
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let mut t = Tracer::new();
        t.set_on(true, 3);
        t.span("bench", "op", |t| {
            busy(Duration::from_millis(2));
            t.span("platform", "request", |t| {
                // Two adjacent children, one holding a nested grandchild.
                t.span("libos", "input", |_| busy(Duration::from_millis(3)));
                t.span("workloads", "serve", |t| {
                    busy(Duration::from_millis(1));
                    t.span("libos", "output", |_| busy(Duration::from_millis(2)));
                });
            });
        });
        let spans = t.kept();
        assert_eq!(spans.len(), 5);
        // Children close first; the root closes last with parent 0.
        let root = spans.last().expect("root");
        assert_eq!((root.name, root.parent, root.req), ("op", 0, 3));
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).expect("span");
        let request = by_name("request");
        assert_eq!(request.parent, root.id);
        assert_eq!(by_name("input").parent, request.id);
        assert_eq!(by_name("output").parent, by_name("serve").id);
        for s in spans {
            assert!(s.start_ns <= s.end_ns);
        }
        let selfs: BTreeMap<_, _> = t.self_times("op").into_iter().collect();
        let dur = |n: &str| {
            let s = by_name(n);
            s.end_ns - s.start_ns
        };
        // Self time is duration minus the children's durations, exactly.
        assert_eq!(selfs[&("libos", "output")], dur("output"));
        assert_eq!(selfs[&("workloads", "serve")], dur("serve") - dur("output"));
        assert_eq!(
            selfs[&("platform", "request")],
            dur("request") - dur("input") - dur("serve")
        );
        assert_eq!(selfs[&("bench", "op")], dur("op") - dur("request"));
        // So the self times partition the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), dur("op"));
        // And each one holds at least the busy time spent in it.
        let ms = |k: (&str, &str)| selfs[&k] as f64 / 1e6;
        assert!(ms(("bench", "op")) >= 2.0);
        assert!(ms(("libos", "input")) >= 3.0);
        assert!(ms(("workloads", "serve")) >= 1.0);
        assert!(ms(("libos", "output")) >= 2.0);
    }

    #[test]
    fn span_file_is_json_shaped() {
        let mut t = Tracer::new();
        t.set_on(true, 0);
        t.span("bench", "setup", |t| t.span("platform", "boot", |_| ()));
        let doc = t.to_json();
        assert!(doc.starts_with("{\"spans\":[{\"id\":2,\"parent\":1,\"name\":\"boot\""));
        assert!(doc.contains("\"setup/platform.boot\":"));
        assert!(doc.ends_with("}}"));
    }
}
