//! Harness-side tracing: spans recorded around each call into a layer of
//! the program, kept in memory and written out when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, epoch}`; spans of one epoch
//! share its number. A name's *self time* is its spans' duration minus the
//! part their child spans cover. Tracing inside the program is a later
//! change (ROADMAP item 4); everything here lives in the benchmark.

use crate::json::{num, obj, text};
use nitro_metrics::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary the span was recorded at, e.g. `pipeline.epoch_view`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Epoch the work belongs to (0: outside any epoch).
    pub epoch: u64,
    /// Work counted at the same boundary: packets for `producer.offer` and
    /// `ovs.run_trace`; for a coalesced span, the episodes it sums.
    pub count: u64,
    /// Whether the span stands for many short episodes (see
    /// [`Tracer::coalesced`]).
    pub coalesced: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// The span recorder. A disabled tracer (the untraced `run`) records
/// nothing and reads no clock, so end-to-end metrics never pay for it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records (`trace`) or ignores (`run`) every call.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, epoch: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            epoch,
            count: 0,
            coalesced: false,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span, recording how much work crossed the boundary.
    pub fn exit_with(&mut self, id: SpanId, count: u64) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = now;
        self.spans[idx].count = count;
    }

    /// Close a span.
    pub fn exit(&mut self, id: SpanId) {
        self.exit_with(id, 0);
    }

    /// Record many short episodes as one child of the innermost open span:
    /// it starts at `first_start_ns`, lasts their summed `total_ns`, and
    /// counts `episodes`. Backpressure waits last microseconds and number
    /// ~10⁵ per pass, so one span each would cost more than the waits.
    pub fn coalesced(
        &mut self,
        name: &'static str,
        epoch: u64,
        first_start_ns: u64,
        total_ns: u64,
        episodes: u64,
    ) {
        if !self.enabled || episodes == 0 {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: first_start_ns,
            end_ns: first_start_ns + total_ns,
            parent: self.open.last().copied(),
            epoch,
            count: episodes,
            coalesced: true,
        });
    }

    /// Nanoseconds since the tracer was created, or 0 when disabled — the
    /// clock for episodes later handed to [`Tracer::coalesced`].
    pub fn clock_ns(&self) -> u64 {
        if self.enabled {
            self.now_ns()
        } else {
            0
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "span still open");
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their children cover.
    pub self_ns: u64,
    /// Sum of their work counts.
    pub count: u64,
}

/// Self time per span name. Children are taken to lie inside their parent
/// and not to overlap one another (the tracer's stack discipline makes it
/// so; a coalesced child is clipped to its parent's duration).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, &child_ns) in spans.iter().zip(&covered) {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns);
        t.count += s.count;
    }
    out
}

/// Sum of the durations of the spans named `root` — the traced wall time
/// the per-name self times are checked against.
pub fn total_of(spans: &[Span], root: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == root)
        .map(Span::duration_ns)
        .sum()
}

/// The span list as a JSON array (the body of `trace-<workload>.json`).
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                let mut o = vec![
                    ("name", text(s.name)),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                    ("epoch", num(s.epoch as f64)),
                ];
                if s.count > 0 {
                    o.push(("count", num(s.count as f64)));
                }
                if s.coalesced {
                    o.push(("coalesced", Json::Bool(true)));
                }
                Json::Obj(o.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            })
            .collect(),
    )
}

/// Self-time table as JSON (`name → {spans, total_ms, self_ms, count}`).
pub fn totals_to_json(totals: &BTreeMap<&'static str, NameTotals>) -> Json {
    Json::Obj(
        totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    obj([
                        ("spans", num(t.spans as f64)),
                        ("total_ms", num(t.total_ns as f64 / 1e6)),
                        ("self_ms", num(t.self_ns as f64 / 1e6)),
                        ("count", num(t.count as f64)),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: 0,
            count: 0,
            coalesced: false,
        }
    }

    #[test]
    fn self_time_subtracts_exactly_what_children_cover() {
        // pass [0,100): offer [0,60) with a wait [10,40) inside; view
        // [60,90); 10 ns of the pass covered by nobody.
        let spans = vec![
            span("pass", 0, 100, None),
            span("producer.offer", 0, 60, Some(0)),
            span("producer.backpressure_wait", 10, 40, Some(1)),
            span("pipeline.epoch_view", 60, 90, Some(0)),
            span("pass", 100, 150, None),
            span("producer.offer", 100, 150, Some(4)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"].self_ns, 10);
        assert_eq!(t["pass"].total_ns, 150);
        assert_eq!(t["pass"].spans, 2);
        assert_eq!(t["producer.offer"].self_ns, 30 + 50);
        assert_eq!(t["producer.backpressure_wait"].self_ns, 30);
        assert_eq!(t["pipeline.epoch_view"].self_ns, 30);
        // Self times partition the root spans' wall time.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, total_of(&spans, "pass"));
    }

    #[test]
    fn tracer_nests_counts_and_coalesces() {
        let mut tr = Tracer::new(true);
        let pass = tr.enter("pass", 0);
        let offer = tr.enter("producer.offer", 3);
        let t0 = tr.clock_ns();
        tr.coalesced("producer.backpressure_wait", 3, t0, 0, 0); // no episodes: dropped
        tr.coalesced("producer.backpressure_wait", 3, t0, 5, 2);
        tr.exit_with(offer, 250_000);
        tr.exit(pass);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].epoch, spans[1].count), (3, 250_000));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[2].coalesced);
        assert_eq!((spans[2].duration_ns(), spans[2].count), (5, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.enter("pass", 0);
        tr.coalesced("producer.backpressure_wait", 0, 0, 10, 1);
        tr.exit_with(id, 9);
        assert_eq!(tr.clock_ns(), 0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn span_file_round_trips_through_the_repository_parser() {
        let mut s = span("agent.seal_epoch", 5, 9, Some(0));
        s.epoch = 4;
        s.count = 7;
        let doc = to_json(&[span("pass", 0, 10, None), s]);
        let back = Json::parse(&crate::json::to_pretty(&doc)).unwrap();
        assert_eq!(back, doc);
        let second = &back.as_arr().unwrap()[1];
        assert_eq!(second.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(second.get("epoch").and_then(Json::as_u64), Some(4));
    }
}
