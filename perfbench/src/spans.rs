//! Span trees and self times from a recorded trace.
//!
//! Spans nest last-in-first-out on each thread. A span that opens at
//! the root of another thread (a shard worker) is attached to the
//! deepest span of the lead thread whose interval contains it, so
//! a step's children include the shards it waited for. A span's self
//! time is its duration minus the part of its interval that the union
//! of its children's intervals covers.

use std::collections::BTreeMap;

use eta_prof::trace::{Phase, TraceEvent};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (the leaf of its path).
    pub name: &'static str,
    /// Recording thread.
    pub tid: u32,
    /// Start, microseconds on the tracer's clock.
    pub start: u64,
    /// End, microseconds on the tracer's clock.
    pub end: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Rebuilds closed spans from Begin/End events, attaching the roots of
/// other threads by containment to spans of the lead thread, the one
/// that recorded the first event. Spans left open are dropped.
pub fn build(events: &[TraceEvent]) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    let mut open: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut closed = vec![];
    for ev in events {
        let stack = open.entry(ev.tid).or_default();
        match ev.ph {
            Phase::Begin => {
                spans.push(Span {
                    name: ev.name,
                    tid: ev.tid,
                    start: ev.ts_us,
                    end: ev.ts_us,
                    parent: stack.last().copied(),
                });
                stack.push(spans.len() - 1);
            }
            Phase::End => {
                if let Some(i) = stack.pop() {
                    spans[i].end = ev.ts_us;
                    closed.push(i);
                }
            }
        }
    }
    let mut keep = vec![false; spans.len()];
    for i in closed {
        keep[i] = true;
    }
    let lead = events.first().map(|e| e.tid);
    for i in 0..spans.len() {
        if spans[i].parent.is_some() || Some(spans[i].tid) == lead || !keep[i] {
            continue;
        }
        let (start, end) = (spans[i].start, spans[i].end);
        spans[i].parent = (0..spans.len())
            .filter(|&j| keep[j] && Some(spans[j].tid) == lead)
            .filter(|&j| spans[j].start <= start && end <= spans[j].end)
            .max_by_key(|&j| (spans[j].start, std::cmp::Reverse(spans[j].end)));
    }
    // Renumber the closed spans, keeping parent links.
    let mut index = vec![usize::MAX; spans.len()];
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if keep[i] {
            index[i] = out.len();
            out.push(s.clone());
        }
    }
    for s in &mut out {
        s.parent = s.parent.map(|p| index[p]).filter(|&p| p != usize::MAX);
    }
    out
}

/// Self time of every span: duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, microseconds.
    pub total_us: u64,
    /// Summed self times, microseconds.
    pub self_us: u64,
}

/// Per-name totals over a trace.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut map: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = map.entry(s.name).or_default();
        e.count += 1;
        e.total_us += s.dur();
        e.self_us += own;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ph: Phase, name: &'static str, tid: u32, ts_us: u64) -> TraceEvent {
        TraceEvent {
            ph,
            name,
            path: (ph == Phase::Begin).then(|| name.to_string()),
            tid,
            ts_us,
        }
    }

    /// step [0,100] on the lead thread with child reduce [80,95]; two shard
    /// roots on workers, [10,60] and [30,70], whose union [10,70]
    /// covers 60 of step; shard 1 holds a layer [15,40] with a cell
    /// [20,30].
    fn tree() -> Vec<TraceEvent> {
        use Phase::{Begin as B, End as E};
        vec![
            ev(B, "step", 1, 0),
            ev(B, "shard", 2, 10),
            ev(B, "layer_fw", 2, 15),
            ev(B, "fw_cell", 2, 20),
            ev(E, "fw_cell", 2, 30),
            ev(B, "shard", 3, 30),
            ev(E, "layer_fw", 2, 40),
            ev(E, "shard", 2, 60),
            ev(E, "shard", 3, 70),
            ev(B, "reduce", 1, 80),
            ev(E, "reduce", 1, 95),
            ev(E, "step", 1, 100),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = build(&tree());
        assert_eq!(spans.len(), 6);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["step", "shard", "layer_fw", "fw_cell", "shard", "reduce"]
        );
        // Worker roots hang off the lead thread's step; nesting on a thread
        // follows the stack.
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(2), Some(0), Some(0)]);
        let own = self_times(&spans);
        // step: 100 - |[10,70] ∪ [80,95]| = 100 - 75.
        assert_eq!(own, [25, 25, 15, 10, 40, 15]);
    }

    #[test]
    fn totals_by_name_sum_instances() {
        let totals = by_name(&build(&tree()));
        let shard = totals["shard"];
        assert_eq!(shard.count, 2);
        assert_eq!(shard.total_us, 50 + 40);
        assert_eq!(shard.self_us, 25 + 40);
        assert_eq!(totals["step"].self_us, 25);
        // Every microsecond of the lead thread's step is owned by exactly
        // one lead-side self time or covered by a worker root.
        let lead_self = totals["step"].self_us + totals["reduce"].self_us;
        assert_eq!(lead_self + 60, 100);
    }

    #[test]
    fn unclosed_spans_are_dropped() {
        let events = vec![
            ev(Phase::Begin, "step", 1, 0),
            ev(Phase::Begin, "apply", 1, 5),
            ev(Phase::End, "apply", 1, 9),
        ];
        let spans = build(&events);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "apply");
        assert_eq!(spans[0].parent, None);
    }
}
