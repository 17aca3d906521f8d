//! Spans recorded from the benchmark's own files around each call into
//! a layer. Kept in memory; written out when the run ends. When tracing
//! is off a span costs one branch.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one; `None` for an operation.
    pub parent: Option<usize>,
    /// Operation the span belongs to (spans of one operation share it).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct State {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    op: u64,
}

pub struct Tracer {
    epoch: Instant,
    state: Option<RefCell<State>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            state: enabled.then(|| {
                RefCell::new(State {
                    spans: Vec::new(),
                    stack: Vec::new(),
                    op: 0,
                })
            }),
        }
    }

    /// Opens the root span of the next operation.
    pub fn operation(&self, name: &'static str) -> Guard<'_> {
        if let Some(state) = &self.state {
            state.borrow_mut().op += 1;
        }
        self.enter(name)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        let index = self.state.as_ref().map(|state| {
            let mut st = state.borrow_mut();
            let now = self.epoch.elapsed().as_nanos() as u64;
            let span = Span {
                name,
                parent: st.stack.last().copied(),
                op: st.op,
                start_ns: now,
                end_ns: now,
            };
            st.spans.push(span);
            let index = st.spans.len() - 1;
            st.stack.push(index);
            index
        });
        Guard {
            tracer: self,
            index,
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map_or_else(Vec::new, |s| s.borrow().spans.clone())
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let (Some(index), Some(state)) = (self.index, &self.tracer.state) {
            let mut st = state.borrow_mut();
            st.spans[index].end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
            // Guards drop innermost first; a span leaked by an early
            // return of its operation is closed with its parent.
            while st.stack.pop().is_some_and(|open| open != index) {}
        }
    }
}

/// Self time per span name: duration minus the part covered by child
/// spans. Returns `(name, self_ns)` in first-seen order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let own = (span.end_ns - span.start_ns).saturating_sub(children);
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name, own)),
        }
    }
    totals
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.op, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::new(true);
        {
            let _op = tracer.operation("op");
            {
                let _a = tracer.enter("a");
                let _b = tracer.enter("b");
            }
            let _c = tracer.enter("a");
        }
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            [
                ("op", None, 1),
                ("a", Some(0), 1),
                ("b", Some(1), 1),
                ("a", Some(0), 1)
            ]
        );
        let total: u64 = self_times(&spans).iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        assert_eq!(to_json(&spans).lines().count(), spans.len() + 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let _op = tracer.operation("op");
        let _a = tracer.enter("a");
        assert!(tracer.spans().is_empty());
    }
}
