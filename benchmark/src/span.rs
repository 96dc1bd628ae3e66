//! Spans recorded around the benchmark's calls into each layer's public
//! functions. Spans stay in memory and are written out as Chrome
//! `trace_event` JSON when the run ends; each carries its name, start,
//! end, parent span and the id of the job it belongs to, which every
//! span of one job shares.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use redsim_util::Json;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.store.get`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job id shared by every span of one job (inherited from the
    /// parent when not given).
    pub job: Option<u64>,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// An in-memory span recorder. When off, [`Tracer::span`] calls straight
/// through without reading the clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on` selects whether spans are recorded.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration (zero when the tracer is off). Spans opened
    /// inside `f` become children of this one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.on {
            return (f(self), Duration::ZERO);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let job = job.or_else(|| parent.and_then(|p| self.spans[p].job));
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (out, self.spans[idx].duration())
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// What recording one empty span costs, in ns, measured over
    /// `samples` spans in a fresh recorder.
    #[must_use]
    pub fn cost_per_span_ns(samples: u32) -> f64 {
        let mut probe = Tracer::new(true);
        let t0 = Instant::now();
        for _ in 0..samples {
            probe.span("probe", None, |_| ());
        }
        t0.elapsed().as_nanos() as f64 / f64::from(samples.max(1))
    }

    /// Total self time per span name, in milliseconds.
    #[must_use]
    pub fn selftime_ms_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *out.entry(s.name.to_owned()).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// The spans as Chrome `trace_event` complete events on process
    /// `pid`, labelled `process`.
    #[must_use]
    pub fn chrome_events(&self, pid: u64, process: &str) -> Vec<Json> {
        let mut events = vec![Json::obj()
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", pid)
            .field("args", Json::obj().field("name", process))];
        for (i, (s, self_ns)) in self
            .spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .enumerate()
        {
            let mut args = Json::obj().field("span", i);
            if let Some(p) = s.parent {
                args = args.field("parent", p);
            }
            if let Some(j) = s.job {
                args = args.field("job", j);
            }
            events.push(
                Json::obj()
                    .field("name", s.name)
                    .field("cat", s.name.split('.').next().unwrap_or("layer"))
                    .field("ph", "X")
                    .field("ts", s.start_ns as f64 / 1e3)
                    .field("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .field("pid", pid)
                    .field("tid", 1u64)
                    .field("args", args.field("self_us", self_ns as f64 / 1e3)),
            );
        }
        events
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once, and a
/// child running past its parent is clipped), so it is never negative.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps its sibling: counted once
            span(90, 130, Some(0)), // runs past the parent: clipped
            span(25, 28, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 20, 27, 40, 3]);
    }

    #[test]
    fn self_time_is_never_negative() {
        let spans = vec![
            span(0, 10, None),
            span(0, 50, Some(0)),
            span(5, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn nested_spans_share_their_job_and_record_parents() {
        let mut tr = Tracer::new(true);
        let (v, d) = tr.span("job", Some(7), |tr| {
            tr.span("inner", None, |_| 3).0 + tr.span("other", Some(9), |_| 4).0
        });
        assert_eq!(v, 7);
        let s = tr.spans();
        assert_eq!(d, s[0].duration());
        assert_eq!((s[1].parent, s[1].job), (Some(0), Some(7)));
        assert_eq!((s[2].parent, s[2].job), (Some(0), Some(9)));
        assert!(self_times_ns(s).iter().all(|&ns| ns <= s[0].end_ns));
        assert_eq!(tr.chrome_events(1, "w").len(), 4, "metadata + 3 spans");

        assert!(Tracer::cost_per_span_ns(1000) > 0.0);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("job", None, |_| 5), (5, Duration::ZERO));
        assert!(off.spans().is_empty());
    }
}
