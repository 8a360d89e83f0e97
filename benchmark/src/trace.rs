//! Spans around every call the benchmark makes into a layer.
//!
//! A [`Tracer`] times each *step* — one call into a layer's public
//! function — with a pair of clock reads. That much always happens: the
//! sum of a cycle's outermost steps *is* the cycle's time, so clones
//! and correctness checks between steps stay out of the measurement.
//! With recording switched on (the traced run) each step also leaves a
//! [`Span`] in memory, written at exit as Chrome trace-event JSON. Spans
//! are recorded from the benchmark's own files only; nothing inside
//! `crates/` is instrumented.

use std::time::Instant;

use serde::value::Value;

/// One recorded call: `[start_ns, end_ns)` since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    pub workload: &'static str,
    pub cycle: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Step timer and in-memory span store.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    /// Indices of the open recorded spans, innermost last.
    open: Vec<usize>,
    /// Open steps, recorded or not.
    depth: usize,
    /// Seconds spent in outermost steps since the last [`Tracer::take_timed`].
    timed: f64,
    workload: &'static str,
    cycle: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
            depth: 0,
            timed: 0.0,
            workload: "",
            cycle: 0,
        }
    }

    /// Switch span recording on or off; timing is unaffected.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Label the spans that follow.
    pub fn set_context(&mut self, workload: &'static str, cycle: u32) {
        self.workload = workload;
        self.cycle = cycle;
    }

    /// Time `f` as one step named `name`. An outermost step adds its
    /// duration to the cycle's timed total; nested steps only refine the
    /// trace.
    pub fn step<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.open_span(name);
        self.depth += 1;
        let start = Instant::now();
        let result = f(self);
        let end = Instant::now();
        self.depth -= 1;
        if self.depth == 0 {
            self.timed += (end - start).as_secs_f64();
        }
        self.close_span(index, start, end);
        result
    }

    /// Record a span that groups steps without being timed work itself:
    /// a whole cycle with its untimed clones and checks, or the probe
    /// block. Steps inside it still count as outermost.
    pub fn group<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.open_span(name);
        let start = Instant::now();
        let result = f(self);
        self.close_span(index, start, Instant::now());
        result
    }

    fn open_span(&mut self, name: &str) -> Option<usize> {
        self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                workload: self.workload,
                cycle: self.cycle,
            });
            let index = self.spans.len() - 1;
            self.open.push(index);
            index
        })
    }

    fn close_span(&mut self, index: Option<usize>, start: Instant, end: Instant) {
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].start_ns = (start - self.origin).as_nanos() as u64;
            self.spans[i].end_ns = (end - self.origin).as_nanos() as u64;
        }
    }

    /// Seconds of outermost steps since the last call; resets the total.
    pub fn take_timed(&mut self) -> f64 {
        std::mem::take(&mut self.timed)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans of one workload.
    pub fn of<'a>(&'a self, workload: &'a str) -> Spans<'a> {
        Spans {
            tracer: self,
            workload,
        }
    }

    /// Per span: its duration minus the part its direct children cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete (`X`) event per span, one track per
    /// workload, with parent, cycle and self time in `args`.
    pub fn chrome_trace(&self) -> Value {
        let mut tracks: Vec<&str> = Vec::new();
        let own = self.self_seconds();
        let mut events = Vec::with_capacity(self.spans.len() + 8);
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match tracks.iter().position(|w| *w == s.workload) {
                Some(t) => t,
                None => {
                    tracks.push(s.workload);
                    tracks.len() - 1
                }
            };
            let parent = s.parent.map_or(Value::Null, |p| Value::U64(p as u64));
            events.push(Value::Map(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("cat".into(), Value::Str(s.workload.to_string())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::F64(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Value::F64((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(tid as u64)),
                (
                    "args".into(),
                    Value::Map(vec![
                        ("id".into(), Value::U64(i as u64)),
                        ("parent".into(), parent),
                        ("cycle".into(), Value::U64(u64::from(s.cycle))),
                        ("self_us".into(), Value::F64(own[i] * 1e6)),
                    ]),
                ),
            ]));
        }
        for (tid, workload) in tracks.iter().enumerate() {
            events.push(Value::Map(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(tid as u64)),
                (
                    "args".into(),
                    Value::Map(vec![("name".into(), Value::Str(workload.to_string()))]),
                ),
            ]));
        }
        Value::Map(vec![
            ("traceEvents".into(), Value::Seq(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
    }
}

/// One workload's view of a tracer's spans, addressed by step name.
pub struct Spans<'a> {
    tracer: &'a Tracer,
    workload: &'a str,
}

impl Spans<'_> {
    fn named<'s>(&'s self, step: &'s str) -> impl Iterator<Item = &'s Span> {
        self.tracer
            .spans
            .iter()
            .filter(move |s| s.workload == self.workload && s.name == step)
    }

    /// Durations of the spans named `step`, in record order.
    pub fn seconds(&self, step: &str) -> Vec<f64> {
        self.named(step).map(Span::seconds).collect()
    }

    /// Median duration of `step`, or `None` if it never ran.
    pub fn median(&self, step: &str) -> Option<f64> {
        let s = self.seconds(step);
        (!s.is_empty()).then(|| crate::harness::median(&s))
    }

    /// Per cycle, in cycle order: the summed duration of the spans named
    /// `step` — for a step that runs many times a cycle.
    pub fn cycle_sums(&self, step: &str) -> Vec<f64> {
        let mut sums = std::collections::BTreeMap::new();
        for s in self.named(step) {
            *sums.entry(s.cycle).or_insert(0.0) += s.seconds();
        }
        sums.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn only_outermost_steps_count_towards_the_cycle() {
        let mut tr = Tracer::new();
        tr.group("cycle", |tr| {
            tr.step("outer", |tr| {
                tr.step("inner", |_| spin(2));
                spin(1);
            });
            spin(5); // an untimed check between steps
            tr.step("second", |_| spin(2));
        });
        let timed = tr.take_timed();
        assert!((0.005..0.009).contains(&timed), "timed {timed}");
        assert_eq!(tr.take_timed(), 0.0, "take_timed resets");
        assert!(tr.spans().is_empty(), "recording is off by default");
    }

    #[test]
    fn recorded_spans_carry_parent_context_and_self_time() {
        let mut tr = Tracer::new();
        tr.set_recording(true);
        tr.set_context("w", 3);
        tr.group("cycle", |tr| {
            tr.step("outer", |tr| {
                tr.step("inner", |_| spin(2));
                spin(2);
            });
        });
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["cycle", "outer", "inner"]);
        assert_eq!(tr.spans()[0].parent, None);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, Some(1));
        assert!(tr.spans().iter().all(|s| s.cycle == 3 && s.workload == "w"));
        let own = tr.self_seconds();
        let outer = tr.spans()[1].seconds();
        let inner = tr.spans()[2].seconds();
        assert!((own[1] - (outer - inner)).abs() < 1e-12);
        assert!(own[1] >= 0.0015, "outer's own 2 ms survive: {}", own[1]);
        assert_eq!(tr.of("w").seconds("inner"), vec![inner]);
        assert_eq!(tr.of("w").median("inner"), Some(inner));
        assert!(tr.of("other").seconds("inner").is_empty());
        assert_eq!(tr.of("other").median("inner"), None);
    }

    #[test]
    fn cycle_sums_add_a_steps_repeats_within_each_cycle() {
        let mut tr = Tracer::new();
        tr.set_recording(true);
        for cycle in 1..=2 {
            tr.set_context("w", cycle);
            for _ in 0..3 {
                tr.step("cell", |_| spin(1));
            }
        }
        let sums = tr.of("w").cycle_sums("cell");
        assert_eq!(sums.len(), 2);
        let all: f64 = tr.of("w").seconds("cell").iter().sum();
        assert!((sums[0] + sums[1] - all).abs() < 1e-12);
        assert!(sums.iter().all(|s| *s >= 0.003));
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut tr = Tracer::new();
        tr.set_recording(true);
        tr.set_context("w", 0);
        tr.step("a", |tr| tr.step("b", |_| ()));
        let Value::Map(top) = tr.chrome_trace() else {
            panic!("trace is an object");
        };
        let Value::Seq(events) = &top[0].1 else {
            panic!("traceEvents is an array");
        };
        let complete = events
            .iter()
            .filter(|e| e.get("ph") == Some(&Value::Str("X".into())))
            .count();
        assert_eq!(complete, 2);
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")),
            Some(&Value::U64(0))
        );
    }
}
