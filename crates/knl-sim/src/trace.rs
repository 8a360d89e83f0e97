//! Execution traces: per-op start/finish records and derived views
//! (per-thread Gantt rendering, bus-utilization timelines).
//!
//! Produced by [`crate::engine::Simulator::run_traced`]. Traces make the
//! pipeline structure visible — which phases overlap, where DDR saturates,
//! when the copy pools idle — the facts the paper's Figures 2–5 draw by
//! hand.

use serde::{Deserialize, Serialize};

/// One executed op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    /// Op id within the program (push order).
    pub op: usize,
    /// Simulated thread that executed it.
    pub thread: usize,
    /// Virtual start time, seconds.
    pub start: f64,
    /// Virtual end time, seconds.
    pub end: f64,
    /// Optional label from the program.
    pub label: Option<String>,
}

impl OpRecord {
    /// Duration in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One piecewise-constant bus-utilization segment between two engine
/// events. Rates are exact: between events the max–min-fair allocation is
/// constant, so no sampling error is involved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusSegment {
    /// Segment start, virtual seconds.
    pub start: f64,
    /// Segment end, virtual seconds.
    pub end: f64,
    /// Seconds the segment lasts: the sum of the engine's own step
    /// lengths. `end - start` rounds a short step when both sit at large
    /// times (at 1e5 s an ulp is 1.5e-11 s); the width does not, so bus
    /// integrals should weigh by it.
    pub width: f64,
    /// DDR bus utilization in `[0, 1]`.
    pub ddr: f64,
    /// MCDRAM bus utilization in `[0, 1]`.
    pub mcdram: f64,
}

/// A full execution trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Records in completion order.
    pub ops: Vec<OpRecord>,
    /// Exact bus-utilization timeline (one segment per inter-event span).
    pub bus: Vec<BusSegment>,
    /// Program makespan (copied from the report for self-containment).
    pub makespan: f64,
    /// Number of simulated threads.
    pub threads: usize,
}

impl Trace {
    /// Pre-size the record vectors for a program of `n_ops` ops: one op
    /// record per op, and (as a heuristic upper bound before merging) one
    /// bus segment per op. Large sweeps previously paid one reallocation
    /// chain per trace; this makes recording append-only in the common
    /// case.
    pub fn reserve_for(&mut self, n_ops: usize) {
        self.ops.reserve(n_ops);
        self.bus.reserve(n_ops);
    }

    /// Append a bus-utilization segment, merging it into the previous
    /// segment when the two are contiguous and have identical DDR and
    /// MCDRAM utilization. Rate epochs frequently span many same-rate
    /// inter-event gaps (delay expiries that change no flow), so merging
    /// keeps traces of large sweeps proportional to the number of *rate
    /// changes* rather than the number of events.
    pub fn record_bus(&mut self, seg: BusSegment) {
        if let Some(last) = self.bus.last_mut() {
            if last.end == seg.start && last.ddr == seg.ddr && last.mcdram == seg.mcdram {
                last.end = seg.end;
                last.width += seg.width;
                return;
            }
        }
        self.bus.push(seg);
    }

    /// Records executed by one thread, in start order.
    pub fn thread_ops(&self, thread: usize) -> Vec<&OpRecord> {
        let mut v: Vec<&OpRecord> = self.ops.iter().filter(|r| r.thread == thread).collect();
        v.sort_by(|a, b| a.start.total_cmp(&b.start));
        v
    }

    /// Fraction of the makespan during which `thread` was executing ops
    /// of non-zero duration.
    pub fn thread_busy_fraction(&self, thread: usize) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .ops
            .iter()
            .filter(|r| r.thread == thread)
            .map(OpRecord::duration)
            .sum();
        busy / self.makespan
    }

    /// Number of ops running at time `t` (half-open intervals).
    pub fn concurrency_at(&self, t: f64) -> usize {
        self.ops
            .iter()
            .filter(|r| r.start <= t && t < r.end)
            .count()
    }

    /// Average utilization of a bus over `[t0, t1)` from the exact
    /// timeline; `ddr = true` selects DDR, else MCDRAM.
    pub fn bus_utilization(&self, t0: f64, t1: f64, ddr: bool) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for seg in &self.bus {
            let lo = seg.start.max(t0);
            let hi = seg.end.min(t1);
            if hi > lo {
                acc += (hi - lo) * if ddr { seg.ddr } else { seg.mcdram };
            }
        }
        acc / (t1 - t0)
    }

    /// Render a one-line utilization sparkline for a bus over the whole
    /// makespan, `width` characters wide, using eight shade levels.
    pub fn bus_sparkline(&self, ddr: bool, width: usize) -> String {
        const LEVELS: [char; 9] = [
            ' ', '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}',
            '\u{2587}', '\u{2588}',
        ];
        let width = width.max(1);
        if self.makespan <= 0.0 {
            return String::new();
        }
        let dt = self.makespan / width as f64;
        (0..width)
            .map(|i| {
                let u = self.bus_utilization(i as f64 * dt, (i + 1) as f64 * dt, ddr);
                LEVELS[((u * 8.0).round() as usize).min(8)]
            })
            .collect()
    }

    /// Render an ASCII Gantt chart, `width` columns wide, one row per
    /// thread in `threads` (e.g. `0..8`). Each cell shows `#` when the
    /// thread is busy for the majority of that time slice, `.` otherwise.
    pub fn gantt(&self, threads: impl IntoIterator<Item = usize>, width: usize) -> String {
        let width = width.max(1);
        let mut out = String::new();
        if self.makespan <= 0.0 {
            return out;
        }
        let dt = self.makespan / width as f64;
        for t in threads {
            let rows = self.thread_ops(t);
            out.push_str(&format!("t{t:>4} |"));
            for col in 0..width {
                let lo = col as f64 * dt;
                let hi = lo + dt;
                let busy: f64 = rows
                    .iter()
                    .map(|r| (r.end.min(hi) - r.start.max(lo)).max(0.0))
                    .sum();
                out.push(if busy >= 0.5 * dt { '#' } else { '.' });
            }
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: usize, thread: usize, start: f64, end: f64) -> OpRecord {
        OpRecord {
            op,
            thread,
            start,
            end,
            label: None,
        }
    }

    fn sample() -> Trace {
        Trace {
            ops: vec![
                rec(0, 0, 0.0, 1.0),
                rec(1, 0, 1.0, 2.0),
                rec(2, 1, 0.5, 1.5),
            ],
            bus: vec![
                BusSegment {
                    start: 0.0,
                    end: 1.0,
                    width: 1.0,
                    ddr: 1.0,
                    mcdram: 0.25,
                },
                BusSegment {
                    start: 1.0,
                    end: 2.0,
                    width: 1.0,
                    ddr: 0.0,
                    mcdram: 0.75,
                },
            ],
            makespan: 2.0,
            threads: 2,
        }
    }

    #[test]
    fn thread_ops_sorted_by_start() {
        let t = sample();
        let rows = t.thread_ops(0);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].start <= rows[1].start);
        assert_eq!(t.thread_ops(1).len(), 1);
        assert!(t.thread_ops(7).is_empty());
    }

    #[test]
    fn busy_fractions() {
        let t = sample();
        assert!((t.thread_busy_fraction(0) - 1.0).abs() < 1e-12);
        assert!((t.thread_busy_fraction(1) - 0.5).abs() < 1e-12);
        assert_eq!(t.thread_busy_fraction(9), 0.0);
    }

    #[test]
    fn concurrency_counts_overlaps() {
        let t = sample();
        assert_eq!(t.concurrency_at(0.25), 1);
        assert_eq!(t.concurrency_at(0.75), 2);
        assert_eq!(t.concurrency_at(1.75), 1);
        assert_eq!(t.concurrency_at(2.5), 0);
    }

    #[test]
    fn gantt_renders_rows() {
        let t = sample();
        let g = t.gantt(0..2, 8);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("t   0 |########|"));
        // Thread 1 busy only in the middle half.
        assert!(lines[1].contains("..##..") || lines[1].contains(".####."));
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = Trace::default();
        assert_eq!(t.gantt(0..4, 10), "");
        assert_eq!(t.concurrency_at(0.0), 0);
        assert_eq!(t.bus_sparkline(true, 8), "");
        assert_eq!(t.bus_utilization(0.0, 1.0, true), 0.0);
    }

    #[test]
    fn bus_utilization_integrates_segments() {
        let t = sample();
        assert!((t.bus_utilization(0.0, 2.0, true) - 0.5).abs() < 1e-12);
        assert!((t.bus_utilization(0.0, 2.0, false) - 0.5).abs() < 1e-12);
        assert!((t.bus_utilization(0.0, 1.0, true) - 1.0).abs() < 1e-12);
        assert!((t.bus_utilization(1.5, 2.0, false) - 0.75).abs() < 1e-12);
        // Out-of-range windows integrate to zero coverage.
        assert_eq!(t.bus_utilization(5.0, 6.0, true), 0.0);
        assert_eq!(t.bus_utilization(1.0, 1.0, true), 0.0);
    }

    #[test]
    fn record_bus_merges_identical_adjacent_segments() {
        let mut t = Trace::default();
        let seg = |start: f64, end: f64, ddr: f64, mcdram: f64| BusSegment {
            start,
            end,
            width: end - start,
            ddr,
            mcdram,
        };
        t.record_bus(seg(0.0, 1.0, 0.5, 0.25));
        t.record_bus(seg(1.0, 2.0, 0.5, 0.25)); // identical + contiguous: merged
        assert_eq!(t.bus.len(), 1);
        assert_eq!((t.bus[0].end, t.bus[0].width), (2.0, 2.0));
        t.record_bus(seg(2.0, 3.0, 0.5, 0.75)); // different mcdram: kept
        t.record_bus(seg(4.0, 5.0, 0.5, 0.75)); // gap (idle span): kept
        assert_eq!(t.bus.len(), 3);
        // Integrals are unaffected by merging.
        assert!((t.bus_utilization(0.0, 2.0, true) - 0.5).abs() < 1e-12);
        assert!((t.bus_utilization(0.0, 2.0, false) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reserve_for_is_harmless() {
        let mut t = Trace::default();
        t.reserve_for(1000);
        assert!(t.ops.capacity() >= 1000);
        assert!(t.bus.capacity() >= 1000);
        assert_eq!(t.ops.len(), 0);
    }

    #[test]
    fn sparkline_has_requested_width_and_shape() {
        let t = sample();
        let ddr = t.bus_sparkline(true, 8);
        assert_eq!(ddr.chars().count(), 8);
        // First half fully busy, second half idle.
        let chars: Vec<char> = ddr.chars().collect();
        assert_eq!(chars[0], '\u{2588}');
        assert_eq!(chars[7], ' ');
    }
}
