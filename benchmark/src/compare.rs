//! `compare BASE.json NEW.json`: apply the benchmark's own bounds to two
//! reports, per (metric, workload) pair, and demand that everything
//! marked exact repeats bit for bit.

use crate::harness::{regressed, Better, END_TO_END};
use crate::metrics::{Report, WorkloadReport, PER_LAYER};

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub workload: String,
    pub what: String,
    pub pass: bool,
}

/// Why two reports cannot be compared at all.
pub fn refusal(base: &Report, new: &Report) -> Option<String> {
    for (which, r) in [("base", base), ("new", new)] {
        if r.label != "full" {
            return Some(format!(
                "{which} report is labelled `{}`: only full-size runs are comparable",
                r.label
            ));
        }
    }
    if base.traced != new.traced {
        return Some("one report is traced and the other is not".into());
    }
    if base.machine.threads != new.machine.threads {
        return Some(format!(
            "thread budgets differ: {} vs {}",
            base.machine.threads, new.machine.threads
        ));
    }
    None
}

/// Compare every workload of `base` with its counterpart in `new`.
pub fn compare(base: &Report, new: &Report) -> Vec<Finding> {
    let mut findings = Vec::new();
    for b in &base.workloads {
        let mut push = |what: String, pass: bool| {
            findings.push(Finding {
                workload: b.name.clone(),
                what,
                pass,
            });
        };
        let Some(n) = new.workloads.iter().find(|w| w.name == b.name) else {
            push("missing from the new report".into(), false);
            continue;
        };
        if b.sizes != n.sizes {
            push(
                format!("sizes differ: `{}` vs `{}`", b.sizes, n.sizes),
                false,
            );
            continue;
        }
        for (which, w) in [("base", b), ("new", n)] {
            push(
                format!(
                    "{which}: {} of {} ops failed",
                    w.ops_failed, w.ops_attempted
                ),
                w.ops_failed == 0,
            );
        }
        compare_bounded(b, n, &mut push);
        compare_exact(b, n, &mut push);
    }
    findings
}

/// The end-to-end metrics against their bounds.
fn compare_bounded(b: &WorkloadReport, n: &WorkloadReport, push: &mut impl FnMut(String, bool)) {
    for (name, unit, bound) in END_TO_END {
        let value = |w: &WorkloadReport| w.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        let (Some(old), Some(new)) = (value(b), value(n)) else {
            continue; // a traced report carries no end-to-end metrics
        };
        let change = if old == 0.0 { 0.0 } else { new / old - 1.0 };
        push(
            format!(
                "{name}: {old:.6} -> {new:.6} {unit} ({:+.1} %, bound {:.0} %{})",
                change * 100.0,
                bound.rel * 100.0,
                if bound.abs_floor > 0.0 {
                    format!(" and {} {unit}", bound.abs_floor)
                } else {
                    String::new()
                }
            ),
            !regressed(old, new, Better::Lower, bound),
        );
    }
}

/// Counts, the Table 1 error figure, digests and makespans: identical or
/// failed. None of them depends on the seed — only the host workloads'
/// keys do, and those carry no exact values.
fn compare_exact(b: &WorkloadReport, n: &WorkloadReport, push: &mut impl FnMut(String, bool)) {
    for m in PER_LAYER.iter().filter(|m| m.exact) {
        let value =
            |w: &WorkloadReport| w.metrics.iter().find(|r| r.name == m.name).map(|r| r.value);
        if let (Some(old), Some(new)) = (value(b), value(n)) {
            push(
                format!("{}: {old} -> {new} (must be identical)", m.name),
                old.to_bits() == new.to_bits(),
            );
        }
    }
    for x in &b.exact {
        let new = n
            .exact
            .iter()
            .find(|y| y.key == x.key)
            .map(|y| y.value.as_str());
        push(
            format!(
                "{}: {} -> {} (must be identical)",
                x.key,
                x.value,
                new.unwrap_or("<missing>")
            ),
            new == Some(x.value.as_str()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Machine;
    use crate::metrics::{Exact, Metric, SCHEMA};

    fn report(label: &str, wall: f64, setup: f64, digest: &str) -> Report {
        Report {
            schema: SCHEMA,
            label: label.into(),
            seed: 1,
            seconds: 12.0,
            traced: false,
            machine: Machine {
                threads: 2,
                nproc: 2,
                cpu_model: "test".into(),
                llc_bytes: 0,
                ram_bytes: 0,
                rustc: "test".into(),
                git_commit: "test".into(),
            },
            workloads: vec![WorkloadReport {
                name: "fleet_overload".into(),
                sizes: "16 x 250".into(),
                ops_attempted: 10,
                ops_failed: 0,
                notes: vec![],
                rate: 1.0,
                rate_unit: "jobs/s".into(),
                metrics: vec![
                    Metric::single("wall_s", "s", wall),
                    Metric::single("peak_rss_mib", "MiB", 100.0),
                    Metric::single("setup_s", "s", setup),
                ],
                exact: vec![Exact {
                    key: "best-fit-hbw".into(),
                    value: digest.into(),
                }],
            }],
        }
    }

    fn failures(base: &Report, new: &Report) -> Vec<String> {
        compare(base, new)
            .into_iter()
            .filter(|f| !f.pass)
            .map(|f| f.what)
            .collect()
    }

    #[test]
    fn a_report_agrees_with_itself() {
        let r = report("full", 1.0, 0.5, "0x1");
        assert_eq!(refusal(&r, &r), None);
        assert!(failures(&r, &r).is_empty());
    }

    #[test]
    fn wall_time_fails_past_its_bound_only() {
        let (_, _, bound) = END_TO_END[0];
        let base = report("full", 1.0, 0.5, "0x1");
        let just_inside = report("full", 1.0 + bound.rel - 0.01, 0.5, "0x1");
        assert!(failures(&base, &just_inside).is_empty());
        let f = failures(&base, &report("full", 1.0 + bound.rel + 0.01, 0.5, "0x1"));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].starts_with("wall_s"));
        assert!(failures(&base, &report("full", 0.5, 0.5, "0x1")).is_empty());
    }

    #[test]
    fn setup_needs_the_share_and_the_quarter_second() {
        let base = report("full", 1.0, 0.05, "0x1");
        assert!(failures(&base, &report("full", 1.0, 0.2, "0x1")).is_empty());
        let base = report("full", 1.0, 1.0, "0x1");
        assert!(failures(&base, &report("full", 1.0, 1.2, "0x1")).is_empty());
        assert_eq!(failures(&base, &report("full", 1.0, 1.3, "0x1")).len(), 1);
    }

    #[test]
    fn a_changed_digest_fails_and_failed_ops_fail() {
        let base = report("full", 1.0, 0.5, "0x1");
        let f = failures(&base, &report("full", 1.0, 0.5, "0x2"));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("must be identical"));

        let mut broken = report("full", 1.0, 0.5, "0x1");
        broken.workloads[0].ops_failed = 1;
        let f = failures(&base, &broken);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("1 of 10 ops failed"));
    }

    #[test]
    fn smoke_and_mismatched_reports_are_refused() {
        let full = report("full", 1.0, 0.5, "0x1");
        let smoke = report("smoke", 1.0, 0.5, "0x1");
        assert!(refusal(&full, &smoke).unwrap().contains("smoke"));
        assert!(refusal(&smoke, &full).unwrap().contains("smoke"));
        let mut traced = full.clone();
        traced.traced = true;
        assert!(refusal(&full, &traced).is_some());

        let mut resized = full.clone();
        resized.workloads[0].sizes = "16 x 500".into();
        let f = failures(&full, &resized);
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("sizes differ"));
    }
}
