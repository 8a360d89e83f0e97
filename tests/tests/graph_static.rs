//! Cross-crate assertions for the static schedule verifier.
//!
//! The analyzer (`mlm_exec::graph`) proves properties over *every*
//! linearization of the plan `drive_verified()` interprets; these tests tie
//! it to the rest of the workspace: the corpus must prove safe, also
//! under a kernel panic on any chunk, the five buggy constructions of the
//! must-fail catalogue must be refuted with counterexample traces and
//! caught by every other layer their row names, the plan-time gate
//! (`lint_target`) must accept the paper spec, and the whole thing must be
//! fast enough to sit in front of every run.

use std::collections::BTreeSet;
use std::time::Instant;

use knl_sim::machine::{MachineConfig, MemMode};
use mlm_exec::graph::{analyze, verify_spec, AnalysisConfig, Construction, GraphReport};
use mlm_exec::{
    declared_bytes, plan_pipeline, plan_sort, Access, ChunkSortStyle, EdgeKind, PipelineSpec,
    Placement, PlanKind, SortPlan, SortStructure, SortTiers, Workload, WorkloadPlan,
};
use mlm_fleet::NodeConfig;
use mlm_serve::{AdmitOutcome, CapacityBroker, DeadlineClass, JobRequest, NodeSim, ServeConfig};
use mlm_verify::catalogue::CATALOGUE;
use mlm_verify::check::{check, CheckOptions};
use mlm_verify::graph::{
    corpus_spec, corpus_stencil_spec, default_corpus, graph_report_for, largest_committed_spec,
    run_graph_suite,
};
use mlm_verify::lint::{lint_target, VerifyTarget};
use mlm_verify::suite::{paper_machine, paper_spec};
use proptest::prelude::*;

/// Every corpus case proves race-free, deadlock-free, and within the
/// ring/MCDRAM bounds statically — the proof covers all linearizations.
#[test]
fn fuzz_corpus_is_statically_safe() {
    let machine = paper_machine();
    for (name, spec) in default_corpus() {
        let report = graph_report_for(&spec, &machine).expect("corpus specs are driveable");
        assert!(report.is_safe(), "{name}:\n{report}");
        assert_eq!(
            report.peak_hbw_bytes,
            declared_bytes(&spec, Placement::Hbw),
            "{name}: the proof prices the declared HBW buffers"
        );
    }
}

/// The poison proof over the whole corpus: for every explicit-placement
/// case and every chunk `k`, a kernel panic on `k` drains cleanly under
/// the correct construction (everything touching the poisoned slot is
/// either ordered before the panic or a cancelled dependent), and leaks
/// the poisoned slot (G001) when poison does not cancel dependents.
#[test]
fn kernel_panic_on_any_chunk_drains_the_whole_corpus() {
    let mut analyses = 0;
    for (name, spec) in default_corpus() {
        if spec.placement == Placement::Implicit {
            continue;
        }
        let plan = plan_pipeline(&spec);
        for k in 0..spec.n_chunks() {
            let on = |construction| {
                let cfg = AnalysisConfig {
                    construction,
                    kernel_panic: Some(k),
                    ..AnalysisConfig::default()
                };
                analyze(&plan, &cfg)
            };
            let clean = on(Construction::Correct);
            assert!(clean.is_safe(), "{name}, panic on chunk {k}:\n{clean}");
            let leaky = on(Construction::PoisonSkipLock);
            assert!(
                leaky.codes().contains(&"G001"),
                "{name}, panic on chunk {k}: poison-skip-lock not refuted:\n{leaky}"
            );
            analyses += 2;
        }
    }
    assert_eq!(
        analyses, 216,
        "6 explicit modes x 18 chunks x 2 constructions"
    );
}

/// The full suite (corpus + committed specs + sort plans + must-fail
/// constructions) holds, and each must-fail case is caught with a
/// counterexample trace.
#[test]
fn graph_suite_expectations_hold() {
    let cases = run_graph_suite();
    assert!(cases.len() > 30);
    for case in &cases {
        assert!(
            case.ok(),
            "{}: expected {:?}, fired {:?}",
            case.name,
            case.expect,
            case.fired()
        );
    }
    let must_fail = cases.iter().filter(|c| !c.expect.is_empty()).count();
    assert_eq!(
        must_fail,
        CATALOGUE.len() + 1,
        "one static refutation per catalogue row, and the buffered sort's"
    );
}

/// Every layer agrees on every bug: for each row of the must-fail
/// catalogue the analyzer refutes the row's schedule statically, and the
/// condvar model the row mirrors, if any, fails the model check.
#[test]
fn static_findings_subsume_the_fuzzed_violations() {
    for row in &CATALOGUE {
        let name = row.construction.name();
        // Static: the row is refuted, every G-code fires, each finding
        // with a trace.
        let report = row.graph_report().expect("catalogue specs are driveable");
        assert!(
            !row.g_codes.is_empty() && !report.is_safe(),
            "{name}: the analyzer does not refute the row:\n{report}"
        );
        for code in row.g_codes {
            assert!(
                report.codes().contains(code),
                "{name}: static analyzer missed {code}:\n{report}"
            );
        }
        assert!(
            report.findings.iter().all(|f| !f.trace.is_empty()),
            "{report}"
        );
        // Model: the mirrored condvar discipline fails the check.
        if let Some(model) = &row.condvar {
            let r = check(model, CheckOptions::default());
            assert!(r.violation.is_some(), "{name}: condvar model verified: {r}");
        }
    }
}

/// The plan-time gate accepts the paper spec and reports the §3 ring
/// bound: exactly 3 chunk buffers resident, regardless of how many chunks
/// stream through.
#[test]
fn spec_gate_proves_the_paper_spec() {
    let machine = paper_machine();
    let lints = lint_target(&VerifyTarget::new(&paper_spec(), &machine));
    assert!(lints.is_clean(), "{lints}");
    let report = graph_report_for(&paper_spec(), &machine).expect("paper spec must verify");
    assert!(report.is_safe(), "{report}");
    assert_eq!(
        report.peak_hbw_bytes,
        3 * paper_spec().chunk_bytes,
        "peak occupancy is ring slots x chunk size"
    );

    // And the proof refuses a spec whose ring cannot fit: tiny machine
    // (64 MiB MCDRAM), 32 MiB chunks -> 96 MiB ring.
    let tiny = MachineConfig::tiny(MemMode::Flat);
    let mut fat = paper_spec();
    fat.total_bytes = 128 << 20;
    fat.chunk_bytes = 32 << 20;
    let report = graph_report_for(&fat, &tiny).expect("fat spec is driveable");
    assert!(
        report.findings.iter().any(|f| f.check.code() == "G003"),
        "96 MiB ring in 64 MiB MCDRAM:\n{report}"
    );
}

/// Lenient wall-clock smoke for the acceptance budget: the release-mode
/// gate (<100 ms, enforced by `sim_bench --check`) gets an order of
/// magnitude of debug-mode headroom here, so the test flags only
/// catastrophic blowups (e.g. an accidentally quadratic closure).
#[test]
fn verifier_latency_smoke() {
    let (name, spec) = largest_committed_spec();
    let machine = paper_machine();
    // Warm up, then best-of-3.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let report = graph_report_for(&spec, &machine).expect("committed spec is driveable");
        assert!(report.is_safe());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    assert!(
        best < 1.0,
        "{name}: static verification took {best:.3}s even in debug mode"
    );
}

// ---------------------------------------------------------------------------
// Brute-force oracle for the buffer checks
// ---------------------------------------------------------------------------

/// `hb[a][b]`: a dependency path leads from `a` to `b`, by a DFS from
/// every node.
fn happens_before(deps: &[Vec<usize>]) -> Vec<Vec<bool>> {
    let n = deps.len();
    let mut succ = vec![Vec::new(); n];
    for (i, dl) in deps.iter().enumerate() {
        dl.iter().for_each(|&d| succ[d].push(i));
    }
    (0..n)
        .map(|a| {
            let (mut seen, mut stack) = (vec![false; n], succ[a].clone());
            while let Some(x) = stack.pop() {
                if !std::mem::replace(&mut seen[x], true) {
                    stack.extend(&succ[x]);
                }
            }
            seen
        })
        .collect()
}

/// The (buffer, code) pairs of G001 and G004 over every pair of touches:
/// G001 when a conflicting pair is unordered, G004 when a conflicting
/// pair of two chunks that own the buffer's slot does not run the earlier
/// chunk first.
fn oracle(plan: &WorkloadPlan, construction: Construction) -> BTreeSet<(usize, &'static str)> {
    let dropped = match construction {
        Construction::DropRecycleDep => Some(EdgeKind::Recycle),
        Construction::DropHaloDep => Some(EdgeKind::Halo),
        _ => None,
    };
    let mut deps: Vec<Vec<usize>> = plan
        .nodes
        .iter()
        .map(|node| {
            let kept = node.deps.iter().filter(|e| Some(e.kind) != dropped);
            kept.map(|e| e.from).collect()
        })
        .collect();
    if construction == Construction::NoRecheck {
        let hb = happens_before(&deps);
        for dl in &mut deps {
            let all = dl.clone();
            dl.retain(|&d| all.iter().all(|&o| o == d || hb[d][o]));
        }
    }
    let hb = happens_before(&deps);
    let touches: Vec<(usize, usize, Access)> = (0..plan.nodes.len())
        .flat_map(|i| plan.footprint(i).iter().map(move |&(b, a)| (i, b, a)))
        .collect();
    let mut found = BTreeSet::new();
    for &(x, b, ax) in &touches {
        for &(y, c, ay) in &touches {
            if b != c || x == y || (ax == Access::Read && ay == Access::Read) {
                continue;
            }
            if !hb[x][y] && !hb[y][x] {
                found.insert((b, "G001"));
            }
            let (nx, ny, slot) = (&plan.nodes[x], &plan.nodes[y], plan.buffers[b].slot);
            if nx.slot == slot && ny.slot == slot && nx.chunk < ny.chunk && !hb[x][y] {
                found.insert((b, "G004"));
            }
        }
    }
    found
}

/// The analyzer's G001/G004 findings as (buffer, code) pairs; each names
/// its buffer first.
fn buffer_findings(plan: &WorkloadPlan, report: &GraphReport) -> BTreeSet<(usize, &'static str)> {
    let mut found = BTreeSet::new();
    for f in &report.findings {
        for (b, buffer) in plan.buffers.iter().enumerate() {
            if f.message.starts_with(&format!("{}:", buffer.describe())) {
                found.insert((b, f.check.code()));
            }
        }
    }
    found
}

/// The adjacent-pair G001 and nearest-writer G004 checks agree with the
/// all-pairs oracle on the corpus, on every catalogue construction, and
/// on map and stencil plans with random edges dropped.
#[test]
fn buffer_checks_match_the_all_pairs_oracle() {
    let agree = |name: &str, plan: &WorkloadPlan, cfg: &AnalysisConfig| {
        let report = analyze(plan, cfg);
        let want = oracle(plan, cfg.construction);
        assert_eq!(buffer_findings(plan, &report), want, "{name}:\n{report}");
        want.len()
    };
    for (name, spec) in default_corpus() {
        let found = agree(&name, &plan_pipeline(&spec), &AnalysisConfig::default());
        assert_eq!(found, 0, "{name}");
    }
    for row in &CATALOGUE {
        let cfg = AnalysisConfig {
            construction: row.construction,
            kernel_panic: row.kernel_panic,
            ..AnalysisConfig::default()
        };
        agree(row.construction.name(), &plan_pipeline(&row.spec()), &cfg);
    }
    // xorshift64: every plan below drops each edge with probability 1/4.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut racy = 0;
    for case in 0..400 {
        let total = 64 * (1 + next() % 6);
        let lockstep = next() % 2 == 0;
        let spec = if case % 2 == 0 {
            corpus_spec(total, Placement::Hbw, lockstep)
        } else {
            corpus_stencil_spec(total, lockstep)
        };
        let mut plan = plan_pipeline(&spec);
        for node in &mut plan.nodes {
            node.deps.retain(|_| next() % 4 != 0);
        }
        let found = agree(&format!("case {case}"), &plan, &AnalysisConfig::default());
        racy += usize::from(found > 0);
    }
    assert!(racy > 200, "only {racy} of 400 random plans race");
}

/// A stencil HBW job is priced the same by the three places that price
/// it: the broker reserves, the co-scheduling lint sums (and sizes its
/// fix-it by), and the proof declares all 4 slots x (in + out) chunk
/// buffers.
#[test]
fn stencil_ring_is_priced_alike_by_broker_lint_and_proof() {
    let machine = paper_machine();
    let mut spec = corpus_stencil_spec(64 << 30, false);
    spec.chunk_bytes = 1 << 30;
    spec.workload = mlm_exec::Workload::Stencil {
        halo_bytes: 16 << 20,
    };
    let ring = 4 * 2 * spec.chunk_bytes;
    assert_eq!(declared_bytes(&spec, Placement::Hbw), ring);

    let mut broker = CapacityBroker::new(&machine, machine.addressable_mcdram(), false);
    match broker
        .try_admit_job(&spec, false)
        .expect("fits the paper machine")
    {
        AdmitOutcome::Admitted(Some(r)) => assert_eq!(r.bytes(), ring),
        other => panic!("expected a reservation, got {other:?}"),
    }
    assert_eq!(broker.reserved_mcdram(), ring);

    let others = [spec.clone(), spec.clone()];
    let lints = lint_target(&VerifyTarget::new(&spec, &machine).with_co_scheduled(&others));
    let v009 = lints
        .diagnostics
        .iter()
        .find(|d| d.id == "V009")
        .expect("three 8 GiB rings oversubscribe 16 GiB");
    let total = v009
        .context
        .iter()
        .find(|c| c.field == "aggregate.footprint")
        .expect("V009 reports the aggregate");
    assert_eq!(total.value, (3 * ring).to_string());
    // Its fix-it divides each job's share among all 8 buffers.
    let fair = machine.addressable_mcdram() / 3;
    let suggestion = v009.suggestion.as_deref().unwrap_or_default();
    assert!(
        suggestion.ends_with(&format!(" {}", fair / 8)),
        "{suggestion}"
    );

    let report = graph_report_for(&spec, &machine).expect("driveable");
    assert!(report.is_safe(), "{report}");
    assert_eq!(report.peak_hbw_bytes, ring);
}

/// Does every capacity gate agree with the proof on `spec`, on a node of
/// `machine` with an MCDRAM `budget` and a `spill` policy, for a job that
/// may (`spill_ok`) or may not spill? The strict broker admits exactly
/// what G003 proves within the budget; the node reserves exactly the
/// proved HBW bytes; V011 fires exactly when the node could never admit
/// the job.
fn assert_admitted_exactly_when_proved(
    machine: &MachineConfig,
    spec: &PipelineSpec,
    budget: u64,
    spill: bool,
    spill_ok: bool,
) {
    let what = format!("{spec:?} on a {budget}-byte budget (spill {spill}, spill_ok {spill_ok})");
    let hbw = declared_bytes(spec, Placement::Hbw);
    let usable = budget.min(machine.addressable_mcdram());
    let report = verify_spec(spec, Some(usable)).expect("valid spec");
    assert_eq!(report.peak_hbw_bytes, hbw, "{what}");
    let proved = report.is_safe();
    assert_eq!(
        proved,
        !report.codes().contains(&"G003"),
        "{what}: {report}"
    );

    let broker = CapacityBroker::new(machine, budget, spill);
    if spec.placement == Placement::Hbw {
        assert_eq!(broker.can_ever_fit_job(spec, false), proved, "{what}");
    }
    let admissible = broker.can_ever_fit_job(spec, spill_ok);

    let cfg = ServeConfig {
        mcdram_budget: budget,
        spill,
        ..ServeConfig::new(machine.clone())
    };
    let mut node = NodeSim::new(cfg).expect("valid node");
    let job = JobRequest::new(0, 0.0, DeadlineClass::Standard, spec.clone());
    assert_eq!(node.submit(job, !spill_ok), admissible, "{what}");
    if admissible {
        let mut admitted = Vec::new();
        node.admit(0.0, &mut admitted).expect("an idle node admits");
        assert_eq!(admitted.len(), 1, "{what}");
        let in_mcdram = if hbw <= usable { hbw } else { 0 };
        assert_eq!(node.broker().reserved_mcdram(), in_mcdram, "{what}");
    }

    let nodes = [NodeConfig::new(machine.clone(), budget, spill)];
    let lints = lint_target(&VerifyTarget::new(spec, machine).with_fleet(&nodes, !spill_ok));
    let v011 = lints.error_ids().contains(&"V011");
    assert_eq!(
        v011,
        spec.placement == Placement::Hbw && !admissible,
        "{what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Admission, the node's reservation and V011 agree with the proof
    /// over map and stencil rings in every placement, including specs
    /// with fewer chunks than ring slots and chunks larger than the data.
    #[test]
    fn admitted_exactly_when_proved(
        total_q in 1u64..=256,
        chunk_q in 1u64..=128,
        stencil in any::<bool>(),
        placement_ix in 0usize..3,
        budget_gib in 1u64..=20,
        spill in any::<bool>(),
        spill_ok in any::<bool>(),
    ) {
        const QUANTUM: u64 = 256 << 20;
        let mut spec = paper_spec();
        spec.total_bytes = total_q * QUANTUM;
        spec.chunk_bytes = chunk_q * QUANTUM;
        spec.placement = [Placement::Hbw, Placement::Ddr, Placement::Implicit][placement_ix];
        if stencil && spec.placement != Placement::Implicit {
            spec.workload = Workload::Stencil { halo_bytes: 16 << 20 };
        }
        let machine = paper_machine();
        assert_admitted_exactly_when_proved(&machine, &spec, budget_gib << 30, spill, spill_ok);
    }
}

/// 100 GB in two 50 GB HBW chunks on a node with 96 GiB of MCDRAM: the
/// ring holds the two chunks there are, not three slots' worth, so it is
/// admitted and proved clean.
#[test]
fn two_chunks_of_a_three_slot_ring_are_admitted_and_proved() {
    let mut machine = paper_machine();
    machine.mcdram_capacity = 96 << 30;
    let mut spec = paper_spec();
    spec.total_bytes = 100_000_000_000;
    spec.chunk_bytes = 50_000_000_000;
    assert_eq!(declared_bytes(&spec, Placement::Hbw), spec.total_bytes);
    let report = verify_spec(&spec, Some(96 << 30)).unwrap();
    assert!(report.findings.is_empty(), "{report}");
    let broker = CapacityBroker::new(&machine, 96 << 30, false);
    assert!(broker.can_ever_fit_job(&spec, false));
    assert_admitted_exactly_when_proved(&machine, &spec, 96 << 30, false, false);
}

/// A chunk larger than the data stages only the data: a 1 GiB spec in
/// 8 GiB chunks reserves 1 GiB and proves clean against a 2 GiB budget.
#[test]
fn a_chunk_larger_than_the_data_reserves_only_the_data() {
    let machine = paper_machine();
    let mut spec = paper_spec();
    spec.total_bytes = 1 << 30;
    spec.chunk_bytes = 8 << 30;
    let report = verify_spec(&spec, Some(2 << 30)).unwrap();
    assert!(report.findings.is_empty(), "{report}");
    assert_eq!(report.peak_hbw_bytes, 1 << 30);
    let mut broker = CapacityBroker::new(&machine, 2 << 30, false);
    match broker.try_admit_job(&spec, false) {
        Ok(AdmitOutcome::Admitted(Some(r))) => assert_eq!(r.bytes(), 1 << 30),
        other => panic!("expected a 1 GiB reservation, got {other:?}"),
    }
}

/// A plan declares its arrays window by window in their tiers, and a
/// staging plan one megachunk buffer per slot it uses (two for the
/// GNU style, whose merge needs a temp); numactl's preferred key array
/// is two buffers, HBW first.
#[test]
fn plans_declare_their_arrays_and_buffers() {
    use Access::{Read, Write};
    use Placement::{Ddr, Hbw, Implicit};
    let placed = |structure, style, n, mega, tiers| {
        let plan = plan_sort(structure, style, n, mega);
        let w = SortPlan { tiers, ..plan }.to_workload_plan();
        w.validate().unwrap();
        w
    };
    let shape = |w: &WorkloadPlan| -> Vec<_> {
        let b = w.buffers.iter();
        b.map(|b| (b.role, b.slot, b.tier, b.bytes)).collect()
    };
    let (work, keys, scratch) = (Hbw, Implicit, Implicit);
    let staged = SortTiers {
        preferred_hbw: 0,
        keys,
        scratch,
        work,
    };
    let w = placed(SortStructure::Staged, ChunkSortStyle::Serial, 10, 4, staged);
    let windows = [(0, 32), (1, 32), (2, 16)];
    let mut expect = windows.map(|(m, b)| ("keys", m, Implicit, b)).to_vec();
    expect.extend(windows.map(|(m, b)| ("scratch", m, Implicit, b)));
    expect.push(("megachunk", 0, Hbw, 32));
    assert_eq!(shape(&w), expect);
    // Megachunk 1 is staged from its window, sorted in the buffer and
    // merged back out; the final merge reads every key window into
    // every scratch window.
    let touches = |kind| w.footprint(w.find(kind, 1).unwrap()).to_vec();
    assert_eq!(touches(PlanKind::StageIn), [(1, Read), (6, Write)]);
    assert_eq!(touches(PlanKind::Kernel), [(6, Write)]);
    assert_eq!(touches(PlanKind::StageOut), [(6, Read), (1, Write)]);
    let merge = [
        (0, Read),
        (1, Read),
        (2, Read),
        (3, Write),
        (4, Write),
        (5, Write),
    ];
    assert_eq!(w.footprint(w.nodes.len() - 2), merge);

    let hbw = |structure, style, n| {
        let w = placed(structure, style, n, 4, staged);
        w.buffers.iter().filter(|b| b.tier == Hbw).count()
    };
    assert_eq!(hbw(SortStructure::Staged, ChunkSortStyle::Gnu, 10), 2);
    assert_eq!(hbw(SortStructure::Buffered, ChunkSortStyle::Serial, 10), 2);
    assert_eq!(hbw(SortStructure::Buffered, ChunkSortStyle::Serial, 4), 1);
    assert_eq!(hbw(SortStructure::InPlace, ChunkSortStyle::Serial, 10), 0);

    let numactl = |preferred_hbw| SortTiers {
        preferred_hbw,
        ..SortTiers::DDR
    };
    let w = placed(
        SortStructure::Whole,
        ChunkSortStyle::Gnu,
        10,
        10,
        numactl(48),
    );
    let expect = [
        ("keys", 0, Hbw, 48),
        ("keys", 0, Ddr, 32),
        ("scratch", 0, Ddr, 80),
    ];
    assert_eq!(shape(&w), expect);
    assert_eq!(w.footprint(0), [(0, Write), (1, Write)]);
    let w = placed(
        SortStructure::Whole,
        ChunkSortStyle::Gnu,
        10,
        10,
        numactl(1000),
    );
    assert_eq!((w.buffers[0].bytes, w.buffers[1].bytes), (80, 0));
}
