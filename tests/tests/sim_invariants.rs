//! Cross-crate simulator invariants: conservation, determinism, and mode
//! constraints for full paper-scale experiments.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::ops::{OpKind, Place, Program};
use knl_sim::{MemLevel, Simulator};
use mlm_core::sort::sim::{build_sort_program, SimSortBackend};
use mlm_core::{Calibration, InputOrder, SortAlgorithm, SortWorkload};
use mlm_exec::{ChunkSortStyle, SortStructure};

const N: u64 = 2_000_000_000;

fn machine_for(alg: SortAlgorithm) -> MachineConfig {
    MachineConfig::knl_7250(if alg.needs_cache_mode() {
        MemMode::Cache
    } else {
        MemMode::Flat
    })
}

#[test]
fn sort_programs_move_plausible_traffic() {
    let cal = Calibration::default();
    let w = SortWorkload::int64(N, InputOrder::Random);
    for alg in SortAlgorithm::TABLE1 {
        let machine = machine_for(alg);
        let prog = build_sort_program(&machine, &cal, w, alg, 1_000_000_000, 256).unwrap();
        let r = Simulator::new(machine).run(&prog).unwrap();
        let data_bytes = w.bytes();
        // Every variant must at least read and write the key array once.
        let total = r.ddr_traffic() + r.mcdram_traffic();
        assert!(
            total >= 2 * data_bytes,
            "{alg:?}: total traffic {total} < two passes over the data"
        );
        // And nothing should move more than ~50 passes worth.
        assert!(total < 50 * data_bytes, "{alg:?}: absurd traffic {total}");
        assert!(r.makespan > 0.0 && r.makespan.is_finite());
        // Utilization is a valid fraction on both buses.
        for u in r.utilization {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "{alg:?}: utilization {u}");
        }
    }
}

#[test]
fn mlm_sort_moves_less_ddr_traffic_than_gnu() {
    // The mechanism behind the speedup: chunking moves compute traffic
    // onto MCDRAM, relieving DDR (Bender et al.'s 2.5x claim).
    let cal = Calibration::default();
    let w = SortWorkload::int64(N, InputOrder::Random);
    let gnu_machine = machine_for(SortAlgorithm::GnuFlat);
    let gnu = Simulator::new(gnu_machine.clone())
        .run(&build_sort_program(&gnu_machine, &cal, w, SortAlgorithm::GnuFlat, N, 256).unwrap())
        .unwrap();
    let mlm_machine = machine_for(SortAlgorithm::MlmSort);
    let mlm = Simulator::new(mlm_machine.clone())
        .run(
            &build_sort_program(
                &mlm_machine,
                &cal,
                w,
                SortAlgorithm::MlmSort,
                1_000_000_000,
                256,
            )
            .unwrap(),
        )
        .unwrap();
    assert!(
        gnu.traffic_on(MemLevel::Ddr).total() > 2 * mlm.traffic_on(MemLevel::Ddr).total(),
        "GNU DDR {} vs MLM DDR {}",
        gnu.ddr_traffic(),
        mlm.ddr_traffic()
    );
    // MLM makes it up in MCDRAM traffic.
    assert!(mlm.mcdram_traffic() > gnu.mcdram_traffic());
}

#[test]
fn paper_scale_runs_are_deterministic() {
    let cal = Calibration::default();
    let w = SortWorkload::int64(N, InputOrder::Reverse);
    let machine = machine_for(SortAlgorithm::MlmImplicit);
    let prog = build_sort_program(&machine, &cal, w, SortAlgorithm::MlmImplicit, N, 256).unwrap();
    let sim = Simulator::new(machine);
    let a = sim.run(&prog).unwrap();
    let b = sim.run(&prog).unwrap();
    assert_eq!(a, b);
}

#[test]
fn thread_count_scaling_is_sane() {
    // More threads never makes the simulated sort slower (work-conserving
    // arbitration, no modeled oversubscription penalty beyond the rates).
    let cal = Calibration::default();
    let w = SortWorkload::int64(N, InputOrder::Random);
    let machine = machine_for(SortAlgorithm::MlmSort);
    let mut prev = f64::INFINITY;
    for threads in [64usize, 128, 256] {
        let prog = build_sort_program(
            &machine,
            &cal,
            w,
            SortAlgorithm::MlmSort,
            1_000_000_000,
            threads,
        )
        .unwrap();
        let t = Simulator::new(machine.clone()).run(&prog).unwrap().makespan;
        assert!(t <= prev * 1.001, "threads={threads}: {t} > {prev}");
        prev = t;
    }
}

#[test]
fn hybrid_mode_supports_mlm_sort_with_smaller_chunks() {
    let cal = Calibration::default();
    let machine = MachineConfig::knl_7250(MemMode::Hybrid {
        cache_fraction: 0.5,
    });
    let w = SortWorkload::int64(N, InputOrder::Random);
    // 1B elements = 8 GB = exactly the hybrid flat share: fits.
    let ok = build_sort_program(
        &machine,
        &cal,
        w,
        SortAlgorithm::MlmSort,
        1_000_000_000,
        256,
    );
    assert!(ok.is_ok());
    // 1.5B elements = 12 GB > 8 GB flat share: rejected.
    let too_big = build_sort_program(
        &machine,
        &cal,
        w,
        SortAlgorithm::MlmSort,
        1_500_000_000,
        256,
    );
    assert!(too_big.is_err());
    // §4.2: hybrid at the same (feasible) chunk size performs like flat.
    let hybrid_t = Simulator::new(machine.clone())
        .run(&ok.unwrap())
        .unwrap()
        .makespan;
    let flat_machine = MachineConfig::knl_7250(MemMode::Flat);
    let flat_prog = build_sort_program(
        &flat_machine,
        &cal,
        w,
        SortAlgorithm::MlmSort,
        1_000_000_000,
        256,
    )
    .unwrap();
    let flat_t = Simulator::new(flat_machine)
        .run(&flat_prog)
        .unwrap()
        .makespan;
    assert!(
        (hybrid_t / flat_t - 1.0).abs() < 0.15,
        "hybrid {hybrid_t:.2} vs flat {flat_t:.2} at equal chunk size"
    );
}

#[test]
fn stream_calibration_holds_under_modes() {
    // The simulated machine's STREAM numbers must not drift when modes
    // change (flat MCDRAM unavailable in cache mode, but DDR unchanged).
    for mode in [MemMode::Flat, MemMode::Cache] {
        let machine = MachineConfig::knl_7250(mode);
        let r = mlm_stream::sim::sim_kernel(
            &machine,
            MemLevel::Ddr,
            mlm_stream::StreamKernel::Triad,
            10_000_000,
            64,
        )
        .unwrap();
        assert!((r.bandwidth - 90e9).abs() < 1e6);
    }
}

/// FNV-1a over every op of `prog`: its thread, kind, places and
/// addresses, bytes, rate or delay bits, and dependency ids.
fn program_digest(prog: &Program) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let place = |word: &mut dyn FnMut(u64), p: Place| match p {
        Place::Ddr => word(1),
        Place::Mcdram => word(2),
        Place::CachedDdr { addr } => {
            word(3);
            word(addr);
        }
    };
    word(prog.threads() as u64);
    word(prog.ops().len() as u64);
    for op in prog.ops() {
        word(op.thread.0 as u64);
        match &op.kind {
            OpKind::Copy {
                src,
                dst,
                bytes,
                rate_cap,
            } => {
                word(10);
                place(&mut word, *src);
                place(&mut word, *dst);
                word(*bytes);
                word(rate_cap.to_bits());
            }
            OpKind::Stream { accesses, rate_cap } => {
                word(11);
                word(accesses.len() as u64);
                for a in accesses {
                    place(&mut word, a.place);
                    word(a.bytes);
                    word(u64::from(a.write));
                }
                word(rate_cap.to_bits());
            }
            OpKind::Delay { seconds } => {
                word(12);
                word(seconds.to_bits());
            }
        }
        word(op.deps.len() as u64);
        for d in op.deps.iter() {
            word(d.0 as u64);
        }
    }
    h
}

/// Every variant's lowered program, pinned op for op on its own
/// machine at 2 B keys (random and reverse; megachunks of 0.5 B where
/// the variant chunks), under its own chunk style and, where chunk
/// sorts exist, the radix style too; plus GNU-numactl at 4 B, where
/// half the keys spill to DDR. The committed CSVs round to two
/// decimals, so a lowering change that moves an op shows here first.
#[test]
fn lowered_programs_are_pinned() {
    use SortAlgorithm::*;
    let cal = Calibration::default();
    let (flat, cache) = (MemMode::Flat, MemMode::Cache);
    let radix = Some(ChunkSortStyle::Radix);
    #[rustfmt::skip]
    let cases = [
        (GnuFlat, flat, 2, None, [0xabd0300fce14c9e3, 0x0a12f6f8fb305be3]),
        (GnuCache, cache, 2, None, [0x98a2ce7c44b7c2e3, 0x8c0110ed516c9417]),
        (GnuNumactl, flat, 2, None, [0x63a62fb1fa8dcde3, 0xdd3625a0c1e733e3]),
        (GnuNumactl, flat, 4, None, [0x2e1661c7aed1e812, 0x5877a3c050cc9432]),
        (MlmDdr, flat, 2, None, [0x16a4ff2f1d17ff8a, 0x315d2185bdcd718a]),
        (MlmSort, flat, 2, None, [0x96bac2aa56fa41e6, 0xec2a0805eb729de6]),
        (MlmImplicit, cache, 2, None, [0x4860d256f8111cc6, 0x20e853afb7477b46]),
        (BasicChunked, flat, 2, None, [0x36c01e2483428452, 0x9aff39eee7884652]),
        (MlmSortBuffered, flat, 2, None, [0xca74f74083441df0, 0x9f574e5ce58b0790]),
        (MlmDdr, flat, 2, radix, [0x23010fafb6c1a636, 0xb038d6238c77ac36]),
        (MlmSort, flat, 2, radix, [0x2593b403c258b5a2, 0xc56442d583217022]),
        (MlmImplicit, cache, 2, radix, [0xd5b5c1df5d881bae, 0x9f131114e3eefd4e]),
        (BasicChunked, flat, 2, radix, [0x2593b403c258b5a2, 0xc56442d583217022]),
    ];
    for (alg, mode, billions, style, want) in cases {
        let machine = MachineConfig::knl_7250(mode);
        let n = billions * N / 2;
        let whole = alg.structure() == SortStructure::Whole;
        let mega = if whole { n } else { N / 4 };
        for (order, want) in [InputOrder::Random, InputOrder::Reverse]
            .into_iter()
            .zip(want)
        {
            let w = SortWorkload::int64(n, order);
            let backend = SimSortBackend::new(&machine, &cal, w, alg, mega, 256).unwrap();
            let mut plan = backend.plan();
            plan.chunk_style = style.unwrap_or(plan.chunk_style);
            let digest = program_digest(&backend.lower(&plan).unwrap());
            assert_eq!(
                digest, want,
                "{alg:?} on {mode:?}, {billions} B {order:?}, {style:?}: {digest:#018x}"
            );
        }
    }
}
