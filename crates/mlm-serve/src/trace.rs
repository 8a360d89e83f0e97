//! Deterministic heavy-tailed job trace generation.
//!
//! Serving studies need an arrival process that looks like real shared-node
//! usage: a stream of small latency-sensitive jobs, a steady band of
//! medium work, and occasional enormous batch "elephants" — the classic
//! heavy-tailed size mix that makes FIFO's head-of-line blocking visible.
//! Arrivals are Poisson (exponential interarrivals), sizes are a
//! class-stratified mixture whose batch tail is bounded Pareto, and
//! everything is drawn from a seeded [`SplitMix64`] by inverse transform,
//! so a `(seed, config)` pair always yields the identical trace.
//!
//! With [`TraceConfig::stencil_frac`] above zero, the stream mixes
//! out-of-core stencil pipelines in with the map jobs — the generic plan
//! layer means the scheduler and both replay backends take the mixed
//! batch without caring which family each job belongs to.

use knl_sim::machine::MachineConfig;
use knl_sim::GIB;
use mlm_core::workload::SplitMix64;
use mlm_core::{ModelParams, PipelineSpec, Placement, Workload};

use crate::job::{DeadlineClass, JobRequest};

/// Parameters of a generated trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of jobs.
    pub jobs: usize,
    /// Mean arrivals per second (Poisson process).
    pub arrival_rate: f64,
    /// RNG seed; same seed, same trace.
    pub seed: u64,
    /// Machine the jobs are sized for (supplies per-thread rates).
    pub machine: MachineConfig,
    /// Fraction of jobs that are interactive (small).
    pub interactive_frac: f64,
    /// Fraction that are batch elephants (the Pareto tail); the remainder
    /// is standard.
    pub batch_frac: f64,
    /// Pareto tail index for batch sizes; smaller = heavier tail.
    pub alpha: f64,
    /// Chunk size of interactive jobs (sets their buffer-ring footprint).
    pub interactive_chunk: u64,
    /// Chunk size of standard jobs.
    pub standard_chunk: u64,
    /// Chunk size of batch jobs.
    pub batch_chunk: u64,
    /// Fraction of jobs generated as out-of-core stencil pipelines
    /// instead of map pipelines. At the default `0.0` the generator
    /// draws *no* extra RNG values, so every `(seed, config)` trace
    /// produced before the knob existed stays bit-identical.
    pub stencil_frac: f64,
    /// Halo width in bytes (per side) of generated stencil jobs,
    /// clamped below each job's chunk size and 8-byte aligned.
    pub stencil_halo: u64,
}

impl TraceConfig {
    /// A reasonable default mix for `machine`: 78% interactive, 19%
    /// standard, 3% batch with an α = 1.2 Pareto tail.
    pub fn new(machine: MachineConfig, jobs: usize, arrival_rate: f64, seed: u64) -> Self {
        TraceConfig {
            jobs,
            arrival_rate,
            seed,
            machine,
            interactive_frac: 0.78,
            batch_frac: 0.03,
            alpha: 1.2,
            interactive_chunk: GIB / 4,
            standard_chunk: GIB / 2,
            batch_chunk: 2 * GIB,
            stencil_frac: 0.0,
            stencil_halo: GIB / 64,
        }
    }
}

/// Uniform in `[0, 1)` from the top 53 bits of one RNG draw.
fn u01(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Bounded Pareto on `[lo, hi]` with tail index `alpha`, by inverse CDF.
fn bounded_pareto(u: f64, lo: f64, hi: f64, alpha: f64) -> f64 {
    let la = lo.powf(-alpha);
    let ha = hi.powf(-alpha);
    (la - u * (la - ha)).powf(-1.0 / alpha)
}

/// Per-class spec geometry: `(size bytes, chunk bytes, passes)`.
fn class_shape(cfg: &TraceConfig, class: DeadlineClass, u: f64) -> (u64, u64, u32) {
    let gib = GIB as f64;
    match class {
        // Small, shallow jobs with a fine-grained ring that slips through
        // capacity gaps the big jobs leave.
        DeadlineClass::Interactive => (((2.0 + 6.0 * u) * gib) as u64, cfg.interactive_chunk, 1),
        DeadlineClass::Standard => (((8.0 + 24.0 * u) * gib) as u64, cfg.standard_chunk, 2),
        // The heavy tail: 32 GiB to 256 GiB, Pareto-distributed, deep
        // passes, and (by default) the coarsest chunks.
        DeadlineClass::Batch => (
            bounded_pareto(u, 32.0 * gib, 256.0 * gib, cfg.alpha) as u64,
            cfg.batch_chunk,
            4,
        ),
    }
}

/// Why [`ModelParams::optimal_split`] found no split for `m`: too few
/// threads, or no finite Eqs. 1–5 time at any split.
fn no_split_cause(m: &ModelParams) -> String {
    if m.total_threads < 3 {
        return format!(
            "machine has {} threads; a pipeline needs >= 3",
            m.total_threads
        );
    }
    // Eq. 5's copy share is smallest at one copy-in and one copy-out
    // thread; when even that fills MCDRAM, every split has C_comp = 0.
    format!(
        "no thread split has a finite Eqs. 1-5 time: two copy threads take {} B/s \
         of MCDRAM, which leaves compute none of its {} B/s",
        2.0 * m.c_copy(1, 1),
        m.mcdram_max
    )
}

/// Generate the trace. Job ids are `0..jobs` in arrival order.
///
/// # Panics
/// Panics when the machine admits no copy-thread split
/// ([`ModelParams::optimal_split`] returns `None`), naming the cause.
pub fn heavy_tailed_trace(cfg: &TraceConfig) -> Vec<JobRequest> {
    assert!(cfg.arrival_rate > 0.0, "arrival rate must be positive");
    assert!(
        (0.0..=1.0).contains(&cfg.stencil_frac),
        "stencil_frac must be in [0, 1], got {}",
        cfg.stencil_frac
    );
    let mut rng = SplitMix64::new(cfg.seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(cfg.jobs);
    for id in 0..cfg.jobs as u64 {
        // Exponential interarrival; 1 - u keeps the log argument positive.
        t += -(1.0 - u01(&mut rng)).ln() / cfg.arrival_rate;
        let uc = u01(&mut rng);
        let class = if uc < cfg.interactive_frac {
            DeadlineClass::Interactive
        } else if uc < 1.0 - cfg.batch_frac {
            DeadlineClass::Standard
        } else {
            DeadlineClass::Batch
        };
        let (size, chunk, passes) = class_shape(cfg, class, u01(&mut rng));
        let total_bytes = (size & !7).max(8); // whole 8-byte elements

        // The workload draw happens only when the mix is actually on, so
        // stencil_frac = 0.0 leaves the draw sequence untouched.
        let workload = if cfg.stencil_frac > 0.0 && u01(&mut rng) < cfg.stencil_frac {
            Workload::Stencil {
                halo_bytes: (cfg.stencil_halo.min(chunk / 2) & !7).max(8),
            }
        } else {
            Workload::Map
        };
        let m = ModelParams {
            b_copy: total_bytes as f64,
            ddr_max: cfg.machine.ddr_bandwidth,
            mcdram_max: cfg.machine.effective_mcdram_bandwidth(),
            s_copy: cfg.machine.per_thread_copy_bw,
            s_comp: cfg.machine.per_thread_compute_bw,
            total_threads: cfg.machine.total_threads(),
        };
        let Some(split) = m.optimal_split(passes) else {
            panic!("{}", no_split_cause(&m));
        };
        let spec = PipelineSpec {
            total_bytes,
            chunk_bytes: chunk,
            p_in: split.p_in,
            p_out: split.p_out,
            p_comp: split.p_comp,
            compute_passes: passes,
            compute_rate: cfg.machine.per_thread_compute_bw,
            copy_rate: cfg.machine.per_thread_copy_bw,
            placement: Placement::Hbw,
            lockstep: false,
            data_addr: 0,
            workload,
        };
        out.push(JobRequest::new(id, t, class, spec));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::MemMode;

    fn cfg(seed: u64) -> TraceConfig {
        TraceConfig::new(MachineConfig::knl_7250(MemMode::Flat), 400, 2.0, seed)
    }

    #[test]
    fn trace_is_deterministic_and_seed_sensitive() {
        let a = heavy_tailed_trace(&cfg(42));
        let b = heavy_tailed_trace(&cfg(42));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            assert_eq!(x.spec.total_bytes, y.spec.total_bytes);
            assert_eq!(x.class, y.class);
        }
        let c = heavy_tailed_trace(&cfg(43));
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.spec.total_bytes != y.spec.total_bytes));
    }

    #[test]
    fn stencil_frac_mixes_families_and_default_stays_pure_map() {
        // Default knob: every job is a map pipeline (and, because the
        // workload draw is skipped entirely, the draw sequence matches
        // traces generated before the knob existed — serve_study.csv
        // pins that down byte-for-byte).
        let base = heavy_tailed_trace(&cfg(11));
        assert!(base.iter().all(|j| j.spec.workload == Workload::Map));
        // At 40% the mix contains both families and every stencil spec
        // is well-formed: halo under the chunk, whole elements.
        let mut mixed_cfg = cfg(11);
        mixed_cfg.stencil_frac = 0.4;
        let mixed = heavy_tailed_trace(&mixed_cfg);
        let stencils = mixed
            .iter()
            .filter(|j| matches!(j.spec.workload, Workload::Stencil { .. }))
            .count();
        assert!(
            stencils > 100 && stencils < 300,
            "stencil count {stencils} of {}",
            mixed.len()
        );
        for j in &mixed {
            j.spec.validate().unwrap();
            if let Workload::Stencil { halo_bytes } = j.spec.workload {
                assert!(halo_bytes < j.spec.chunk_bytes);
                assert_eq!(halo_bytes % 8, 0);
            }
        }
    }

    #[test]
    fn trace_has_the_advertised_shape() {
        let jobs = heavy_tailed_trace(&cfg(7));
        assert_eq!(jobs.len(), 400);
        // Arrivals are sorted and strictly past zero.
        for w in jobs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        assert!(jobs[0].arrival > 0.0);
        // All three classes occur, interactive dominating.
        let count = |c: DeadlineClass| jobs.iter().filter(|j| j.class == c).count();
        let inter = count(DeadlineClass::Interactive);
        let std_ = count(DeadlineClass::Standard);
        let batch = count(DeadlineClass::Batch);
        assert!(inter > std_ && std_ > batch && batch > 0);
        // Heavy tail: the biggest job dwarfs the median.
        let mut sizes: Vec<u64> = jobs.iter().map(|j| j.spec.total_bytes).collect();
        sizes.sort_unstable();
        assert!(sizes[sizes.len() - 1] > 4 * sizes[sizes.len() / 2]);
        // Every spec is valid and every batch job is Pareto-bounded.
        for j in &jobs {
            j.spec.validate().unwrap();
            if j.class == DeadlineClass::Batch {
                assert!(j.spec.total_bytes >= 32 * GIB - 8);
                assert!(j.spec.total_bytes <= 256 * GIB);
            }
        }
    }

    /// 272 threads pass `validate`, but two copy threads at 4.8 GB/s
    /// already exceed a 5 GB/s MCDRAM: no split is finite, and the panic
    /// names that, not the thread count.
    #[test]
    #[should_panic(expected = "leaves compute none of its 5000000000 B/s")]
    fn machine_without_a_finite_split_panics_with_the_cause() {
        let mut machine = MachineConfig::knl_7250(MemMode::Flat);
        machine.mcdram_bandwidth = 5e9;
        machine.validate().unwrap();
        assert!(machine.total_threads() >= 3);
        heavy_tailed_trace(&TraceConfig::new(machine, 4, 2.0, 1));
    }
}
