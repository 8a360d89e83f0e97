#!/usr/bin/env bash
# Fail if a new parallel host/sim orchestration pair appears outside the
# mlm-exec adapter discipline.
#
# The execution layer (crates/mlm-exec) owns every schedule; host and
# sim code are thin Backend adapters that `mlm_exec::interpret` drives
# over one WorkloadPlan (a chunk pipeline's, or a sort's). Before the layer
# existed, each subsystem grew a hand-rolled host implementation and a
# parallel sim lowering, and the two drifted. This check keeps that split
# from coming back:
#
#  * every directory holding both a `host*.rs` and a `sim*.rs` is a
#    "dual-impl pair";
#  * a pair is acceptable only if BOTH files reference `mlm_exec` (they
#    are adapters over the shared orchestrator), or the pair is on the
#    explicit allowlist below;
#  * the allowlist names the pairs that predate the layer or ride it
#    transitively — do not extend it for new code; write a Backend
#    adapter instead.
#
# Run from anywhere: `scripts/check_no_dual_impl.sh`. CI runs it in the
# clippy job, next to the lint pass that keeps the adapters warning-free.
set -euo pipefail
cd "$(dirname "$0")/.."

# Pairs allowed to omit direct mlm_exec references, with the reason:
#   mlm-stream  — legacy streaming benchmark, pre-dates the layer (its
#                 host/sim split is frozen; port tracked in ROADMAP.md)
#   mlm-cluster — rides the layer transitively: both sides call
#                 mlm_core::sort, whose host and sim backends
#                 mlm_exec::interpret drives over one sort plan
allow_dirs=(
  "crates/mlm-stream/src"
  "crates/mlm-cluster/src"
)

is_allowed() {
  local dir="$1"
  for a in "${allow_dirs[@]}"; do
    [ "$dir" = "$a" ] && return 0
  done
  return 1
}

fail=0
# knl-sim is the simulator itself, not a lowering of host code; its file
# names (sim_*.rs etc.) are not dual-impl pairs.
dirs=$(find crates examples tests -name '*.rs' -not -path 'crates/knl-sim/*' \
  | xargs -r -n1 dirname | sort -u)

for dir in $dirs; do
  hosts=$(find "$dir" -maxdepth 1 -name 'host*.rs' | sort)
  sims=$(find "$dir" -maxdepth 1 -name 'sim*.rs' | sort)
  [ -n "$hosts" ] && [ -n "$sims" ] || continue

  if is_allowed "$dir"; then
    continue
  fi

  for f in $hosts $sims; do
    if ! grep -q 'mlm_exec' "$f"; then
      echo "error: ${f} is half of a host/sim pair in ${dir} but never references mlm_exec" >&2
      echo "       write it as a Backend adapter over mlm_exec::drive_verified (see crates/mlm-core/src/pipeline/)" >&2
      fail=1
    fi
  done
done

# Second discipline, since the plan layer went workload-generic: the
# WorkloadPlan IR has exactly one home. Workload families add a lowering
# inside crates/mlm-exec/src (plan_pipeline for pipeline shapes,
# SortPlan::to_workload_plan for the sort family); every other crate
# only *consumes* plans — walking nodes, matching on PlanKind — never
# assembles them. A `PlanNode {` literal outside mlm-exec is a workload
# module growing a private schedule the static verifier never sees:
# exactly the dual-impl drift this script exists to block, one layer up.
producers=$(grep -rl 'PlanNode {' --include='*.rs' crates tests examples \
  | grep -v '^crates/mlm-exec/src/' || true)
if [ -n "$producers" ]; then
  for f in $producers; do
    echo "error: ${f} constructs WorkloadPlan nodes outside the plan layer" >&2
    echo "       add the workload's lowering in crates/mlm-exec/src (see plan_pipeline" >&2
    echo "       and SortPlan::to_workload_plan) so the verifier covers it" >&2
  done
  fail=1
fi

# Third discipline: the host side of the chunk pipeline is ONE Backend.
# A schedule (implicit, lockstep, dataflow) or a workload family (map,
# stencil) is a different *drain* or ring layout of that backend, read
# off the spec; a second impl next to it would carry its own copy of the
# chunk arithmetic, the kernel-task block and the fault hook, and the
# copies drift.
host_backend=crates/mlm-core/src/pipeline/host.rs
impls=$(grep -cE '^\s*impl\b.*\bBackend for\b' "$host_backend" || true)
if [ "$impls" -ne 1 ]; then
  echo "error: ${host_backend} has ${impls} \`impl … Backend for\` blocks; exactly one host backend is allowed" >&2
  echo "       express the new schedule as a drain / ring layout of HostBackend (see the module docs)" >&2
  fail=1
fi
# The same for sorting: every sort variant's plan reaches the host and the
# simulator through mlm_exec::interpret, so each side is ONE Backend that
# realises plan nodes. A second impl (or none — a private walker over the
# plan's nodes) would be a sort executor the shared one does not drive.
for sort_backend in crates/mlm-core/src/sort/host.rs crates/mlm-core/src/sort/sim.rs; do
  impls=$(grep -cE '^\s*impl\b.*\bBackend for\b' "$sort_backend" || true)
  if [ "$impls" -ne 1 ]; then
    echo "error: ${sort_backend} has ${impls} \`impl … Backend for\` blocks; exactly one sort backend is allowed" >&2
    echo "       realise the new sort shape as plan nodes that mlm_exec::interpret issues to it" >&2
    fail=1
  fi
done

# Fourth discipline: the plan is the schedule graph. The executor and the
# verifier read the WorkloadPlan plan_pipeline builds; a Backend whose job is
# to re-capture that plan into a graph type of its own is a second copy
# of the schedule that can drift from it. In crates/mlm-exec/src a
# top-level `impl … Backend for` may live only in recording.rs (the trace
# recorder and the null backend). Matching at column 0 leaves the
# indented #[cfg(test)] probes alone.
recorders=$(grep -lE '^impl\b.*\bBackend for\b' crates/mlm-exec/src/*.rs \
  | grep -v '^crates/mlm-exec/src/recording.rs$' || true)
if [ -n "$recorders" ]; then
  for f in $recorders; do
    echo "error: ${f} implements Backend inside mlm-exec outside recording.rs" >&2
    echo "       read the WorkloadPlan from plan_pipeline instead of recording the drive walk" >&2
  done
  fail=1
fi

# Fifth discipline: the simulator engine sits below the plan layer. It
# prices op programs; lowering a spec or a plan into ops is an adapter's
# job (crates/mlm-core/src/pipeline/sim.rs, sort/sim.rs), and proving a
# schedule against a machine is mlm-verify's (lint_target). An engine
# that reads mlm_exec grows a second copy of one of those.
engine_uses=$(grep -rl 'mlm_exec' --include='*.rs' crates/knl-sim/src || true)
if [ -n "$engine_uses" ]; then
  for f in $engine_uses; do
    echo "error: ${f} references mlm_exec; the simulator engine sits below the plan layer" >&2
    echo "       lower plans in a Backend adapter and prove specs in mlm-verify instead" >&2
  done
  fail=1
fi

# Sixth discipline: every simulated schedule is lowered from a plan. A
# study that pushes knl_sim ops by hand runs a schedule the static
# verifier never sees, with its own copy of the chunk arithmetic — the
# drift this script exists to block, one layer down. Under crates/*/src,
# `Program::new(` may appear only in the files below; knl-sim (the
# engine itself), test directories and examples are exempt.
#   mlm-core pipeline/sim.rs, sort/sim.rs — the two plan-lowering backends
#   mlm-serve simx.rs                     — splices lowered programs
#   mlm-bench sim_bench.rs                — the engine's synthetic families
#   mlm-stream sim.rs                     — the bus probe, a frozen
#                                           pre-layer pair (port in ROADMAP.md)
program_allow=(
  "crates/mlm-core/src/pipeline/sim.rs"
  "crates/mlm-core/src/sort/sim.rs"
  "crates/mlm-serve/src/simx.rs"
  "crates/mlm-bench/src/sim_bench.rs"
  "crates/mlm-stream/src/sim.rs"
)
builders=$(grep -rl 'Program::new(' --include='*.rs' crates/*/src \
  | grep -v '^crates/knl-sim/' | sort || true)
for f in $builders; do
  allowed=0
  for a in "${program_allow[@]}"; do
    [ "$f" = "$a" ] && allowed=1
  done
  if [ "$allowed" -eq 0 ]; then
    echo "error: ${f} builds a knl_sim Program by hand" >&2
    echo "       express the schedule as a PipelineSpec or SortPlan and lower it through" >&2
    echo "       pipeline::sim::build_program or SimSortBackend, so the verifier covers it" >&2
    fail=1
  fi
done

# Seventh discipline: where a buffer lives is declared once, in the plan.
# plan_pipeline declares a pipeline's buffers (pipeline_buffers, which
# every capacity question sums) and SortPlan::to_workload_plan a sort's;
# the sim sort lowers each node to the tiers its footprint names. A
# `PlanBuffer {` literal anywhere else is a second declaration the proof
# never sees (test directories are exempt), and the identifiers of the
# two statements this replaced — a spec's own ring-size arithmetic
# (buffer_footprint) and the sort lowering's per-variant place tables
# (DataPlace) — must not come back under crates/.
declarers=$(grep -rl 'PlanBuffer {' --include='*.rs' crates examples \
  | grep -v '/tests/' \
  | grep -vE '^crates/mlm-exec/src/(plan|sortplan)\.rs$' || true)
for f in $declarers; do
  echo "error: ${f} declares a PlanBuffer outside the plan layer" >&2
  echo "       declare the buffer in plan_pipeline (pipeline_buffers) or SortPlan::to_workload_plan" >&2
  fail=1
done
restated=$(grep -rlwE 'buffer_footprint|DataPlace' --include='*.rs' crates || true)
for f in $restated; do
  echo "error: ${f} restates where buffers live (buffer_footprint / DataPlace)" >&2
  echo "       size a pipeline with mlm_exec::declared_bytes and read a sort node's tiers off its footprint" >&2
  fail=1
done

# Eighth discipline: a simulated op is lowered from the plan node alone.
# The pipeline lowering reads a node's tier off its footprint, its bytes
# off node.len and its traffic off the plan's KernelDesc; the spec
# supplies only thread pools, rates and the DDR address. Reading the
# spec's placement, workload, passes or chunk geometry instead restates
# the plan, and the two drift. Both sim backends share one set of op
# emitters (crates/mlm-core/src/lower.rs), and the identifiers of the
# restatements this replaced — the buffered sort's second lowering
# (lower_buffered), numactl's copy override (streamed), the pipeline's
# own split and tier (thread_share, buf_place) — must not come back.
pipe_sim=crates/mlm-core/src/pipeline/sim.rs
spec_reads=$(sed '/^#\[cfg(test)\]/q' "$pipe_sim" \
  | grep -nE 'spec\.(placement|workload|compute_passes)\b|chunk_size\(' || true)
if [ -n "$spec_reads" ]; then
  echo "error: ${pipe_sim} reads what the plan states off the spec:" >&2
  echo "$spec_reads" | sed 's/^/       /' >&2
  echo "       read the node's footprint, node.len and plan.kernels instead" >&2
  fail=1
fi
forks=$(grep -rnwE 'lower_buffered|streamed|thread_share|buf_place' --include='*.rs' crates || true)
if [ -n "$forks" ]; then
  echo "error: a second op lowering is back under crates/:" >&2
  echo "$forks" | sed 's/^/       /' >&2
  echo "       lower every node through the shared emitters in crates/mlm-core/src/lower.rs" >&2
  fail=1
fi

# Ninth discipline: the host side runs plan nodes through one drain and
# one set of task emitters. Both host backends hand issued nodes to the
# shared-pool drain (crates/mlm-core/src/host.rs), the pipeline borrows
# the buffers the plan declares, and every copy or merge is split over its
# workers by parsort's emitters (pool::copy_parts, multiway::merge_parts).
# A hand-rolled `copy_from_slice` or `split_range` loop in either host
# backend is a second statement of that split, and the identifiers of the
# realisations this replaced — the sort's second per-batch realisation
# (run_overlapped), the pipeline's ring-slot arithmetic (claim) and its
# private copy splitter (copy_tasks) — must not come back under crates/.
for host_file in crates/mlm-core/src/pipeline/host.rs crates/mlm-core/src/sort/host.rs; do
  splits=$(sed '/^#\[cfg(test)\]/q' "$host_file" | grep -nE 'copy_from_slice|split_range' || true)
  if [ -n "$splits" ]; then
    echo "error: ${host_file} splits work by hand:" >&2
    echo "$splits" | sed 's/^/       /' >&2
    echo "       split copies and merges with parsort::pool::copy_parts / parsort::multiway::merge_parts" >&2
    fail=1
  fi
done
restored=$(grep -rnE '\b(run_overlapped|claim|copy_tasks)\b[[:space:]]*[(<]' --include='*.rs' crates \
  | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$restored" ]; then
  echo "error: a second host realisation is back under crates/:" >&2
  echo "$restored" | sed 's/^/       /' >&2
  echo "       run host nodes through the drain in crates/mlm-core/src/host.rs and parsort's emitters" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo >&2
  echo "New host/sim pairs must adapt the shared execution layer, not re-implement the schedule." >&2
  echo "If the pair genuinely rides the layer transitively, say how in the allowlist in this script." >&2
  exit 1
fi
echo "check_no_dual_impl: every host/sim pair rides the mlm-exec execution layer"
echo "check_no_dual_impl: every WorkloadPlan producer lives in the plan layer"
echo "check_no_dual_impl: the host pipeline and the host and sim sorts have exactly one Backend impl each"
echo "check_no_dual_impl: mlm-exec implements Backend only in recording.rs"
echo "check_no_dual_impl: the knl-sim engine never references mlm_exec"
echo "check_no_dual_impl: every simulated Program is built by an allowlisted lowering"
echo "check_no_dual_impl: every buffer is declared in the plan layer, and nowhere restated"
echo "check_no_dual_impl: every simulated op is lowered from its plan node, through one set of emitters"
echo "check_no_dual_impl: both host backends run nodes through one drain and parsort's task emitters"
