#!/usr/bin/env bash
# Build the release preset and run every experiment binary with --csv,
# collecting one CSV per bench under bench_out/.  Intended for per-commit
# tracking of discrepancy/convergence trajectories.
#
# Usage: scripts/run_benches.sh [bench_name ...]
#   With no arguments every bench in the build tree is run.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-release"
out_dir="${repo_root}/bench_out"

cmake --preset release -S "${repo_root}"
cmake --build --preset release -j "$(nproc)"

mkdir -p "${out_dir}"

if [[ $# -gt 0 ]]; then
  benches=("$@")
else
  benches=()
  for bin in "${build_dir}/bench/"bench_*; do
    [[ -x ${bin} ]] && benches+=("$(basename "${bin}")")
  done
fi

for name in "${benches[@]}"; do
  bin="${build_dir}/bench/${name}"
  if [[ ! -x ${bin} ]]; then
    echo "skip: ${name} (not built)" >&2
    continue
  fi
  echo "== ${name}"
  if [[ ${name} == bench_kernels ]]; then
    # google-benchmark speaks its own CLI, not bench_common's --csv.
    "${bin}" --benchmark_format=csv > "${out_dir}/${name}.csv"
  elif [[ ${name} == bench_campaign ]]; then
    # The campaign ablation runs the same spectral-profiled grid cold
    # (fresh everything per cell) and cached (per-base artifact reuse),
    # verifies per-cell bit-identity between the modes and across pool
    # sizes (nonzero exit on divergence), and emits BENCH_campaign.json
    # plus the ablation_campaign_{cold,cached}.csv pair directly.
    "${bin}" --csv \
      --json "${out_dir}/BENCH_campaign.json" \
      --ablation-dir "${out_dir}" > "${out_dir}/${name}.csv"
  elif [[ ${name} == bench_shard ]]; then
    # The sharded-execution bench verifies bit-identity to the
    # shared-memory oracle itself (nonzero exit on divergence) and emits
    # BENCH_shard.json plus the ablation_shard_k{1,4}.csv trace pair
    # (per-round Φ + comm columns at K=1 and K=4) directly.
    "${bin}" --csv \
      --json "${out_dir}/BENCH_shard.json" \
      --ablation-dir "${out_dir}" > "${out_dir}/${name}.csv"
  elif [[ ${name} == bench_scale ]]; then
    # The million-node substrate bench (E17) sweeps n = 2^16..2^21 and
    # verifies every leg (flat oracle, cache-blocked, pool sizes, the
    # LB_CHECK leg) for bit-identity, exiting nonzero on divergence or on
    # a nonzero steady-state allocation rate.  Emits BENCH_scale.json
    # (µs/round flat vs blocked, bytes/node vs the legacy layout,
    # allocs/round) plus the ablation_scale_{blocked,flat}.csv per-round
    # trace pair directly.
    "${bin}" --csv \
      --json "${out_dir}/BENCH_scale.json" \
      --ablation-dir "${out_dir}" > "${out_dir}/${name}.csv"
  elif [[ ${name} == bench_spectral ]]; then
    # The three-tier spectral-cache ablation profiles the same frame
    # streams cold (per-frame eigensolves) and warm (exact hits /
    # delta-bound skips / warm-started Lanczos), verifies Tier-1 hit
    # bit-identity and warm-vs-cold trajectory bit-identity at pools
    # {1,2,hw} (nonzero exit on divergence), and emits
    # BENCH_spectral.json plus the ablation_spectral_{warm,cold}.csv
    # pair directly.
    "${bin}" --csv \
      --json "${out_dir}/BENCH_spectral.json" \
      --ablation-dir "${out_dir}" > "${out_dir}/${name}.csv"
  elif [[ ${name} == bench_stream ]]; then
    # The open-system traffic bench (E18) sweeps the four stream families
    # × balancer × n, verifies every leg for bit-identity across pools
    # {1,2,hw} and shard counts K ∈ {2,4} (nonzero exit on divergence),
    # and emits BENCH_stream.json (settling rounds, peak-load quantiles,
    # fraction of rounds above ε per leg) directly.
    "${bin}" --csv \
      --json "${out_dir}/BENCH_stream.json" > "${out_dir}/${name}.csv"
  elif [[ ${name} == bench_thm7_dynamic ]]; then
    # The dynamic-topology bench runs every scenario down both substrates
    # (masked frames vs per-round graph rebuilds) in one invocation, so
    # the expensive per-round λ2 profiling is paid once.  Besides its
    # main CSV it emits the machine-readable BENCH_dynamic.json
    # (µs/round + rounds-to-ε per scenario per substrate) and the
    # ablation_dynamic_{masked,rebuild}.csv pair directly.
    "${bin}" --csv --topology both \
      --json "${out_dir}/BENCH_dynamic.json" \
      --ablation-dir "${out_dir}" > "${out_dir}/${name}.csv"
  else
    "${bin}" --csv > "${out_dir}/${name}.csv"
  fi
done

echo "CSV written to ${out_dir}/ (plus BENCH_dynamic.json when bench_thm7_dynamic ran)"
