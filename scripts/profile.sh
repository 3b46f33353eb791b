#!/usr/bin/env bash
# Profile a `repro` scenario with gprofng (ships with modern binutils).
#
#   scripts/profile.sh [scenario] [out-dir]
#
#   scenario  repro experiment to profile (default: perf — the kernel
#             benches only: GEMM, quantized GEMM, rowq, one layer,
#             resident select_top_k; or e.g. table3, fig10, fig16 — see
#             the header of crates/bench/src/bin/repro.rs). To see where
#             a served request spends its time, run a traced `wire_e2e`
#             workload instead (benchmark/run.sh --trace 1).
#   out-dir   where the experiment recording lands
#             (default: target/profile/<scenario>)
#
# Prints the hottest functions afterwards; drill in with
#   gprofng display text -calltree <out-dir>/experiment.er
# or interactively with `gprofng display gui` where available.
set -euo pipefail

scenario="${1:-perf}"
out="${2:-target/profile/${scenario}}"

if ! command -v gprofng >/dev/null 2>&1; then
  echo "error: gprofng not found (install binutils >= 2.39)" >&2
  exit 1
fi

cargo build --release -p prism-bench --bin repro

rm -rf "${out}"
mkdir -p "${out}"

# `collect app` forks the target and samples call stacks; `--fast` keeps
# the scenario short enough that the recording stays in the tens of MB.
gprofng collect app -o "${out}/experiment.er" \
  target/release/repro "${scenario}" --fast

echo
echo "=== hottest functions (exclusive CPU time) ==="
gprofng display text -limit 25 -functions "${out}/experiment.er"
echo
echo "recording: ${out}/experiment.er"
echo "call tree: gprofng display text -calltree ${out}/experiment.er"
