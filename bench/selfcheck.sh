#!/usr/bin/env bash
# selfcheck.sh [RUNS] — the benchmark twice on the same tree, compared.
#
# Runs `bench all` twice with the same seed (RUNS end-to-end runs per
# workload, default 5, plus the traced run) and compares the reports
# with -same-tree: it exits non-zero on a regression, on more failed
# ops in the second report, or on an exactly-repeatable count that
# differs. An `unresolved` row means the host was too noisy for that
# metric's bound; read it as such, not as unchanged. Takes about
# 2 x 2.5 minutes per run asked for.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
out=.bench_build/selfcheck
mkdir -p "$out"
for side in A B; do
  echo "== report $side" >&2
  bash bench/run.sh all -seed 1 -runs "$runs" -out "$out/$side.json" >"$out/$side.txt"
  tail -n 1 "$out/$side.txt" >&2
done
bash bench/run.sh compare -same-tree "$out/A.json" "$out/B.json"
