#!/usr/bin/env bash
# census.sh
#
# The size numbers ROADMAP.md and CHANGES.md quote per PR, from the
# tree instead of by hand: non-test .go lines outside bench/ (with the
# internal/telemetry + internal/trace share), flag definitions per
# binary, the experiments registered in internal/exp/registry.go, the
# reachability allowlist in reach_test.go by reason, and the line
# counts of README.md and docs/*.md.
# Exits 1 when internal/telemetry + internal/trace exceed obsBound
# lines (ROADMAP.md item 9's bound), when README.md, the reproduction
# report, exceeds readmeBound lines (a standing bound), or when radqec
# and radqecd together define more than flagsBound flags, so a removed
# knob cannot creep back.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l; }
flags() { grep -cE 'flag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)\(' "$1"; }
allowed() { grep -cE '^\s*"[^"]+": +"'"$1"'",$' reach_test.go || true; }

obsBound=944
readmeBound=400
flagsBound=26

radqec=$(flags cmd/radqec/main.go)
radqecd=$(flags cmd/radqecd/main.go)
obs=$(lines internal/telemetry internal/trace)
echo "non-test .go lines outside bench/: $(lines .)"
echo "  internal/telemetry + internal/trace: $obs (bound $obsBound)"
echo "flags: $((radqec + radqecd)) (radqec $radqec + radqecd $radqecd; bound $flagsBound)"
echo "experiments: $(grep -cE '^\s*\{"[^"]+", "' internal/exp/registry.go)"
oracle=$(allowed oracle)
hook=$(allowed test-hook)
echo "reach allowlist: $((oracle + hook)) (oracle $oracle + test-hook $hook)"
readme=$(wc -l <README.md)
echo "README.md: $readme lines (bound $readmeBound)"
for f in docs/*.md; do
  echo "  $f: $(wc -l <"$f") lines"
done
if ((obs > obsBound)); then
  echo "census: internal/telemetry + internal/trace hold $obs lines, over the bound of $obsBound" >&2
  exit 1
fi
if ((readme > readmeBound)); then
  echo "census: README.md holds $readme lines, over the bound of $readmeBound" >&2
  exit 1
fi
if ((radqec + radqecd > flagsBound)); then
  echo "census: radqec and radqecd define $((radqec + radqecd)) flags, over the bound of $flagsBound" >&2
  exit 1
fi
