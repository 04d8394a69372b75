#!/usr/bin/env bash
# census.sh
#
# The two size numbers ROADMAP.md and CHANGES.md quote per PR, from the
# tree instead of by hand: non-test .go lines outside bench/ (with the
# internal/telemetry + internal/trace share), and flag definitions per
# binary. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l; }
flags() { grep -cE 'flag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)\(' "$1"; }

radqec=$(flags cmd/radqec/main.go)
radqecd=$(flags cmd/radqecd/main.go)
echo "non-test .go lines outside bench/: $(lines .)"
echo "  internal/telemetry + internal/trace: $(lines internal/telemetry internal/trace)"
echo "flags: $((radqec + radqecd)) (radqec $radqec + radqecd $radqecd)"
