#!/usr/bin/env bash
# census.sh
#
# The size numbers ROADMAP.md and CHANGES.md quote per PR, from the
# tree instead of by hand: non-test .go lines outside bench/ (with the
# internal/telemetry + internal/trace share), flag definitions per
# binary, and the reachability allowlist in reach_test.go by reason.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l; }
flags() { grep -cE 'flag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)\(' "$1"; }
allowed() { grep -cE '^\s*"[^"]+": +"'"$1"'",$' reach_test.go || true; }

radqec=$(flags cmd/radqec/main.go)
radqecd=$(flags cmd/radqecd/main.go)
echo "non-test .go lines outside bench/: $(lines .)"
echo "  internal/telemetry + internal/trace: $(lines internal/telemetry internal/trace)"
echo "flags: $((radqec + radqecd)) (radqec $radqec + radqecd $radqecd)"
oracle=$(allowed oracle)
hook=$(allowed test-hook)
prior=$(allowed prior)
echo "reach allowlist: $((oracle + hook + prior)) (oracle $oracle + test-hook $hook + prior $prior)"
