#!/usr/bin/env bash
# daemon_smoke.sh [BIN_DIR]
#
# End-to-end smoke test of the campaign daemon against the CLI:
#
#   1. start radqecd on a free port with a temp store
#   2. run the same small fig5 campaign through the CLI (no store) and
#      through the daemon, and assert the streamed tables and per-point
#      records match exactly (point order is scheduling-dependent, so
#      points compare keyed; elapsed_ms is timing, so it is stripped);
#      a point record streamed twice, or a point count that differs
#      between the CLI, cold and warm streams, fails the run
#   3. re-submit the campaign and assert a full cache hit: every point
#      streams back flagged cached and the daemon's engine counter
#      (radqecd_points_computed_total) does not advance; the decode and
#      store-commit histograms are fed by that cold, unsampled campaign
#      (one commit observation per computed point) and not by the replay
#   4. submit the campaign at a new seed: every point is computed, not
#      replayed (points_computed_total rises by the full point count),
#      but on the codes the first campaign left in the process's registry
#      (radqecd_prepared_hits_total > 0) and their warm decoder memos
#      (fewer radqecd_decoder_matcher_calls_total than the first took)
#   5. cancel a bigger campaign mid-stream with DELETE /v1/campaigns/{id},
#      assert the stream ends in a cancelled error record, then resubmit
#      and assert the resumed table is byte-identical to a CLI reference
#      run at the same parameters (resume from checkpoints, not restart)
#   6. submit a sampled campaign and read its trace by campaign id and
#      by trace id: one trace id, the same span set both ways, and a
#      Perfetto-loadable ?format=chrome export (written to
#      $TRACE_CHROME_OUT when set, for CI artifacts)
#   7. SIGTERM the daemon and require a clean exit
#
# Builds into BIN_DIR (default: a temp dir). Needs python3 and curl.
set -euo pipefail

SHOTS=2000
SEED=7
EXPERIMENT=fig5

bindir=${1:-}
workdir=$(mktemp -d)
cleanup() {
  if [[ -n "${daemon_pid:-}" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill -9 "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT
if [[ -z "$bindir" ]]; then
  bindir="$workdir/bin"
fi
mkdir -p "$bindir"

echo "== building radqec + radqecd + smokeclient"
go build -o "$bindir/" ./cmd/radqec ./cmd/radqecd ./scripts/smokeclient

port=$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()')
addr="127.0.0.1:$port"

echo "== starting radqecd on $addr"
"$bindir/radqecd" -addr "$addr" -store "$workdir/store" >"$workdir/daemon.log" 2>&1 &
daemon_pid=$!

for _ in $(seq 1 100); do
  if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "daemon_smoke: radqecd died on startup" >&2
    cat "$workdir/daemon.log" >&2
    exit 1
  fi
  sleep 0.1
done
curl -fsS "http://$addr/healthz" >/dev/null || {
  echo "daemon_smoke: daemon never became healthy" >&2; exit 1; }

echo "== CLI reference run"
"$bindir/radqec" -shots "$SHOTS" -seed "$SEED" -json "$EXPERIMENT" \
  >"$workdir/cli.ndjson" 2>/dev/null

echo "== cold daemon submission (typed Go client)"
"$bindir/smokeclient" -addr "$addr" -experiment "$EXPERIMENT" -shots "$SHOTS" -seed "$SEED" \
  >"$workdir/cold.ndjson" 2>/dev/null
metric() { curl -fsS "http://$addr/metrics" | awk -v m="radqecd_$1" '$1==m{print $2}'; }
computed_cold=$(metric points_computed_total)
matcher_cold=$(metric decoder_matcher_calls_total)
commits_cold=$(metric store_commit_seconds_count)
decodes_cold=$(metric decode_seconds_count)
if [[ "$commits_cold" != "$computed_cold" ]]; then
  echo "daemon_smoke: store_commit_seconds_count = $commits_cold after the cold campaign, points_computed_total = $computed_cold" >&2
  exit 1
fi
if [[ "$decodes_cold" -le 0 ]]; then
  echo "daemon_smoke: decode_seconds_count = $decodes_cold after an unsampled cold campaign, want > 0" >&2
  exit 1
fi

echo "== warm daemon re-submission (must be a full cache hit)"
"$bindir/smokeclient" -addr "$addr" -experiment "$EXPERIMENT" -shots "$SHOTS" -seed "$SEED" \
  >"$workdir/warm.ndjson" 2>/dev/null
computed_warm=$(metric points_computed_total)
if [[ "$(metric store_commit_seconds_count)" != "$commits_cold" || "$(metric decode_seconds_count)" != "$decodes_cold" ]]; then
  echo "daemon_smoke: the warm replay moved the decode or store-commit histogram" >&2
  exit 1
fi

python3 - "$workdir" "$computed_cold" "$computed_warm" <<'EOF'
import json, sys
workdir, computed_cold, computed_warm = sys.argv[1], sys.argv[2], sys.argv[3]

def load(name):
    points, tables = {}, []
    with open(f"{workdir}/{name}.ndjson") as f:
        for line in f:
            rec = json.loads(line)
            if rec["type"] == "point":
                cached = rec.pop("cached", False)
                if rec["key"] in points:
                    sys.exit(f"{name}: point {rec['key']} streamed twice")
                points[rec["key"]] = (rec, cached)
            elif rec["type"] == "table":
                rec.pop("elapsed_ms")
                tables.append(rec)
            else:
                sys.exit(f"unexpected record type {rec['type']!r} in {name}")
    if len(tables) != 1:
        sys.exit(f"{name}: {len(tables)} table records")
    return points, tables[0]

cli_pts, cli_tab = load("cli")
cold_pts, cold_tab = load("cold")
warm_pts, warm_tab = load("warm")

counts = {n: len(p) for n, p in (("cli", cli_pts), ("cold", cold_pts), ("warm", warm_pts))}
if len(set(counts.values())) != 1:
    sys.exit(f"point record counts differ across streams: {counts}")
if cold_tab != cli_tab:
    sys.exit("cold daemon table differs from CLI table")
if warm_tab != cli_tab:
    sys.exit("warm daemon table differs from CLI table")
if set(cold_pts) != set(cli_pts):
    sys.exit("cold daemon streamed different point keys than the CLI")
for key, (rec, _) in cli_pts.items():
    if cold_pts[key][0] != rec:
        sys.exit(f"cold daemon point {key} differs from CLI")
    if warm_pts[key][0] != rec:
        sys.exit(f"warm daemon point {key} differs from CLI")
if any(cached for _, cached in cold_pts.values()):
    sys.exit("cold run served cached points from a fresh store")
if not all(cached for _, cached in warm_pts.values()):
    n = sum(1 for _, c in warm_pts.values() if not c)
    sys.exit(f"warm run recomputed {n} points (expected full cache hit)")
if computed_warm != computed_cold:
    sys.exit(f"warm run invoked the engine: points_computed_total "
             f"{computed_cold} -> {computed_warm}")
print(f"daemon_smoke: {len(cli_pts)} points: daemon==CLI, "
      f"warm re-submission was a full cache hit ({computed_cold} computed)")
EOF

echo "== new seed: computed in full, on the first campaign's codes"
NEW_SEED=8
"$bindir/smokeclient" -addr "$addr" -experiment "$EXPERIMENT" -shots "$SHOTS" -seed "$NEW_SEED" \
  >"$workdir/newseed.ndjson" 2>/dev/null
npoints=$(grep -c '"type":"point"' "$workdir/newseed.ndjson")
computed_new=$(metric points_computed_total)
matcher_new=$(metric decoder_matcher_calls_total)
prepared_hits=$(metric prepared_hits_total)
if [[ $((computed_new - computed_warm)) -ne "$npoints" ]]; then
  echo "daemon_smoke: seed $NEW_SEED computed $((computed_new - computed_warm)) of its $npoints points" >&2
  exit 1
fi
if [[ "$prepared_hits" -le 0 ]]; then
  echo "daemon_smoke: prepared_hits_total = $prepared_hits after a second campaign on the same codes" >&2
  exit 1
fi
if [[ "$matcher_cold" -le 0 || $((matcher_new - matcher_cold)) -ge "$matcher_cold" ]]; then
  echo "daemon_smoke: seed $NEW_SEED took $((matcher_new - matcher_cold)) matcher calls, the first campaign $matcher_cold: the memos did not stay warm" >&2
  exit 1
fi
echo "daemon_smoke: seed $NEW_SEED: $npoints points computed, $prepared_hits prepared hits, matcher calls $matcher_cold -> $((matcher_new - matcher_cold))"

echo "== cancel a campaign mid-stream"
# Enough shots that the campaign is still running when the DELETE lands:
# at ~15M shots/s the kernel finishes fig5 at 20000 shots per point in
# 0.2 s, inside the header poll below; 400000 gives it several seconds.
CANCEL_SHOTS=400000
CANCEL_SEED=11
cancel_body=$(printf '{"experiment":"%s","shots":%d,"seed":%d}' "$EXPERIMENT" "$CANCEL_SHOTS" "$CANCEL_SEED")
curl -sS -N -D "$workdir/cancel.headers" -X POST "http://$addr/v1/campaigns" \
  -d "$cancel_body" >"$workdir/cancelled.ndjson" &
curl_pid=$!
cid=""
for _ in $(seq 1 600); do
  cid=$(awk -F': ' 'tolower($1)=="x-radqec-campaign-id"{print $2}' "$workdir/cancel.headers" 2>/dev/null | tr -d '\r' || true)
  if [[ -n "$cid" ]]; then break; fi
  sleep 0.05
done
if [[ -z "$cid" ]]; then
  echo "daemon_smoke: no campaign id header on the cancel run" >&2
  exit 1
fi
# The id arrives with the submission, before any point; "mid-stream"
# means at least one point has committed and streamed, so the resumed
# run below has something to replay.
for _ in $(seq 1 600); do
  if [[ -s "$workdir/cancelled.ndjson" ]]; then break; fi
  sleep 0.05
done
curl -fsS -X DELETE "http://$addr/v1/campaigns/$cid" >/dev/null
wait "$curl_pid" || true

python3 - "$workdir" <<'EOF'
import json, sys
workdir = sys.argv[1]
recs = [json.loads(l) for l in open(f"{workdir}/cancelled.ndjson")]
if not recs:
    sys.exit("cancelled stream carried no records")
last = recs[-1]
if last.get("type") != "error" or not last.get("cancelled"):
    sys.exit(f"cancelled stream ended with {last!r}, want a cancelled error record")
if any(r.get("type") == "table" for r in recs):
    sys.exit("cancelled campaign still produced a table")
print(f"daemon_smoke: campaign cancelled after {len(recs)-1} streamed points")
EOF

cancelled_total=$(metric campaigns_cancelled_total)
if [[ "$cancelled_total" != "1" ]]; then
  echo "daemon_smoke: campaigns_cancelled_total = $cancelled_total, want 1" >&2
  exit 1
fi

echo "== CLI reference for the cancelled campaign"
"$bindir/radqec" -shots "$CANCEL_SHOTS" -seed "$CANCEL_SEED" -json "$EXPERIMENT" \
  >"$workdir/cancel_cli.ndjson" 2>/dev/null

echo "== resubmit: must resume from checkpoints to the identical table"
"$bindir/smokeclient" -addr "$addr" -experiment "$EXPERIMENT" -shots "$CANCEL_SHOTS" -seed "$CANCEL_SEED" \
  >"$workdir/resumed.ndjson" 2>/dev/null

python3 - "$workdir" <<'EOF'
import json, sys
workdir = sys.argv[1]

def load(name):
    points, tables = {}, []
    with open(f"{workdir}/{name}.ndjson") as f:
        for line in f:
            rec = json.loads(line)
            if rec["type"] == "point":
                cached = rec.pop("cached", False)
                if rec["key"] in points:
                    sys.exit(f"{name}: point {rec['key']} streamed twice")
                points[rec["key"]] = (rec, cached)
            elif rec["type"] == "table":
                rec.pop("elapsed_ms")
                tables.append(rec)
            else:
                sys.exit(f"unexpected record type {rec['type']!r} in {name}")
    if len(tables) != 1:
        sys.exit(f"{name}: {len(tables)} table records")
    return points, tables[0]

cli_pts, cli_tab = load("cancel_cli")
res_pts, res_tab = load("resumed")
if res_tab != cli_tab:
    sys.exit("resumed table differs from the uninterrupted CLI reference")
if set(res_pts) != set(cli_pts):
    sys.exit("resumed run streamed different point keys than the CLI")
for key, (rec, _) in cli_pts.items():
    if res_pts[key][0] != rec:
        sys.exit(f"resumed point {key} differs from the CLI reference")
ncached = sum(1 for _, c in res_pts.values() if c)
if ncached == 0:
    sys.exit("resumed run served nothing from the store: cancellation flushed no progress")
print(f"daemon_smoke: resumed run byte-identical to CLI reference "
      f"({ncached}/{len(res_pts)} points served from the cancelled campaign's store)")
EOF

echo "== sampled campaign: its trace by campaign id and by trace id"
"$bindir/smokeclient" -addr "$addr" -experiment "$EXPERIMENT" -shots "$SHOTS" \
  -seed $((SEED + 1000)) -trace-sample on \
  >/dev/null 2>"$workdir/traced.stderr"
trace_cid=$(awk '/smokeclient: campaign /{print $3}' "$workdir/traced.stderr")
trace_tid=$(awk '/smokeclient: trace /{print $3}' "$workdir/traced.stderr")
if [[ -z "$trace_cid" || -z "$trace_tid" ]]; then
  echo "daemon_smoke: sampled run reported no campaign/trace id" >&2
  cat "$workdir/traced.stderr" >&2
  exit 1
fi
curl -fsS "http://$addr/v1/campaigns/$trace_cid/trace" >"$workdir/trace-by-campaign.ndjson"
curl -fsS "http://$addr/v1/traces/$trace_tid" >"$workdir/trace-by-id.ndjson"
chrome_out=${TRACE_CHROME_OUT:-$workdir/trace.chrome.json}
curl -fsS "http://$addr/v1/campaigns/$trace_cid/trace?format=chrome" >"$chrome_out"
python3 - "$workdir" "$trace_tid" "$chrome_out" <<'EOF'
import json, sys
workdir, tid, chrome_out = sys.argv[1:4]

def load(name):
    return [json.loads(l) for l in open(f"{workdir}/{name}.ndjson") if l.strip()]

spans = load("trace-by-campaign")
if not spans:
    sys.exit("sampled campaign returned an empty trace")
ids = {s["trace_id"] for s in spans}
if ids != {tid}:
    sys.exit(f"trace spans carry trace ids {sorted(ids)}, want {{{tid}}}")
by_id = load("trace-by-id")
if {s["span_id"] for s in by_id} != {s["span_id"] for s in spans}:
    sys.exit(f"trace by id has {len(by_id)} spans, by campaign {len(spans)}: the two views differ")
chrome = json.load(open(chrome_out))
if not chrome.get("traceEvents"):
    sys.exit("chrome export has no traceEvents")
print(f"daemon_smoke: trace {tid}: {len(spans)} spans by campaign and by id, "
      f"{len(chrome['traceEvents'])} chrome events")
EOF

echo "== graceful shutdown"
kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do
  if ! kill -0 "$daemon_pid" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$daemon_pid" 2>/dev/null; then
  echo "daemon_smoke: daemon ignored SIGTERM" >&2
  exit 1
fi
wait "$daemon_pid" && status=0 || status=$?
if [[ "$status" -ne 0 ]]; then
  echo "daemon_smoke: daemon exited $status on SIGTERM" >&2
  cat "$workdir/daemon.log" >&2
  exit 1
fi
unset daemon_pid
echo "daemon_smoke: PASS"
