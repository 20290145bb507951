#!/usr/bin/env bash
# Daemon smoke: boot groupformd on an ephemeral port, ingest one stats
# report, and assert /plan, /assign, /healthz, and /metrics answer; then
# reboot it from the snapshot it persisted and assert the same plan serves.
# Mirrors the non-blocking daemon-smoke CI job; run locally as
#   scripts/daemon_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${1:-127.0.0.1:9754}"
DIR="$(mktemp -d)"
SNAP="$DIR/plan.json"

go build -o /tmp/groupformd ./cmd/groupformd
/tmp/groupformd -addr "$ADDR" -caches 40 -k 4 -l 5 -m 2 \
  -interval 2s -snapshot "$SNAP" &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true; rm -rf "$DIR"' EXIT

wait_listener() {
  for _ in $(seq 1 50); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then return; fi
    sleep 0.2
  done
}
wait_listener

fail() { echo "daemon-smoke: $1" >&2; exit 1; }
checksum_of() { sed -n 's/.*"planChecksum":"\([0-9a-f]*\)".*/\1/p'; }

plan=$(curl -sf "http://$ADDR/plan") || fail "/plan unreachable"
echo "$plan" | grep -q '"epoch"' || fail "/plan missing epoch: $plan"

assign=$(curl -sf "http://$ADDR/assign?cache=0") || fail "/assign unreachable"
echo "$assign" | grep -q '"group"' || fail "/assign missing group: $assign"

curl -sf -X POST "http://$ADDR/stats" \
  -d '[{"cache":0,"rttMS":[10,11,12,13,14],"requests":3}]' >/dev/null \
  || fail "POST /stats rejected"

health=$(curl -sf "http://$ADDR/healthz") || fail "/healthz unreachable"
echo "$health" | grep -q '"status":"ok"' || fail "unhealthy at boot: $health"

curl -sf "http://$ADDR/metrics" | grep -q 'serve_epochs_published' \
  || fail "/metrics missing serve counters"

# Graceful shutdown persists the snapshot of the plan being served.
sum=$(curl -sf "http://$ADDR/healthz" | checksum_of)
test -n "$sum" || fail "/healthz missing planChecksum"
kill "$daemon"
wait "$daemon" 2>/dev/null || true
test -s "$SNAP" || fail "no snapshot persisted at $SNAP"

# Reboot from the snapshot: the daemon must restore it, not re-form.
/tmp/groupformd -addr "$ADDR" -caches 40 -k 4 -l 5 -m 2 \
  -interval 2s -snapshot "$SNAP" >"$DIR/reboot.log" 2>&1 &
daemon=$!
wait_listener
grep -q 'restored plan epoch' "$DIR/reboot.log" \
  || fail "reboot did not restore the snapshot: $(cat "$DIR/reboot.log")"
resum=$(curl -sf "http://$ADDR/healthz" | checksum_of)
test "$resum" = "$sum" || fail "restored planChecksum $resum, want $sum"
kill "$daemon"
wait "$daemon" 2>/dev/null || true

echo "daemon-smoke: OK (plan epoch served, stats ingested, snapshot persisted and restored)"
