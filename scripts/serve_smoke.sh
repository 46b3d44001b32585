#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the cfsd daemon.
#
# Boots cfsd on the small profile with a followed churn log, then
# drives one full query/ingest cycle over HTTP:
#
#   1. initial snapshot is epoch 0 with a populated mapping
#   2. interface lookups answer 200 (known), 404 (unknown), 400 (garbage)
#   3. POST /v1/deltas applies a worldgen churn batch and names epoch 1
#   4. the epoch cache swapped: /v1/snapshot now serves epoch 1
#   5. POST /v1/interfaces:batch answers every address from one epoch,
#      with per-address errors inline, and a repeat batch hits the cache
#   6. GET /v1/interfaces/stream dumps every inference as NDJSON with
#      the epoch in the X-CFS-Epoch header
#   7. worldgen -churn -out appends to the followed log; the tail
#      applies it and the epoch advances again without any HTTP write
#   8. the followed log is rotated (renamed away, a fresh one written
#      at its path); the tail switches files and the epoch advances
#   9. /metrics accounts for the requests and cache traffic
#  10. SIGTERM drains gracefully (exit code 0)
#
# Needs curl and jq. Run from the repo root: make serve-smoke
set -euo pipefail

PORT="${PORT:-18480}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
CFSD_PID=""
cleanup() {
  [ -n "$CFSD_PID" ] && kill -9 "$CFSD_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

echo "serve-smoke: building cfsd, worldgen, cfsmap"
go build -o "$TMP/cfsd" ./cmd/cfsd
go build -o "$TMP/worldgen" ./cmd/worldgen
go build -o "$TMP/cfsmap" ./cmd/cfsmap

CHURN_LOG="$TMP/churn.jsonl"
"$TMP/cfsd" -addr "127.0.0.1:$PORT" -profile small -seed 1 -iterations 30 \
  -follow "$CHURN_LOG" -poll 200ms &
CFSD_PID=$!

echo "serve-smoke: waiting for the daemon to converge and listen"
for _ in $(seq 1 120); do
  curl -sf "$BASE/v1/snapshot" >/dev/null 2>&1 && break
  kill -0 "$CFSD_PID" 2>/dev/null || fail "cfsd exited before listening"
  sleep 0.5
done
curl -sf "$BASE/v1/snapshot" >/dev/null || fail "daemon never came up"

# 1. Epoch 0, populated mapping.
SNAP="$(curl -sf "$BASE/v1/snapshot")"
echo "serve-smoke: initial snapshot: $SNAP"
jq -e '.epoch == 0 and .interfaces > 0 and .resolved > 0 and .as_pairs > 0' \
  <<<"$SNAP" >/dev/null || fail "bad initial snapshot"

# 2. Interface lookups: a known address (pulled from an identical
# offline run), an unknown one, and garbage.
IP="$("$TMP/cfsmap" -profile small -seed 1 -iterations 30 -json -validate=false \
  | sed '1{/^world:/d}' | jq -r '.interfaces[0].IP')"
[ -n "$IP" ] && [ "$IP" != null ] || fail "cfsmap yielded no interface address"
curl -sf "$BASE/v1/interface/$IP" | jq -e --arg ip "$IP" \
  '.epoch == 0 and .interface.IP == $ip' >/dev/null || fail "known-interface lookup"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/interface/203.0.113.254")" = 404 ] \
  || fail "unknown interface should 404"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/interface/not-an-ip")" = 400 ] \
  || fail "garbage interface should 400"

# Repeat the lookup to exercise the epoch cache before the swap.
curl -sf "$BASE/v1/interface/$IP" >/dev/null

# 3. One delta batch over HTTP: the epoch must advance to 1 and the
# response must account for every record.
"$TMP/worldgen" -profile small -seed 1 -churn 25 > "$TMP/batch.jsonl"
POSTED="$(curl -sf -X POST --data-binary @"$TMP/batch.jsonl" "$BASE/v1/deltas")"
echo "serve-smoke: posted batch: $POSTED"
jq -e '.epoch == 1 and .applied == 25' <<<"$POSTED" >/dev/null \
  || fail "delta POST did not advance to epoch 1"

# 4. The cache swapped wholesale: reads now serve epoch 1.
curl -sf "$BASE/v1/snapshot" | jq -e '.epoch == 1' >/dev/null \
  || fail "snapshot still serving a pre-swap epoch"
curl -sf "$BASE/v1/interface/$IP" | jq -e '.epoch == 1' >/dev/null \
  || fail "interface cache entry outlived its epoch"

# 5. A batch: known, unknown and garbage addresses in one POST, every
# answer from the same epoch, errors inline per address.
BATCH="$(curl -sf -X POST -H 'Content-Type: application/json' \
  --data-binary "[\"$IP\",\"203.0.113.254\",\"not-an-ip\"]" "$BASE/v1/interfaces:batch")"
echo "serve-smoke: batch: $BATCH"
jq -e --arg ip "$IP" '
  .epoch == 1 and (.results | length == 3)
  and .results[0].ip == $ip and .results[0].interface.IP == $ip
  and .results[1].error == "no inference recorded"
  and .results[2].error == "unparsable address"' <<<"$BATCH" >/dev/null \
  || fail "batch response malformed"
# A byte-identical repeat must come from the epoch cache.
HITS_BEFORE="$(curl -sf "$BASE/metrics" | jq '.counters["serve.cache.hits"]')"
curl -sf -X POST -H 'Content-Type: application/json' \
  --data-binary "[\"$IP\",\"203.0.113.254\",\"not-an-ip\"]" "$BASE/v1/interfaces:batch" >/dev/null
HITS_AFTER="$(curl -sf "$BASE/metrics" | jq '.counters["serve.cache.hits"]')"
[ "$HITS_AFTER" -gt "$HITS_BEFORE" ] || fail "repeat batch missed the epoch cache"

# 6. The stream: one NDJSON record per interface, epoch in the header,
# record count agreeing with the snapshot digest.
curl -sfD "$TMP/stream.hdr" "$BASE/v1/interfaces/stream" -o "$TMP/stream.ndjson"
grep -qi '^X-CFS-Epoch: 1' "$TMP/stream.hdr" || fail "stream missing epoch header"
STREAMED="$(wc -l < "$TMP/stream.ndjson")"
WANT_IFS="$(curl -sf "$BASE/v1/snapshot" | jq '.interfaces')"
[ "$STREAMED" = "$WANT_IFS" ] || fail "stream emitted $STREAMED records, snapshot says $WANT_IFS"
jq -es 'all(.IP | length > 0)' "$TMP/stream.ndjson" >/dev/null \
  || fail "stream records are not interface objects"
jq -se --arg ip "$IP" 'any(.[]; .IP == $ip)' "$TMP/stream.ndjson" >/dev/null \
  || fail "stream is missing the known interface"

# 7. The follow tail: append churn to the log file and wait for the
# daemon to fold it in (no HTTP write involved).
"$TMP/worldgen" -profile small -seed 7 -churn 10 -out "$CHURN_LOG"
for _ in $(seq 1 50); do
  EPOCH="$(curl -sf "$BASE/v1/snapshot" | jq '.epoch')"
  [ "$EPOCH" -ge 2 ] && break
  sleep 0.2
done
[ "$EPOCH" -ge 2 ] || fail "followed churn log never applied (epoch $EPOCH)"
echo "serve-smoke: follow tail applied, epoch $EPOCH"

# 8. Rotation: rename the followed log away and write a fresh one at the
# same path. The tail must switch to the new file: its 10 records bring
# the applied total to 25 + 10 + 10.
mv "$CHURN_LOG" "$CHURN_LOG.1"
"$TMP/worldgen" -profile small -seed 8 -churn 10 -out "$CHURN_LOG"
for _ in $(seq 1 50); do
  APPLIED="$(curl -sf "$BASE/metrics" | jq '.counters["serve.deltas.applied"]')"
  [ "$APPLIED" -ge 45 ] && break
  sleep 0.2
done
[ "$APPLIED" -ge 45 ] || fail "rotated follow log never applied ($APPLIED records applied)"
ROTATED="$(curl -sf "$BASE/v1/snapshot" | jq '.epoch')"
[ "$ROTATED" -gt "$EPOCH" ] || fail "epoch $ROTATED did not advance past $EPOCH after rotation"
echo "serve-smoke: rotated log applied, epoch $ROTATED"

# 9. Metrics accounted for the traffic.
curl -sf "$BASE/metrics" | jq -e '
  .counters["serve.http.requests.snapshot"] > 0
  and .counters["serve.http.requests.interface"] > 0
  and .counters["serve.cache.hits"] > 0
  and .counters["serve.deltas.applied"] >= 25
  and .gauges["serve.epoch"] >= 2' >/dev/null || fail "metrics do not account for the traffic"

# 10. Graceful drain on SIGTERM.
kill -TERM "$CFSD_PID"
for _ in $(seq 1 50); do
  kill -0 "$CFSD_PID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$CFSD_PID" 2>/dev/null; then fail "cfsd did not drain within 10s"; fi
wait "$CFSD_PID" && RC=0 || RC=$?
[ "$RC" = 0 ] || fail "cfsd exited $RC after SIGTERM"
CFSD_PID=""

echo "serve-smoke: OK"
