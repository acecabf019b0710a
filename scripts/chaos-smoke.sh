#!/usr/bin/env bash
# chaos-smoke: kill one shard of a live cjoind mid-workload and prove
# graceful degradation end to end over the HTTP API.
#
#   - cjoind -shards 4 over a range-partitioned star, with a -chaos
#     schedule that hard-fails shard 3's scan a few pages in;
#   - the broadcast query that trips the fault fails with a typed 503
#     (Retry-After set), the daemon stays up;
#   - /healthz flips to "degraded" with exactly one failed shard;
#   - narrow queries over surviving partitions keep completing, queries
#     needing the dead shard's partitions keep getting the retryable
#     503 — both outcomes must be observed;
#   - no plane slot is lost to the dead shard: once the workload has
#     drained, /metrics reads cjoin_dimplane_slots_in_use 0;
#   - SIGTERM still drains cleanly.
set -euo pipefail

ADDR=${ADDR:-127.0.0.1:8099}
BASE="http://$ADDR"

go build -o /tmp/cjoind-chaos ./cmd/cjoind
/tmp/cjoind-chaos -addr "$ADDR" -rows 4000 -partitions 8 -shards 4 \
  -maxconc 8 -queue 64 -chaos 'seed=7;shard=3;scan-fail=2' &
CJOIND=$!
trap 'kill $CJOIND 2>/dev/null || true' EXIT

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null && break
  sleep 0.2
done

# The broadcast query needs every partition: it trips shard 3's armed
# scan failure. The result must be the typed degraded-tier answer — a
# 503 with Retry-After — not a hung query or a dead daemon.
curl -sf "$BASE/query" \
  -d '{"sql":"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year"}' >/dev/null
code=$(curl -s -o /tmp/chaos-res.json -w '%{http_code}' "$BASE/query/q-000001/result?timeout=60s")
[ "$code" = "503" ] || { echo "tripwire query: HTTP $code, want 503"; cat /tmp/chaos-res.json; exit 1; }
curl -s -D - -o /dev/null "$BASE/query/q-000001/result" | tr -d '\r' \
  | grep -qi '^retry-after:' || { echo "503 without Retry-After"; exit 1; }

# The supervisor quarantines the shard: /healthz goes degraded (still
# 200 — the tier is serving) with exactly one failed shard.
for i in $(seq 1 50); do
  state=$(curl -s "$BASE/healthz" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$state" = "degraded" ] && break
  sleep 0.2
done
curl -s "$BASE/healthz" | python3 -c '
import json, sys
h = json.load(sys.stdin)
assert h["state"] == "degraded", h
dead = [s for s in h["shards"] if s["state"] == "failed"]
assert len(dead) == 1 and dead[0]["shard"] == 3 and dead[0]["cause"], h
'
curl -s "$BASE/stats" | python3 -c '
import json, sys
st = json.load(sys.stdin)
assert st.get("degraded") is True, "stats not degraded"
assert st["shards"][3]["state"] == "failed", st["shards"][3]
'

# The telemetry plane proves the injections actually fired (not merely
# that the shard died for some reason): shard 3's armed scan failure
# shows on /metrics, and the supervision counters track the quarantine.
curl -sf "$BASE/metrics" > /tmp/chaos-metrics.txt
grep -q 'cjoin_fault_injected_total{site="scan-fail",shard="3"}' /tmp/chaos-metrics.txt \
  || { echo "no fault_injected_total for shard 3 scan-fail"; exit 1; }
grep -q '^cjoin_shard_quarantines_total 1' /tmp/chaos-metrics.txt \
  || { echo "quarantine not counted"; exit 1; }
grep -q 'cjoin_shard_up{shard="3"} 0' /tmp/chaos-metrics.txt \
  || { echo "shard 3 still reports up"; exit 1; }

# Degraded serving: single-day windows route by partition pruning. Days
# in surviving partitions complete; days in the dead shard'\''s
# partitions get the retryable 503. Sampling the 1st of every quarter
# lands several probes in both.
served=0 rejected=0
for y in $(seq 1992 1998); do
  for m in 01 04 07 10; do
    k="$y${m}01"
    sql="SELECT SUM(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN $k AND $k"
    id=$(curl -sf "$BASE/query" -d "{\"sql\":\"$sql\"}" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
    code=$(curl -s -o /tmp/chaos-res.json -w '%{http_code}' "$BASE/query/$id/result?timeout=60s")
    if [ "$code" = "200" ]; then
      state=$(python3 -c 'import json; print(json.load(open("/tmp/chaos-res.json"))["state"])')
      [ "$state" = "done" ] || { echo "query $id state=$state"; exit 1; }
      served=$((served+1))
    elif [ "$code" = "503" ]; then
      rejected=$((rejected+1))
    else
      echo "query $id: unexpected HTTP $code"; cat /tmp/chaos-res.json; exit 1
    fi
  done
done
echo "chaos-smoke: $served served, $rejected rejected on the degraded tier"
[ "$served" -ge 1 ] || { echo "no query served after shard loss"; exit 1; }
[ "$rejected" -ge 1 ] || { echo "dead partitions never rejected"; exit 1; }

# No slot is lost to the dead shard. A query's slot is retired once its
# last shard has recycled it, which can trail the result by a moment.
for i in $(seq 1 50); do
  inuse=$(curl -sf "$BASE/metrics" | awk '$1 == "cjoin_dimplane_slots_in_use" {print $2}')
  [ "$inuse" = "0" ] && break
  sleep 0.1
done
[ "$inuse" = "0" ] || { echo "cjoin_dimplane_slots_in_use $inuse after the workload drained, want 0"; exit 1; }

# Still drains cleanly.
kill -TERM $CJOIND
wait $CJOIND
echo "chaos-smoke: OK"
