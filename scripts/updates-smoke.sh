#!/usr/bin/env bash
# updates-smoke: prove the HTAP write plane end to end over the live HTTP
# API.
#
#   - cjoind -shards 2 takes snapshot-isolated commits through
#     POST /update while serving queries: fact appends, a fact delete,
#     and an in-place dimension update;
#   - published snapshots are contiguous, and a failed commit (double
#     delete) provably does NOT advance the snapshot counter;
#   - the dimension update makes the cached predicate scan of that
#     dimension stale: the same SQL template re-submitted after the
#     rewrite must see the new dimension values (a stale cache would
#     keep answering 0);
#   - the write-plane metric families land on /metrics;
#   - SIGTERM still drains cleanly.
set -euo pipefail

ADDR=${ADDR:-127.0.0.1:8099}
BASE="http://$ADDR"

go build -o /tmp/cjoind-updates ./cmd/cjoind
/tmp/cjoind-updates -addr "$ADDR" -rows 3000 -shards 2 -maxconc 8 -queue 64 &
CJOIND=$!
trap 'kill $CJOIND 2>/dev/null || true' EXIT

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null && break
  sleep 0.2
done

# q SQL → first cell of the completed result.
q() {
  local id
  id=$(curl -sf "$BASE/query" -d "{\"sql\":\"$1\"}" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
  curl -sf "$BASE/query/$id/result?timeout=60s" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["state"] == "done", r
rows = r.get("rows") or []
print(rows[0][0] if rows else 0)'
}

# upd BODY → published commit snapshot (fails the script on a non-2xx).
upd() {
  curl -sf "$BASE/update" -d "$1" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["snapshot"])'
}

N0=$(q 'SELECT COUNT(*) AS n FROM lineorder')
[ "$N0" = 3000 ] || { echo "baseline count $N0, want 3000"; exit 1; }
# Caches the (empty) year-3000 predicate row-set before the rewrite.
Y0=$(q 'SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = 3000')
[ "$Y0" = 0 ] || { echo "year-3000 count $Y0 before any write, want 0"; exit 1; }

# Three appended fact rows become visible to queries admitted after the
# commit; system columns (xmin/xmax) are stamped by the server.
ROW='[9000001, 1, 1, 1, 1, 19920101, "1-URGENT", 0, 10, 1000, 1000, 4, 960, 500, 3, 19920110, "AIR"]'
S1=$(upd "{\"op\":\"append\",\"rows\":[$ROW,$ROW,$ROW]}")
N1=$(q 'SELECT COUNT(*) AS n FROM lineorder')
[ "$N1" = 3003 ] || { echo "count after append $N1, want 3003"; exit 1; }

S2=$(upd '{"op":"delete","row":0}')
[ "$S2" = "$((S1 + 1))" ] || { echo "delete snapshot $S2, want $((S1 + 1))"; exit 1; }
N2=$(q 'SELECT COUNT(*) AS n FROM lineorder')
[ "$N2" = 3002 ] || { echo "count after delete $N2, want 3002"; exit 1; }

# Deleting the same row again must fail — re-stamping xmax would
# resurrect the row for intermediate snapshots — and the failed commit
# must not advance the snapshot counter (asserted via S3 below).
code=$(curl -s -o /tmp/updates-smoke-err.json -w '%{http_code}' "$BASE/update" -d '{"op":"delete","row":0}')
[ "$code" = 400 ] || { echo "double delete answered $code, want 400"; exit 1; }
grep -q 'already deleted' /tmp/updates-smoke-err.json \
  || { echo "double delete error lacks cause: $(cat /tmp/updates-smoke-err.json)"; exit 1; }

# In-place dimension rewrite: move ten date rows to year 3000. The
# commit id must be exactly S2+1 — the failed delete burned nothing —
# and the cached year-3000 predicate row-set must go stale, so the
# re-submitted template sees facts land under the new year.
for r in 0 1 2 3 4 5 6 7 8 9; do
  S3=$(upd "{\"op\":\"dim-update\",\"table\":\"date\",\"column\":\"d_year\",\"row\":$r,\"value\":3000}")
done
FIRST=$((S2 + 1))
[ "$S3" = "$((S2 + 10))" ] || { echo "dim-update snapshots ended at $S3, want $((S2 + 10)) (failed delete must not burn an id past $FIRST)"; exit 1; }
Y1=$(q 'SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = 3000')
[ "$Y1" -gt 0 ] || { echo "year-3000 count still $Y1 after dimension rewrite: stale predicate cache"; exit 1; }

# Write-plane metric families, with per-kind commit labels.
curl -sf "$BASE/metrics" > /tmp/updates-smoke-metrics.txt
for pat in \
  'cjoin_commits_total{kind="append"} 1' \
  'cjoin_commits_total{kind="delete"} 1' \
  'cjoin_commits_total{kind="dim_update"} 10' \
  'cjoin_commit_errors_total 1' \
; do
  grep -qF "$pat" /tmp/updates-smoke-metrics.txt \
    || { echo "metrics missing $pat"; exit 1; }
done
grep -q '^cjoin_commit_seconds_count 12' /tmp/updates-smoke-metrics.txt \
  || { echo "metrics missing commit latency count"; exit 1; }
awk '$1=="cjoin_dimcache_invalidations_total" && $2+0 >= 10 {found=1} END{exit !found}' /tmp/updates-smoke-metrics.txt \
  || { echo "dimension cache invalidations not recorded"; exit 1; }

kill -TERM $CJOIND
wait $CJOIND
echo "updates-smoke: OK"
