#!/usr/bin/env bash
# metrics-smoke: prove the telemetry plane end to end over the live HTTP
# API, at SHARDS shard pipelines (default 2; make metrics-smoke also runs
# SHARDS=1, cjoind's default topology — a one-shard group).
#
#   - cjoind -shards $SHARDS -pprof, a batch of queries through completion;
#   - /metrics serves Prometheus text covering every stage family
#     (admission, dimension plane, scan, filter, shard supervision) with
#     per-shard labels on the pipeline families;
#   - /healthz lists every shard, and /stats carries one per-shard entry
#     each, with the plane figures zero per shard and filled on the
#     merged entry (the plane is admitted to once, whatever the count);
#   - every /stats counter equals its /metrics series once the results
#     are fetched (one definition per counter);
#   - the dimension plane's predicate scan counts the pages it read and
#     the pages its zone maps let it skip;
#   - a completed query's /query/{id}/trace carries the full
#     enqueued→admitted→first_page→cycle_complete→delivered timeline;
#   - a fetched result is released: the retention families are served,
#     every fetch counts as delivered, and a re-fetch answers 410 Gone;
#   - /debug/pprof/ answers behind -pprof;
#   - SIGTERM still drains cleanly.
set -euo pipefail

SHARDS=${SHARDS:-2}
ADDR=${ADDR:-127.0.0.1:8096}
BASE="http://$ADDR"

go build -o /tmp/cjoind-metrics ./cmd/cjoind
/tmp/cjoind-metrics -addr "$ADDR" -rows 3000 -shards "$SHARDS" -maxconc 8 -queue 64 -pprof &
CJOIND=$!
trap 'kill $CJOIND 2>/dev/null || true' EXIT

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null && break
  sleep 0.2
done

for i in $(seq 1 6); do
  curl -sf "$BASE/query" \
    -d '{"sql":"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year"}' >/dev/null
done
# A narrow date window: the fact table is date-sorted, so page-level
# zone maps must prune most of its scan (metrics asserted below).
curl -sf "$BASE/query" \
  -d '{"sql":"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN 19920101 AND 19920401 GROUP BY d_year"}' >/dev/null
for i in $(seq 1 7); do
  id=$(printf 'q-%06d' "$i")
  state=$(curl -sf "$BASE/query/$id/result?timeout=60s" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$state" = "done" ] || { echo "query $id state=$state"; exit 1; }
done

# Every stage of the pipeline must be represented on /metrics.
curl -sf "$BASE/metrics" > /tmp/metrics-smoke.txt
for fam in \
  cjoin_admission_submitted_total \
  cjoin_admission_queue_wait_seconds_bucket \
  cjoin_admission_queue_depth \
  cjoin_dimplane_admits_total \
  cjoin_dimplane_admit_seconds_count \
  cjoin_dimplane_slots_in_use \
  cjoin_dimplane_cache_hits_total \
  cjoin_dimplane_cache_misses_total \
  cjoin_dimplane_snapshot_publish_total \
  cjoin_dimplane_admit_batch_size_bucket \
  cjoin_dimplane_scan_pages_total \
  cjoin_scan_pages_total \
  cjoin_scan_pruned_pages_total \
  cjoin_scan_zonemap_skipped_pages_total \
  cjoin_scan_cycle_seconds_count \
  cjoin_register_stall_seconds_count \
  cjoin_filter_batch_seconds_count \
  cjoin_shard_up \
  cjoin_results_retained_bytes \
  cjoin_results_released_total \
  cjoin_go_goroutines \
; do
  grep -q "^$fam" /tmp/metrics-smoke.txt || { echo "metrics missing family $fam"; exit 1; }
done
# The six identical queries above share one predicate template, so the
# predicate-scan cache must have served repeats (>= 1 miss to build the
# entry, hits for the rest) and the plane must have published COW
# snapshots for the admissions.
awk '$1=="cjoin_dimplane_cache_hits_total" && $2+0 > 0 {found=1} END{exit !found}' /tmp/metrics-smoke.txt \
  || { echo "no dimension predicate cache hits recorded"; exit 1; }
awk '$1=="cjoin_dimplane_snapshot_publish_total" && $2+0 > 0 {found=1} END{exit !found}' /tmp/metrics-smoke.txt \
  || { echo "no dimension snapshot publications recorded"; exit 1; }
# The narrow-window query's date predicate is a range on the date
# dimension's clustered key, so the plane's predicate scan must have
# read some date pages and skipped the rest by their zone maps.
for outcome in read pruned; do
  awk -v k="cjoin_dimplane_scan_pages_total{outcome=\"$outcome\"}" '$1==k && $2+0 > 0 {found=1} END{exit !found}' /tmp/metrics-smoke.txt \
    || { echo "no dimension scan pages counted as $outcome"; exit 1; }
done
# The narrow-window query must have been pruned at page granularity:
# zone maps charged it fewer pages than the table holds, and the pruned
# counter (cause="zonemap") records the difference across the shards.
awk '/^cjoin_scan_pruned_pages_total\{cause="zonemap"/ {sum += $NF+0} END{exit !(sum > 0)}' /tmp/metrics-smoke.txt \
  || { echo "no zone-map page pruning recorded for the narrow window"; exit 1; }
# Every admitted query paused each shard's scan exactly once.
awk -v want=$((7 * SHARDS)) '/^cjoin_register_stall_seconds_count\{/ {sum += $NF+0} END{exit !(sum == want)}' /tmp/metrics-smoke.txt \
  || { echo "register-stall histogram did not record 7 queries x $SHARDS shards"; exit 1; }
# Each of the 7 fetched results was released on delivery, and a second
# fetch of one is 410 Gone.
awk '$1=="cjoin_results_released_total{cause=\"delivered\"}" && $2+0 >= 7 {found=1} END{exit !found}' /tmp/metrics-smoke.txt \
  || { echo "fewer than 7 results released on delivery"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/query/q-000001/result")
[ "$code" = "410" ] || { echo "re-fetch of a delivered result: HTTP $code, want 410"; exit 1; }

# Per-shard labeling: every shard pipeline must report.
for s in $(seq 0 $((SHARDS - 1))); do
  grep -q "cjoin_scan_pages_total{shard=\"$s\"}" /tmp/metrics-smoke.txt \
    || { echo "no scan pages for shard $s"; exit 1; }
  grep -q "cjoin_shard_up{shard=\"$s\"} 1" /tmp/metrics-smoke.txt \
    || { echo "shard $s not reporting up"; exit 1; }
done

# /healthz lists every shard; /stats has one per-shard entry each, and
# the plane figures are reported once — zero per shard, filled merged.
curl -sf "$BASE/healthz" | SHARDS=$SHARDS python3 -c '
import json, os, sys
h = json.load(sys.stdin)
n = int(os.environ["SHARDS"])
assert h["state"] == "ok", h
assert [s["shard"] for s in h["shards"]] == list(range(n)), h
assert all(s["state"] == "healthy" for s in h["shards"]), h
'
curl -sf "$BASE/stats" | SHARDS=$SHARDS python3 -c '
import json, os, sys
st = json.load(sys.stdin)
n = int(os.environ["SHARDS"])
plane = ["dim_admits", "plane_bytes", "plane_pipelines", "plane_snapshot_publishes", "plane_batch_admits"]
assert len(st["shards"]) == n, st["shards"]
for sh in st["shards"]:
    assert sh["pages_read"] > 0, sh
    assert all(sh.get(k, 0) == 0 for k in plane), sh
merged = st["pipeline"]
assert all(merged.get(k, 0) > 0 for k in plane), merged
assert merged["dim_admits"] == 7 and merged["plane_pipelines"] == n, merged
'

# One definition per counter: each /stats counter reads the same handle
# its /metrics series exports, so at quiescence the two agree exactly —
# the scan counters against their per-shard series summed, the plane's
# and the admission queue's against their one series. Slot recycling
# (the retire's snapshot publications) runs just after delivery,
# so the comparison retries until both views settle.
BASE=$BASE python3 -c '
import json, os, time, urllib.request
base = os.environ["BASE"]
def get(path):
    with urllib.request.urlopen(base + path) as r:
        return r.read().decode()
def series():
    out = {}
    for line in get("/metrics").splitlines():
        if line and not line.startswith("#"):
            k, v = line.rsplit(" ", 1)
            out[k] = float(v)
    return out
def summed(m, prefix):
    return sum(v for k, v in m.items() if k.startswith(prefix))
pairs = [
    ("pipeline", "pages_read", "cjoin_scan_pages_total{"),
    ("pipeline", "tuples_scanned", "cjoin_scan_tuples_total{"),
    ("pipeline", "tuples_emitted", "cjoin_scan_tuples_emitted_total{"),
    ("pipeline", "scan_cycles", "cjoin_scan_cycles_total{"),
    ("pipeline", "pages_pruned_partition", "cjoin_scan_pruned_pages_total{cause=\"partition\""),
    ("pipeline", "pages_pruned_zonemap", "cjoin_scan_pruned_pages_total{cause=\"zonemap\""),
    ("pipeline", "pages_skipped_zonemap", "cjoin_scan_zonemap_skipped_pages_total{"),
    ("pipeline", "dim_admits", "cjoin_dimplane_admits_total"),
    ("pipeline", "plane_cache_hits", "cjoin_dimplane_cache_hits_total"),
    ("pipeline", "plane_cache_misses", "cjoin_dimplane_cache_misses_total"),
    ("pipeline", "plane_snapshot_publishes", "cjoin_dimplane_snapshot_publish_total"),
    ("pipeline", "plane_batch_admits", "cjoin_dimplane_admit_batch_size_count"),
    ("admission", "submitted", "cjoin_admission_submitted_total"),
    ("admission", "admitted", "cjoin_admission_admitted_total"),
    ("admission", "completed", "cjoin_admission_completed_total"),
]
for attempt in range(50):
    m = series()
    st = json.loads(get("/stats"))
    diff = [(f, st[sec].get(f, 0), summed(m, pre)) for sec, f, pre in pairs
            if st[sec].get(f, 0) != summed(m, pre)]
    if not diff:
        break
    time.sleep(0.1)
assert not diff, "/stats vs /metrics: " + repr(diff)
assert st["pipeline"]["pages_read"] > 0 and st["admission"]["completed"] == 7, st
'

# A delivered query's trace is the complete ordered timeline.
curl -sf "$BASE/query/q-000001/trace" | python3 -c '
import json, sys
tr = json.load(sys.stdin)
assert tr["complete"], tr
stages = [s["stage"] for s in tr["stages"]]
assert stages == ["enqueued", "admitted", "first_page", "cycle_complete", "delivered"], stages
offs = [s["offset_us"] for s in tr["stages"]]
assert offs == sorted(offs), offs
'

# pprof answers behind the flag.
curl -sf "$BASE/debug/pprof/" >/dev/null || { echo "pprof index not served"; exit 1; }

kill -TERM $CJOIND
wait $CJOIND
echo "metrics-smoke (shards=$SHARDS): OK"
