#!/usr/bin/env bash
# bench-pprof: CPU-profile cjoind while the benchmark drives one workload
# at it — the "pprof share" step of the performance-claim protocol
# (PERFORMANCE.md, PR 13) as one recorded command.
#
#   scripts/bench-pprof.sh <workload> <out.pb.gz>
#
# It starts one driver run in the background (bench/run.sh, exactly as the
# judge runs it; nothing under bench/ is edited), waits for the workload's
# own daemon — the setup_s probes before it each live under a second, so
# the daemon is the cjoind whose pid has stayed the newest for 3 s —
# reads its -addr from /proc/<pid>/cmdline, and fetches an 8 s
# /debug/pprof/profile from the middle of the 15 s window. Read it with
#
#   go tool pprof -top -cum .bench_build/cjoind <out.pb.gz>
#
# SEED and SECONDS_ override the driver's --seed / --seconds.
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: $0 <workload> <out.pb.gz>" >&2; exit 2; }
workload=$1 out=$2
root=$(cd "$(dirname "$0")/.." && pwd)

bash "$root/bench/run.sh" --workload "$workload" --seed "${SEED:-7}" --seconds "${SECONDS_:-15}" --trace 0 &
driver=$!
trap 'kill $driver 2>/dev/null || true; wait $driver 2>/dev/null || true' EXIT

pid="" stable=0
while [ $stable -lt 6 ]; do
  kill -0 $driver 2>/dev/null || { echo "bench-pprof: driver exited before its daemon settled" >&2; exit 1; }
  sleep 0.5
  cur=$(pgrep -n -x cjoind || true)
  if [ -n "$cur" ] && [ "$cur" = "$pid" ]; then
    stable=$((stable + 1))
  else
    pid=$cur stable=0
  fi
done

addr=$(tr '\0' '\n' < "/proc/$pid/cmdline" | grep -A1 -x -- '-addr' | tail -n 1)
echo "bench-pprof: profiling cjoind pid $pid at $addr for 8 s" >&2
curl -sf "http://$addr/debug/pprof/profile?seconds=8" -o "$out"

trap - EXIT
wait $driver
echo "bench-pprof: wrote $out" >&2
