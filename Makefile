# CJOIN build/test/bench entry points. `make bench` snapshots the Filter
# hot-loop microbenchmarks into BENCH_<BENCH_N>.json so successive PRs
# leave a comparable performance trajectory (see PERFORMANCE.md).

GO        ?= go
BENCH_N   ?= 1
BENCHTIME ?= 1s
COUNT     ?= 20

.PHONY: all build test race race-core flake-census bench bench-smoke bench-pprof vet ci fuzz-smoke dimadmit-smoke shardparts-smoke chaos-smoke metrics-smoke updates-smoke

all: build test

# What CI runs (.github/workflows/ci.yml): vet + build + full tests,
# the concurrency-heavy packages under the race detector, smoke runs
# of the shared-dimension-plane and partition-dealt experiments over
# 2-shard groups, the shard-loss chaos smoke, the telemetry-plane
# metrics smoke, the HTAP write-plane smoke, a short fuzz budget, and
# the benchmark's own build + smoke.
ci: vet build test race-core fuzz-smoke dimadmit-smoke shardparts-smoke chaos-smoke metrics-smoke updates-smoke bench-smoke

# The native fuzz targets on a short budget: FuzzResultEncoding checks
# the streaming /result encoder against encoding/json of DecodeResults,
# byte for byte. A failing input lands in internal/server/testdata/fuzz
# and is replayed by every later go test.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzResultEncoding$$' -fuzztime=10s ./internal/server

# End-to-end smoke of the admit-once execution tier: the dimadmit
# experiment exercises plane admission, fan-out activation, and merged
# stats over real shard topologies in a few seconds.
dimadmit-smoke:
	$(GO) run ./cmd/cjoin-bench -exp dimadmit -shards 1,2 -rows 2000 -queries 8 -n 8 -json > /dev/null

# End-to-end smoke of partition-aware sharding: shardscale over a
# range-partitioned star deals whole partitions to the shards, so this
# exercises the deal planner, per-shard subset scans, and pruned
# completion under a real closed-loop workload.
shardparts-smoke:
	$(GO) run ./cmd/cjoin-bench -exp shardscale -partitions 6 -shards 1,2 -rows 2000 -queries 8 -n 8 -json > /dev/null

# End-to-end graceful degradation: cjoind -shards 4 -chaos loses one
# shard mid-workload; the daemon must stay up, /healthz must go
# degraded, and queries over surviving partitions must keep completing
# (scripts/chaos-smoke.sh).
chaos-smoke:
	./scripts/chaos-smoke.sh

# End-to-end telemetry plane: cjoind -pprof must serve every stage family
# on /metrics, a complete per-query trace timeline, the pprof index, and a
# per-shard /healthz and /stats breakdown (scripts/metrics-smoke.sh) — at
# -shards 2 and at cjoind's default -shards 1, a one-shard group.
metrics-smoke:
	SHARDS=2 ./scripts/metrics-smoke.sh
	SHARDS=1 ./scripts/metrics-smoke.sh

# End-to-end HTAP write plane: POST /update commits (append, delete,
# dimension rewrite) against cjoind -shards 2, snapshot contiguity past
# a failed commit, a dimension rewrite seen through the predicate
# cache, and the write-plane metric families (scripts/updates-smoke.sh).
updates-smoke:
	./scripts/updates-smoke.sh

# bench/ is its own Go module, so `go build ./... && go test ./...` here
# never compiles it — yet it builds against core.PageSource, agg.Result
# and server.DecodeResults, and its page-read decorator embeds
# *storage.HeapFile. Build it, run its smoke suite against a live cjoind,
# and run its tests, so an internal/ change that breaks the benchmark
# fails CI instead of the next benchmark run.
bench-smoke:
	bash bench/run.sh -smoke && (cd bench && $(GO) test ./...)

# The "pprof share" step of a performance claim (PERFORMANCE.md): an 8 s
# CPU profile of cjoind taken mid-window while the benchmark drives one
# workload at it. make bench-pprof WORKLOAD=htap_mixed OUT=/tmp/cpu.pb.gz
WORKLOAD ?= shared_scan
OUT      ?= cjoind-$(WORKLOAD).pb.gz
bench-pprof:
	./scripts/bench-pprof.sh $(WORKLOAD) $(OUT)

race-core:
	$(GO) test -race -timeout 900s ./internal/core ./internal/admission ./internal/server ./internal/bitvec ./internal/dimht ./internal/dimplane ./internal/query ./internal/shard ./internal/obs ./internal/storage ./internal/txn

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full suite under the race detector; the Filter churn tests verify
# the lock-free probe path against concurrent admit/remove.
race:
	$(GO) test -race -timeout 900s ./...

# go vet plus formatting: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# Flake census: the cancel-race, chaos, churn and commit-vs-cache-fill
# suites COUNT times over under the race detector. A failure here that a
# single race-core pass misses is a flaky test or a real race; record
# its output.
flake-census:
	$(GO) test -race -count=$(COUNT) -timeout 3600s ./internal/core ./internal/shard ./internal/server ./internal/admission ./internal/dimplane ./internal/txn

# Filter/pipeline hot-path microbenchmarks (the Filter probe loop, one
# page from emitPage to route), the aggregation operator (new and
# existing groups, finalizing, the shard merge), the dimension plane's
# predicate scan (a pruned key window and a full scan) plus the
# sharded-tier scan benchmark, snapshotted as JSON. Run the paper-scale
# experiment benchmarks separately: go test -bench . -v .
bench:
	$(GO) test -run '^$$' -bench 'FilterProbe|EmitPage|ShardScan|HashAdd|HashResults|Merge|SelectRows' -benchtime $(BENCHTIME) -count 3 \
		./internal/core ./internal/shard ./internal/agg ./internal/dimplane \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_$(BENCH_N).json
