# CJOIN build/test/bench entry points. `make bench` runs the hot-loop
# microbenchmarks and prints plain `go test -bench` output, which
# benchstat reads; bench/ (bash bench/run.sh) is the end-to-end benchmark
# (see PERFORMANCE.md).

GO        ?= go
BENCHTIME ?= 1s
COUNT     ?= 20

.PHONY: all build test race race-core flake-census bench bench-smoke bench-pprof vet ci fuzz-smoke paper-smoke chaos-smoke metrics-smoke updates-smoke

all: build test

# What CI runs (.github/workflows/ci.yml): vet + build + full tests,
# the concurrency-heavy packages under the race detector, a short fuzz
# budget, every paper figure end to end at toy scale, the shard-loss
# chaos smoke, the telemetry-plane metrics smoke, the HTAP write-plane
# smoke, and the benchmark's own build + smoke.
ci: vet build test race-core fuzz-smoke paper-smoke chaos-smoke metrics-smoke updates-smoke bench-smoke

# The native fuzz targets on a short budget: FuzzResultEncoding checks
# the streaming /result encoder against encoding/json of DecodeResults,
# byte for byte; FuzzParseBind drives arbitrary text through the SQL
# lexer, parser and binder and fingerprints what binds, with no panic.
# A failing input lands in the package's testdata/fuzz and is replayed
# by every later go test.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzResultEncoding$$' -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzParseBind$$' -fuzztime=10s ./internal/query

# Every paper figure and table (§6, cjoin-bench -exp all) end to end at
# toy scale. -maxconc 8 with -ns 1,8 runs the closed loop with every
# query slot in use.
paper-smoke:
	$(GO) run ./cmd/cjoin-bench -exp all -rows 1000 -queries 8 -ns 1,8 -n 8 -sfs 1,2 -sels 0.01,0.1 -maxconc 8 > /dev/null

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
# sharded-tier scan benchmark. Save two runs and compare them with
# benchstat. The paper's figures run through cjoin-bench.
bench:
	$(GO) test -run '^$$' -bench 'FilterProbe|EmitPage|ShardScan|HashAdd|HashResults|Merge|SelectRows' -benchtime $(BENCHTIME) -count 3 \
		./internal/core ./internal/shard ./internal/agg ./internal/dimplane
