GO ?= go

.PHONY: all build vet test race check bench bench-json bench-smoke benchmark-test chaos-smoke shard-smoke htap-smoke replica-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the concurrency-heavy packages (group commit, GC, version
# space, the snapshot announcement array, pressure controller, the network
# service layer, replication, the sharded engine and its 2PC path, the
# lock-free hash table and table space, and the WAL/wire hot paths) with
# -short to keep CI latency sane.
race:
	$(GO) test -race -short ./internal/table/... ./internal/core/... ./internal/txn/... ./internal/gc/... ./internal/mvcc/... ./internal/sts/... ./internal/sql/... ./internal/server/... ./internal/client/... ./internal/repl/... ./internal/wal/... ./internal/wire/... ./internal/netfault/... ./internal/chaos/... ./internal/shard/... ./internal/htap/...

check: vet build test race

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Regenerate the benchmark baseline: the paper-figure suite plus the hot-path
# micro-benchmarks, written to BENCH_<date>.json (see cmd/benchjson).
bench-json:
	$(GO) run ./cmd/benchjson

# CI smoke: one iteration of every hot-path micro-benchmark, so bench code
# cannot rot without failing the build. GOMAXPROCS=4 makes the parallel
# benchmarks actually interleave; the commit path runs at -cpu 1,2,4 because
# its two regimes differ in kind (at 1 every commit leads its own group, above
# that followers park and leadership is handed on), next to the one-goroutine
# BenchmarkCommitSerial.
bench-smoke:
	GOMAXPROCS=4 $(GO) test -run '^$$' -bench 'BenchmarkOLAPScan|BenchmarkHashGet|BenchmarkTableGet|BenchmarkCatalogByID|BenchmarkWireFrame|BenchmarkWALAppend|BenchmarkGroupCommit|BenchmarkShardedCommit|BenchmarkSnapshotAcquire' -benchtime=1x . ./internal/mvcc ./internal/table ./internal/wire ./internal/wal ./internal/shard ./internal/htap ./internal/sts ./internal/txn
	$(GO) test -run '^$$' -bench 'BenchmarkCommit(Parallel|Serial)$$' -benchtime=1x -cpu 1,2,4 ./internal/txn

# The repository benchmark is a nested module that `go test ./...` at the
# root skips; its own test builds the binary, runs every workload traced and
# untraced for 2 s and checks the output against BENCHMARK.json, so a change
# to the engine that breaks the instrument fails here.
benchmark-test:
	cd benchmark && $(GO) test ./...

# CI smoke: the deterministic network-chaos harness over a small fixed seed
# set. Each seed runs the replicated cluster + bank workload under a seeded
# nemesis and checks all four invariants (conservation, durability,
# convergence, GC-horizon liveness); a failing seed prints how to reproduce.
chaos-smoke:
	$(GO) run ./cmd/chaos -seeds 1,2,3,4,5 -duration 1200ms

# CI smoke: TPC-C over loopback against `hybridgcd -shards 4` through the
# shard-aware client, ending in the full consistency check. Proves the
# sharded server path (HELLO shard map, pinned single-shard transactions,
# cross-shard 2PC) end to end.
shard-smoke:
	bash ./scripts/shard-smoke.sh

# CI smoke: mixed OLTP/OLAP over loopback against `hybridgcd -htap`. TPC-C
# workers drive the row store while OLAP analysts run column-lane aggregates
# through the wire AGGREGATE verb; the script asserts the migrator actually
# shipped rows into chunks during the run.
htap-smoke:
	bash ./scripts/htap-smoke.sh

# CI smoke: read scale-out over loopback — persistent primary, two streaming
# replicas, TPC-C with `-read-replicas`: pooled analysts split Session and
# bounded reads across the replicas while OLTP writes to the primary. The
# script asserts replicas actually served reads and that read-your-writes
# held on every acked row.
replica-smoke:
	bash ./scripts/replica-read-smoke.sh

clean:
	$(GO) clean ./...
