GO ?= go

.PHONY: all build vet test race check bench-smoke benchmark-test chaos-smoke fuzz-smoke figures clean

all: check

build:
	$(GO) build ./...

# vet also gates formatting over the root module (benchmark/ is its own):
# gofmt -l prints the files it would change. And it keeps unsafe to one file:
# the table space's image accessors (DESIGN.md §10.4) are its whole surface.
vet:
	$(GO) vet ./...
	@out=$$(find . -name '*.go' -not -path './benchmark/*' | xargs gofmt -l); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@out=$$(find . -name '*.go' -not -name '*_test.go' -not -path './internal/table/table.go' | xargs grep -lE '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"unsafe"'); if [ -n "$$out" ]; then echo "unsafe imported outside internal/table/table.go:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-check the concurrency-heavy packages (group commit, GC, version
# space, the snapshot announcement array, the version budget's ladder on the
# collector loop, the network
# service layer, replication, the node assembly and its end-to-end smokes in
# cmd/tpcc, the sharded engine and its 2PC path, the lock-free hash table and
# table space, the WAL/wire hot paths, the row codec and chunks the HTAP
# migrator and its scans share, and the crash matrix, which drives commit,
# fail-stop and recovery concurrently, the TPC-C load harness's worker,
# reader and sampler goroutines, and the TPC-C soak, whose -short form still
# runs the ladder to eviction under concurrent workers) with -short to keep
# CI latency sane.
race:
	$(GO) test -race -short ./internal/workload/... ./internal/table/... ./internal/core/... ./internal/txn/... ./internal/gc/... ./internal/mvcc/... ./internal/sts/... ./internal/sql/... ./internal/server/... ./internal/client/... ./internal/repl/... ./internal/node/... ./cmd/tpcc/... ./internal/wal/... ./internal/wire/... ./internal/netfault/... ./internal/chaos/... ./internal/shard/... ./internal/htap/... ./internal/colstore/... ./internal/crashmatrix/... ./internal/tpcc/...

check: vet build test race

# CI smoke: one iteration of every hot-path micro-benchmark, so bench code
# cannot rot without failing the build. GOMAXPROCS=4 makes the parallel
# benchmarks actually interleave; the commit path runs at -cpu 1,2,4 because
# its two regimes differ in kind (at 1 every commit leads its own group, above
# that followers park and leadership is handed on), next to the one-goroutine
# BenchmarkCommitSerial. From internal/gc: BenchmarkPassEmpty is one Hybrid
# pass with nothing to collect on 9 tables under 64 live snapshots (ns/op and
# scans/op: 1 — a pass reads the announcement array once), and
# BenchmarkPassPinnedWindow the TG and SI pass cost behind a held scoped
# snapshot at window widths 1 k / 10 k / 100 k groups: flat while the
# collectors are incremental, and heap-B/group, the Go heap per window group:
# ~440 B at 100 k while a linked group keeps none of its reclaimed versions
# reachable. From internal/repl: BenchmarkStreamTail, a
# replica's 50 k-record catch-up (records/s) and the commit→applied p50 at
# the head, over loopback. From internal/server: BenchmarkRemoteTxn, the TPC-C
# standard mix with one closed-loop worker — over loopback through the client
# (txn/s, and frames/txn: request frames the server read per committed
# transaction, ≈ 2 while a transaction's operations travel together) and in
# process (allocs/op of the same profiles where no frame is saved). From
# internal/core: BenchmarkStatementGetParallel, warm Stmt-SI transactions
# issuing Gets (ns/op, allocs/op: 0 while a statement re-arms its
# transaction's snapshot), and BenchmarkWriteParallel, one-row Update+Commit
# transactions on disjoint rows with the collector running (ns/op: what the
# write path's shared lines cost while its accounting is tallied per
# transaction; live-versions: what is left unreclaimed at its end, a few
# times the 256 versions after which a committer runs GT, where the collector
# loop alone would leave up to its 512-version batch and more). From
# internal/mvcc: BenchmarkHashStats at 1 k and
# 64 k buckets, flat while Stats reads counters instead of the buckets. From
# internal/table: BenchmarkRecordImage, parallel image reads of 20 k
# unversioned rows while one goroutine re-installs their images (ns/op, and
# allocs/op: 0 while a record holds its image inline). From the root package:
# the collector, chain-depth, column-lane and group-commit ablations and the
# engine Update/Get and cursor FETCH micro-benchmarks.
bench-smoke:
	GOMAXPROCS=4 $(GO) test -run '^$$' -bench 'BenchmarkAblation|BenchmarkEngine|BenchmarkCursorFetch|BenchmarkOLAPScan|BenchmarkHashGet|BenchmarkHashStats|BenchmarkTableGet|BenchmarkRecordImage|BenchmarkCatalogByID|BenchmarkWireFrame|BenchmarkWALAppend|BenchmarkGroupCommit|BenchmarkShardedCommit|BenchmarkSnapshotAcquire|BenchmarkStatementGetParallel|BenchmarkWriteParallel|BenchmarkPassEmpty|BenchmarkPassPinnedWindow|BenchmarkStreamTail|BenchmarkRemoteTxn' -benchtime=1x . ./internal/mvcc ./internal/table ./internal/wire ./internal/wal ./internal/shard ./internal/htap ./internal/sts ./internal/txn ./internal/core ./internal/gc ./internal/repl ./internal/server
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
# convergence, replica reads and demotion); a failing seed prints how to
# reproduce.
chaos-smoke:
	$(GO) run ./cmd/chaos -seeds 1,2,3,4,5 -duration 1200ms

# CI smoke: every fuzz target in the tree for 10 s each (go test takes one
# -fuzz per invocation and one package per -fuzz). The targets are decoders of
# bytes from outside the process — wire frames, STATS bodies, row images from
# the WAL and the replication stream, checkpoint streams: arbitrary input must
# fail the parser, never panic or allocate what a length prefix claims.
fuzz-smoke:
	@for p in $$(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for f in $$($(GO) test -list '^Fuzz' $$p | grep '^Fuzz'); do \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s $$p || exit 1; \
		done; \
	done

# Every figure of the paper's evaluation at default scale, recorded with the
# commit, date and CPU it ran on; EXPERIMENTS.md quotes its numbers.
figures:
	{ echo "# commit $$(git describe --always --dirty) $$(date -u +%Y-%m-%dT%H:%MZ) $$(nproc) CPUs:$$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2)"; \
	  $(GO) run ./cmd/hybridgc-bench -fig all; } > EXPERIMENTS.out

clean:
	$(GO) clean ./...
