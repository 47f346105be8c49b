GO ?= go

.PHONY: all build test vet lint race race-workers race-sessions stress-sessions perfbench check bench bench-diff fuzz fmt

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs sinewlint, the project's own stdlib-only analyzer: Close()
# propagation through iterator trees, mutex discipline, exhaustive
# datum-tag switches, plan-cache key completeness, and unchecked errors
# on the storage/serialization paths. See DESIGN.md "Invariants & static
# checks".
lint:
	$(GO) run ./cmd/sinewlint ./...

race:
	$(GO) test -race ./...

# race-workers re-runs the executor differential tests (row vs batch vs
# parallel pipelines) under the race detector at several GOMAXPROCS
# settings: 1 forces serial plans, 2 and 8 vary worker counts and
# goroutine interleavings through the morsel-driven pipelines. The final
# leg drives the page-at-a-time batch scan end to end over never-frozen,
# frozen and mixed heaps (frozen pages shared across Gather partitions,
# row-form tails, and the UPDATE un-freeze path).
race-workers:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestProperty|TestParallel' ./internal/rdbms/exec/
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'TestProperty|TestParallel' ./internal/rdbms/exec/
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'TestProperty|TestParallel' ./internal/rdbms/exec/
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/rdbms/plan/ ./internal/core/
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'TestStriped|TestPropertyStriped|TestSinewStats' ./internal/rdbms/exec/ ./internal/core/

# race-sessions drives the concurrent-session surface added with sinewd
# (DESIGN.md §10): the mixed writer/reader stress harness, the
# snapshot-isolation differential test (every snapshot read must equal
# the serial replay at its pinned epoch, across row/batch/striped/
# parallel plans), and the HTTP end-to-end test. GOMAXPROCS=1 forces
# cooperative interleavings, 2 and 8 vary true parallelism.
race-sessions:
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestSnapshot' ./internal/rdbms/
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'TestSnapshot' ./internal/rdbms/
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'TestSnapshot' ./internal/rdbms/
	GOMAXPROCS=8 $(GO) test -race -count=1 ./internal/service/
	GOMAXPROCS=8 $(GO) test -race -count=1 -run 'TestSinewStatsSnapshot' ./internal/core/

# stress-sessions soaks the same harness for ~30s (CI runs it as a
# non-blocking job; locally it is a good pre-merge smoke for scheduler-
# dependent interleavings the quick legs may miss).
stress-sessions:
	GOMAXPROCS=8 $(GO) test -race -count=10 -timeout 10m -run 'TestSnapshotStress|TestSnapshotIsolation' ./internal/rdbms/

# perfbench vets and tests the benchmark harness. It is its own Go module
# (perfbench/go.mod), so the root build and test never compile it; this
# leg catches executor API changes that would break the benchmark.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# check is the gate CI runs: static analysis plus the full test suite
# under the race detector (the parallel pipelines are the main
# concurrency surface), with extra GOMAXPROCS legs for the executor and
# the concurrent-session/snapshot surface, and the benchmark module.
check: vet lint race race-workers race-sessions perfbench

# fuzz exercises the serializer's read side (the same target CI runs as a
# non-blocking job); the checked-in corpus lives in
# internal/serial/testdata/fuzz/.
fuzz:
	$(GO) test -fuzz=FuzzRecordReaders -fuzztime=30s ./internal/serial/

# bench runs the micro-benchmarks and regenerates BENCH_PR10.json, the
# machine-readable Figure 6 + Table 5 + plan-cache report (ns/op and
# allocs/op per query) that tracks the perf trajectory across PRs.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/bench/
	$(GO) run ./cmd/sinewbench -json BENCH_PR10.json -small 4000

# bench-diff gates the perf trajectory: it fails when any Figure 6 query
# or Table 5 row in BENCH_PR10.json regressed more than 10% against
# BENCH_PR8.json, the freshest prior baseline, in ns/op or allocs/op.
# (benchdiff defaults its baseline to the newest BENCH_PR*.json; the pin
# keeps the gate explicit.)
bench-diff:
	$(GO) run ./cmd/benchdiff -baseline BENCH_PR8.json -new BENCH_PR10.json -tolerance 10

fmt:
	gofmt -w $$($(GO) list -f '{{.Dir}}' ./...)
