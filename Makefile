# BF-Tree — build, test and benchmark targets mirroring CI
# (.github/workflows/ci.yml). `make ci` runs the full gate locally.

GO ?= go

# Packages with concurrency-sensitive code; `make race` and CI run these
# under the race detector.
RACE_PKGS := ./internal/core/... ./internal/pagestore/... ./internal/device/... ./internal/forest/...

.PHONY: help build test race bench bench-json bfperf conformance forest mixed compact serve fmt fmt-fix vet ci clean

help:
	@echo "BF-Tree — available targets:"
	@echo ""
	@echo "  make build    - go build ./..."
	@echo "  make test     - go test ./..."
	@echo "  make race     - race-detector tests on core/pagestore/device"
	@echo "  make conformance - cross-backend index API conformance suite"
	@echo "  make forest   - forest race suite + concurrent conformance under -race"
	@echo "  make mixed    - workload-engine driver tests (golden model + concurrency) under -race"
	@echo "  make compact  - incremental-compaction gate: stall comparison + race test"
	@echo "  make serve    - serving-layer gate: server + loadgen suites under -race, serve-load scaling test"
	@echo "  make bench    - run every benchmark once (smoke) "
	@echo "  make bfperf   - smoke-test the wall-clock benchmark (its own module)"
	@echo "  make bench-json - regenerate every BENCH_*.json artifact (see the README table)"
	@echo "  make fmt      - fail if any file needs gofmt"
	@echo "  make fmt-fix  - gofmt -w the tree"
	@echo "  make vet      - go vet ./... (root module and cmd/bfperf)"
	@echo "  make ci       - everything CI runs, in order"
	@echo "  make clean    - drop build and test caches"
	@echo ""

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

conformance:
	$(GO) test -run 'TestConformance|TestCapabilityMatrix' -v ./index/

# The sharded-forest gate: per-shard maintainers and the page-economy
# audit under the race detector, plus every backend's concurrent
# conformance run.
forest:
	$(GO) test -race ./internal/forest/
	$(GO) test -race -run TestConformanceConcurrent ./index/

# The workload-engine gate: op-stream layer tests, the mixed-op golden
# model across every backend, and the concurrent mixed driver under the
# race detector.
mixed:
	$(GO) test ./internal/workload/
	$(GO) test -race -run 'TestDriver|TestMixedWorkload' ./internal/bench/

# The incremental-compaction gate: the writer/maintainer race test
# (drift accounting + page economy under -race) and the stall-comparison
# smoke asserting incremental cuts the max writer stall vs full rebuild.
compact:
	$(GO) test -race -run 'TestIncrementalCompactionRace|TestIncrementalMaintainConverges' ./internal/core/
	$(GO) test -run 'TestCompactionStall' ./internal/bench/

# The serving-layer gate: golden equivalence + capability matrix +
# backpressure + the 8-client concurrency test under -race, then the
# serve-load queue-depth scaling assertion over real connections.
serve:
	$(GO) test -race ./internal/server/...
	$(GO) test -run 'TestServeLoad|TestArtifactRegistry' ./internal/bench/

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# cmd/bfperf is a module of its own, so `go test ./...` at the root does
# not build it; its smoke test runs the whole benchmark at a tiny scale
# against the packages it imports (core, bloom, server, ...).
bfperf:
	$(GO) -C cmd/bfperf test ./...

# Regenerates the committed streaming/batching result artifacts at the
# scale CI smokes them.
bench-json:
	$(GO) run ./cmd/bfbench -exp scan-stream -tuples 30000 -probes 128 -json .
	$(GO) run ./cmd/bfbench -exp batched-probe -tuples 30000 -probes 256 -json .
	$(GO) run ./cmd/bfbench -exp point-lookup -index=each -tuples 30000 -probes 256 -json .
	$(GO) run ./cmd/bfbench -exp mixed-workload -index=each -tuples 30000 -probes 256 -json .
	$(GO) run ./cmd/bfbench -exp compaction-stall -tuples 30000 -json .
	$(GO) run ./cmd/bfbench -exp serve-load -index=each -tuples 20000 -probes 64 -json .

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt-fix:
	gofmt -w .

# cmd/bfperf is its own module, so the root vet does not reach it.
vet:
	$(GO) vet ./...
	$(GO) -C cmd/bfperf vet ./...

ci: fmt vet build test race conformance forest mixed compact serve bench bfperf

clean:
	$(GO) clean -testcache
	rm -f *.prof
