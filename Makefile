GO ?= go

.PHONY: build test test-short lint vet-lint fmt clusterbench faultfig

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The repo's determinism/hot-path contract checker (internal/analysis);
# see the "Determinism contract" section of ARCHITECTURE.md. -stats also
# inventories every //finemoe: directive and fails on stale suppressions.
lint:
	$(GO) run ./cmd/finemoe-lint -stats ./...

# Same analyzers driven through cmd/go's vet cache (incremental re-runs).
vet-lint:
	$(GO) build -o $(CURDIR)/bin/finemoe-lint ./cmd/finemoe-lint
	$(GO) vet -vettool=$(CURDIR)/bin/finemoe-lint ./...

fmt:
	gofmt -w .

# Regenerate the committed cluster-loop baseline: a 32-instance
# 1M-request bursty workload served from a materialized trace and from a
# generator stream, byte-parity checked, with wall time and memory
# columns (peak heap, GC cycles, allocs/request) — plus the 10M-request
# streaming-only horizon run. About 20 minutes on a 2-vCPU host, most of
# it the horizon.
clusterbench:
	$(GO) run ./cmd/finemoe-bench -clusterbench BENCH_cluster.json -clusterbench-horizon 10000000

# The fault gauntlet at small scale: crash/brownout/stall scenarios with
# resilience off vs on (see internal/experiments/faults.go).
faultfig:
	$(GO) run ./cmd/finemoe-bench -exp faultfig -scale small
