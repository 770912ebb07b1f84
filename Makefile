# Development targets. `make check` is the gate CI (and PRs) must pass:
# formatting, vet and the full test suite under the race detector.

GO ?= go

.PHONY: all build check fmt vet test race bench-all loadbench cover cover-update golden

all: build

build:
	$(GO) build ./...

check: fmt vet race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Time is measured by the service benchmark (servicebench/, see
# BENCHMARK.json) and allocations by the ceilings in
# scripts/allocs_floor.txt, which go test enforces. bench-all runs every
# Go micro-benchmark in the repo for local profiling.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# loadbench writes BENCH_LOAD.json (git-ignored): service latency
# percentiles and throughput per traffic mix from the open-loop load
# generator (compile mixes plus the chip-fleet mix with its per-chip
# placement/migration summary), run against an in-process server, with
# a runtime/metrics GC and heap summary. fppc-load exits non-zero when
# any request fails, so CI runs it as a smoke test and uploads the file.
# Override LOADBENCH_FLAGS for longer runs or a live -addr.
LOADBENCH_FLAGS ?= -n 200 -rate 200
loadbench:
	$(GO) run ./cmd/fppc-load $(LOADBENCH_FLAGS) -o BENCH_LOAD.json

# cover enforces the coverage ratchet (scripts/coverage_floor.txt);
# cover-update raises the floor to the current total.
cover:
	sh scripts/coverage.sh

cover-update:
	sh scripts/coverage.sh -update

# golden regenerates the golden corpora — the oracle's pristine traces,
# every Table 1 compile on every target, the degraded-chip (fault-aware)
# compiles and the fleet scenario timelines; CI fails if the result
# differs from what is checked in.
golden:
	$(GO) test ./internal/oracle -run TestGoldenTraces -update
	$(GO) test ./internal/oracle -run TestByteIdentityAcrossCompilePaths -update
	$(GO) test ./internal/faults -run TestGoldenDegraded -update
	$(GO) test ./internal/fleet -run TestGoldenScenarios -update
