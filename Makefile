# Convenience targets for the coordcharge reproduction.

GO ?= go
BENCH_OUT ?= BENCH_latest.json
# The committed baseline the regression gate compares against; refresh with
# `make bench-json BENCH_OUT=BENCH_PR<N>.json` when a PR changes performance
# on purpose.
BENCH_BASELINE ?= BENCH_PR26.json
BENCH_TOLERANCE ?= 25
# Benchmarks cheaper than this (ns/op in the baseline) are reported but not
# gated: at one measured iteration their timing is scheduler noise.
BENCH_FLOOR ?= 10000000
# Absolute floor on the event kernel: every X/event benchmark must run at
# least this many times faster than its X/dense sibling. Unlike the relative
# tolerance, this cannot drift across baseline refreshes.
BENCH_MIN_SPEEDUP ?= 5

.PHONY: build lint test test-short test-race bench bench-json bench-compare profile cover fuzz reproduce examples clean

build:
	$(GO) build ./...

# Formatting + the repo's own domain-aware analyzers (cmd/coordvet), gated
# at zero findings.
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/coordvet ./...

test: lint
	$(GO) vet ./...
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Three one-iteration passes over every benchmark, folded to their medians
# so one noisy pass cannot set the baseline, and archived as machine-readable
# JSON with B/op and allocs/op beside ns/op.
# Override the destination per snapshot: make bench-json BENCH_OUT=BENCH_PR7.json
bench-json:
	$(GO) test -bench=. -benchtime=1x -count=3 -benchmem -run='^$$' ./... | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# Regression gate: the median of three benchmark passes diffed against the
# committed baseline. Fails if any benchmark is more than BENCH_TOLERANCE
# percent slower.
bench-compare:
	$(GO) test -bench=. -benchtime=1x -count=3 -benchmem -run='^$$' ./... | \
		$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) \
			-tolerance $(BENCH_TOLERANCE) -floor $(BENCH_FLOOR) \
			-min-speedup $(BENCH_MIN_SPEEDUP)

# CPU + heap profiles of the heaviest benchmark, for pprof inspection:
#   go tool pprof cpu.pprof
profile:
	$(GO) test -bench=BenchmarkTable3MaxCapping -benchtime=1x -run='^$$' \
		-cpuprofile cpu.pprof -memprofile mem.pprof .

cover:
	$(GO) test -cover ./...

fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/config/
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=30s ./internal/faults/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/units/
	$(GO) test -fuzz=FuzzCheckpointDecode -fuzztime=30s ./internal/ckpt/
	$(GO) test -fuzz=FuzzAdvisorRequest -fuzztime=30s ./internal/svc/
	$(GO) test -fuzz=FuzzRunRequest -fuzztime=30s ./internal/svc/
	$(GO) test -fuzz=FuzzTraceFrame -fuzztime=30s ./internal/svc/
	$(GO) test -fuzz=FuzzGridSeries -fuzztime=30s ./internal/grid/

reproduce:
	$(GO) run ./cmd/reproduce -out artifacts

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/priorityrow
	$(GO) run ./examples/reliability
	$(GO) run ./examples/datacenter
	$(GO) run ./examples/psufailure
	$(GO) run ./examples/distributed

clean:
	rm -rf artifacts
