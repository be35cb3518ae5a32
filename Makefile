# KubeFence reproduction — build & CI entry points.
#
#   make ci              # the full gate: gofmt, go vet, build, tests with -race
#   make test            # fast test run (no race detector)
#   make plane-race      # the plane's generation invariant, -race -count=20
#   make bench           # in-package micro-benchmarks (multi-workload enforcement, JSON decode, raw scan/match, proxy hit/cold path)
#   make fuzz-smoke      # 10s per native fuzz target
#   make fuzz-nightly    # 2m per native fuzz target
#   make coverage-gate   # coverage profile; fails below COVERAGE_BASELINE
#   make staticcheck     # pinned staticcheck ./... via go run
#
# Performance numbers come from one place: bash bench/run.sh (see
# bench/README.md and BENCHMARK.json).

GO ?= go

# Tier-1 total statement coverage at the time the gate was last raised
# (PR 6, 84.5%) minus a small buffer for refactoring churn; raise it as
# coverage grows, never lower it to make a PR pass.
COVERAGE_BASELINE ?= 84.0

.PHONY: all ci fmt-check vet build test race plane-race bench fuzz-smoke \
	fuzz-nightly coverage-gate staticcheck

all: ci

ci: fmt-check vet build race

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The chaos and interleaving tests assert "no stale-generation verdict,
# no silent allow" across swap, kill, restart and shard moves; one pass
# proves little about a race, twenty under the detector is the gate
# (about 20 s on 2 cores).
plane-race:
	$(GO) test -race -count=20 ./internal/plane

bench:
	$(GO) test -run NONE -bench 'MultiWorkload|RegistryResolve' -benchmem .
	$(GO) test -run NONE -bench ParseJSON -benchmem ./internal/object
	$(GO) test -run NONE -bench 'RawScan|RawMatch' -benchmem ./internal/compile
	$(GO) test -run NONE -bench 'ServeReapply|ServeUnique' -benchmem ./internal/proxy

# Every native fuzz target, as package:target — the one list both the
# PR smoke and the nightly run iterate.
FUZZ_TARGETS := \
	internal/yaml:FuzzDecode \
	internal/validator:FuzzValidate \
	internal/object:FuzzDecodeJSONEquivalence \
	internal/compile:FuzzCompiledEquivalence \
	internal/compile:FuzzRawEquivalence \
	internal/compile:FuzzRawYAMLEquivalence \
	internal/synth:FuzzSynthSelfConsistency \
	internal/proxy:FuzzScanMemoEquivalence

# $(call fuzz-all,DURATION) fuzzes each target in turn for DURATION.
define fuzz-all
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t#*:} ($(1))"; \
		$(GO) test -fuzz="^$${t#*:}$$" -fuzztime=$(1) -run '^$$' "./$${t%%:*}"; \
	done
endef

fuzz-smoke:
	$(call fuzz-all,10s)

fuzz-nightly:
	$(call fuzz-all,2m)

coverage-gate:
	$(GO) test ./... -coverprofile=coverage.out
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total statement coverage: $$total% (baseline $(COVERAGE_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { exit !(t+0 >= b+0) }' || \
		{ echo "coverage $$total% fell below the $(COVERAGE_BASELINE)% baseline"; exit 1; }

# go run pins the version and needs no PATH setup; a pre-installed
# (possibly older) staticcheck on PATH is deliberately ignored so local
# results match CI.
STATICCHECK_VERSION ?= 2024.1.1
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
