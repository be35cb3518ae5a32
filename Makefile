# KubeFence reproduction — build & CI entry points.
#
#   make ci              # the full gate: gofmt, go vet, build, tests with -race, bench-check
#   make bench-check     # vet and race-test bench/, its own module, against this one
#   make test            # fast test run (no race detector)
#   make plane-race      # the plane's generation invariant, -race -count=20
#   make forward-race    # the upstream frame's lifetime, -race -count=20
#   make mode-race       # the rollout modes' accounting and promotion gate, -race -count=20
#   make cache-race      # the decision cache's lock-free hit, -race -count=20
#   make telemetry-race  # the hub's per-processor sampling, stripes and rings, -race -count=20
#   make bench           # in-package micro-benchmarks (multi-workload enforcement, body tag vs SHA-256, JSON and YAML decode, YAML encode, YAML line lexing, raw scan/match/judge, decoded validate, proxy hit/cold/deny path serial and on every core, plane reapply, registry decision-cache probe serial and on every core, telemetry record-ring append and trace-sampling probe on every core)
#   make fuzz-smoke      # 10s per native fuzz target
#   make fuzz-nightly    # 2m per native fuzz target
#   make coverage-gate   # coverage profile; fails below COVERAGE_BASELINE
#   make staticcheck     # pinned staticcheck ./... via go run
#   make loc             # non-test Go lines outside bench/, the size figure simplicity changes report
#
# Performance numbers come from one place: bash bench/run.sh (see
# bench/README.md and BENCHMARK.json).

GO ?= go

# Tier-1 total statement coverage at the time the gate was last raised
# (87.8% when the validator tree left compile.Program) minus a small
# buffer for refactoring churn; raise it as coverage grows, never lower
# it to make a PR pass.
COVERAGE_BASELINE ?= 87.0

.PHONY: all ci fmt-check vet build test race bench-check plane-race forward-race mode-race cache-race telemetry-race bench \
	fuzz-smoke fuzz-nightly coverage-gate staticcheck loc

all: ci

ci: fmt-check vet build race bench-check

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

# bench/ is its own module, built against this one through a replace
# directive, so ./... above never compiles it. Vet and test it, unedited,
# so a product API that drifts from the benchmark fails in the change
# that drifts rather than in the next perf change. CI runs it once per
# Go version, as part of ci.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...

# The chaos and interleaving tests assert "no stale-generation verdict,
# no silent allow" across swap, kill, restart and shard moves; one pass
# proves little about a race, twenty under the detector is the gate
# (about 10 s on 2 cores).
plane-race:
	$(GO) test -race -count=20 ./internal/plane

# The proxy recycles each upstream request under the RoundTripper
# contract; the TestForward tests drive transports that use every
# freedom it gives, and a frame recycled too early is a race the
# detector reports. Twenty passes, like plane-race.
forward-race:
	$(GO) test -race -count=20 -run TestForward ./internal/proxy

# Enforce and shadow share one decision function, which also keeps the
# shadow counters and window that the promotion gate reads; the Mode and
# Shadow property tests race swaps, promotions and traffic against them.
# Twenty passes, like plane-race (about 16 s on 2 cores).
mode-race:
	$(GO) test -race -count=20 -run 'Mode|Shadow' ./internal/registry

# A decision-cache hit reads its shard under a seqlock, without the
# mutex that puts, evictions and growth take; the Cache, LRU, Handoff and
# Fresh tests race hits against them and hold every hit to its own key's
# decision. Twenty passes, like plane-race.
cache-race:
	$(GO) test -race -count=20 -run 'Cache|LRU|Handoff|Fresh' ./internal/registry

# The hub samples traces per processor stripe and keeps its counters in
# stripes and its records in lock-free rings; the sampling, concurrent
# record / scrape and ring tests race writers against each other and
# against readers. Twenty passes, like plane-race.
telemetry-race:
	$(GO) test -race -count=20 ./internal/telemetry

bench:
	$(GO) test -run NONE -bench 'MultiWorkload|RegistryResolve|BodyTag' -benchmem .
	$(GO) test -run NONE -bench 'ParseJSON|ParseManifest|MarshalYAML' -benchmem ./internal/object
	$(GO) test -run NONE -bench 'LexLine' -benchmem ./internal/yaml
	$(GO) test -run NONE -bench 'RawScan|RawMatch|RawJudge|Validate' -benchmem ./internal/compile
	$(GO) test -run NONE -bench 'ServeReapply|ServeUnique|ServeDeny' -benchmem ./internal/proxy
	$(GO) test -run NONE -bench 'PlaneServe' -benchmem ./internal/plane
	$(GO) test -run NONE -bench 'DecisionCache' -benchmem ./internal/registry
	$(GO) test -run NONE -bench 'BoundedLog|HubSample' -benchmem ./internal/telemetry

# Every native fuzz target, as package:target — the one list both the
# PR smoke and the nightly run iterate.
FUZZ_TARGETS := \
	internal/yaml:FuzzDecode \
	internal/yaml:FuzzLineGrammar \
	internal/yaml:FuzzPlainScalar \
	internal/validator:FuzzValidate \
	internal/object:FuzzDecodeJSONEquivalence \
	internal/compile:FuzzCompiledEquivalence \
	internal/compile:FuzzRawEquivalence \
	internal/compile:FuzzRawYAMLEquivalence \
	internal/synth:FuzzSynthSelfConsistency \
	internal/proxy:FuzzScanMemoEquivalence \
	internal/proxy:FuzzRawPathMatchesClassic

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

# The program's size as the ROADMAP scoreboard counts it: tracked Go
# files, tests and the bench/ module left out.
loc:
	@git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l
