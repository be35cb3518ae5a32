# KubeFence reproduction — build & CI entry points.
#
#   make ci              # the full gate: gofmt, go vet, build, tests with -race
#   make test            # fast test run (no race detector)
#   make plane-race      # the plane's generation invariant, -race -count=20
#   make bench           # multi-workload enforcement, JSON decode, and proxy hit/cold-path benchmarks
#   make json            # machine-readable throughput results -> BENCH_throughput.json
#   make latency-json    # engine latency baseline -> BENCH_latency.json
#   make e2e-json        # end-to-end admission-path baseline -> BENCH_e2e.json
#   make fuzz-smoke      # 10s per native fuzz target
#   make robustness-json # adversarial robustness baseline -> BENCH_robustness.json
#   make learning-json   # policy-learning baseline -> BENCH_learning.json
#   make scenarios-json  # synthetic-corpus baseline -> BENCH_scenarios.json
#   make plane-json      # distributed-tier baseline -> BENCH_plane.json
#   make telemetry-json  # telemetry-overhead baseline -> BENCH_telemetry.json
#   make bench-gate      # fresh bench run vs committed BENCH_*.json baselines
#   make coverage-gate   # coverage profile; fails below COVERAGE_BASELINE
#   make staticcheck     # pinned staticcheck ./... via go run

GO ?= go

# bench-gate tuning. TOLERANCE is the allowed relative regression
# against the committed baselines; it is only meaningful on the machine
# the baselines were recorded on, so CI (foreign hardware) sets
# GATE_FLAGS=-advise-relative to report those comparisons without
# failing on them. MIN_SPEEDUP is machine-independent and always gates:
# the compiled engine must beat the interpreted engine by at least this
# factor on the cold path wherever the gate runs.
TOLERANCE   ?= 0.15
MIN_SPEEDUP ?= 2.0
# e2e floors are same-machine ratios, machine-independent like
# MIN_SPEEDUP: the streaming fast path must beat the decode-first
# baseline by this factor on the cold path and eliminate at least this
# fraction of per-request allocations. Status since the byte-level JSON
# decoder (PR 14) made the decode-first baseline ~6x cheaper: the JSON
# cold cell measures 1.3-1.6x on the recording box, so this leg fails
# more often than not. The floor is deliberately unchanged; ROADMAP item
# 2 says what has to give (the scan + match double walk, or the floor).
MIN_E2E_SPEEDUP     ?= 1.5
MIN_ALLOC_REDUCTION ?= 0.5
GATE_FLAGS  ?=
GATE_REQUESTS   ?= 2000
GATE_ITERATIONS ?= 5000
# Attack-variant cap per (attack, class) for the learning gate's fresh
# run; 0 replays the full 1555-scenario matrix (local default), CI sets
# 2 for the fast reduced matrix. The learning gate itself is
# machine-independent (request counts, not wall clock) and never needs
# -advise-relative.
GATE_MAX_PER_CLASS ?= 0
# Scenarios gate knobs: the synthetic corpus size for the fresh run (the
# committed baseline uses 100; CI smoke uses 25 — prefix stability keeps
# the shared cells comparable) and the machine-independent per-engine
# events/sec flatness floor across registered-workload counts.
GATE_SYNTH    ?= 100
MIN_FLATNESS  ?= 0.5
# Plane gate knobs: the replica counts for the fresh tier run (CI's PR
# path sets 1,2 for a fast smoke leg — the efficiency floor only gates
# when the 8-replica cell is present), the machine-independent
# scaling-efficiency floor for the weighted-placement zipf cell at 8
# replicas (tier ops/sec divided by N x the same run's single-replica
# ops/sec), and the post-rebalance cache-retention floor (fraction of
# migrated-workload probes the destination answers from the handed-off
# decision cache). Weighted-vs-hash zipf dominance gates implicitly as
# a mean over every measured fleet size of 2+ replicas.
GATE_REPLICAS        ?= 1,2,4,8
MIN_PLANE_EFFICIENCY ?= 0.7
MIN_CACHE_RETENTION  ?= 0.5
# Telemetry gate ceiling: recording a decision may cost at most this
# fraction of wall clock over the same run's telemetry-off cell. The
# on/off ratio comes from two cells measured back to back in one
# process, so like the other same-machine ratios it gates everywhere;
# so does the zero-allocs-added budget of the "on" cell.
MAX_TELEMETRY_OVERHEAD ?= 0.05

# Tier-1 total statement coverage at the time the gate was last raised
# (PR 6, 84.5%) minus a small buffer for refactoring churn; raise it as
# coverage grows, never lower it to make a PR pass.
COVERAGE_BASELINE ?= 84.0

.PHONY: all ci fmt-check vet build test race plane-race bench json latency-json \
	e2e-json fuzz-smoke robustness-json learning-json scenarios-json \
	plane-json telemetry-json bench-gate coverage-gate staticcheck

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
	$(GO) test -run NONE -bench 'ServeReapply|ServeUnique' -benchmem ./internal/proxy

json:
	$(GO) run ./cmd/kfbench -experiment throughput -counts 1,5,10 \
		-requests 2000 -concurrency 8 -cache 4096 -repeats 3 -json > BENCH_throughput.json
	@echo wrote BENCH_throughput.json

latency-json:
	$(GO) run ./cmd/kfbench -experiment latency -counts 1,5,10 \
		-iterations 5000 -cache 4096 -repeats 3 -json > BENCH_latency.json
	@echo wrote BENCH_latency.json

e2e-json:
	$(GO) run ./cmd/kfbench -experiment e2e -counts 1,5 \
		-requests 3000 -cache 4096 -repeats 3 -json > BENCH_e2e.json
	@echo wrote BENCH_e2e.json

fuzz-smoke:
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run '^$$' ./internal/yaml
	$(GO) test -fuzz=FuzzValidate -fuzztime=10s -run '^$$' ./internal/validator
	$(GO) test -fuzz=FuzzDecodeJSONEquivalence -fuzztime=10s -run '^$$' ./internal/object
	$(GO) test -fuzz=FuzzCompiledEquivalence -fuzztime=10s -run '^$$' ./internal/compile
	$(GO) test -fuzz=FuzzRawEquivalence -fuzztime=10s -run '^$$' ./internal/compile
	$(GO) test -fuzz=FuzzRawYAMLEquivalence -fuzztime=10s -run '^$$' ./internal/compile
	$(GO) test -fuzz=FuzzSynthSelfConsistency -fuzztime=10s -run '^$$' ./internal/synth
	$(GO) test -fuzz=FuzzScanMemoEquivalence -fuzztime=10s -run '^$$' ./internal/proxy

robustness-json:
	$(GO) run ./cmd/kfbench -experiment robustness -concurrency 8 \
		-cache 4096 -seed 1 -json > BENCH_robustness.json
	@echo wrote BENCH_robustness.json

learning-json:
	$(GO) run ./cmd/kfbench -experiment learning -concurrency 8 \
		-cache 4096 -seed 1 -json > BENCH_learning.json
	@echo wrote BENCH_learning.json

scenarios-json:
	$(GO) run ./cmd/kfbench -experiment scenarios -synth 100 -concurrency 8 \
		-cache 4096 -seed 1 -json > BENCH_scenarios.json
	@echo wrote BENCH_scenarios.json

plane-json:
	$(GO) run ./cmd/kfbench -experiment plane -replicas 1,2,4,8 -synth 32 \
		-seed 1 -cache 4096 -repeats 3 -json > BENCH_plane.json
	@echo wrote BENCH_plane.json

# Cache stays off so the overhead ratio is measured against genuine
# validation work, not cache-hit turnaround.
telemetry-json:
	$(GO) run ./cmd/kfbench -experiment telemetry -counts 1,5 \
		-requests 3000 -sample-every 128 -repeats 3 -json > BENCH_telemetry.json
	@echo wrote BENCH_telemetry.json

# bench-gate measures fresh throughput and latency numbers and compares
# them against the committed BENCH_*.json baselines; any regression
# beyond TOLERANCE (or a compiled cold-path speedup below MIN_SPEEDUP,
# or an allocs/op regression) fails the target — this is the CI
# benchmark regression gate. Fresh results land in a per-run temp dir
# so concurrent runs on one machine cannot clobber each other.
bench-gate:
	@set -e; tmpdir=$$(mktemp -d); trap 'rm -rf "$$tmpdir"' EXIT; \
	echo "fresh results in $$tmpdir"; \
	$(GO) run ./cmd/kfbench -experiment throughput -counts 1,5,10 \
		-requests $(GATE_REQUESTS) -concurrency 8 -cache 4096 -repeats 3 \
		-json > "$$tmpdir/throughput-fresh.json"; \
	$(GO) run ./cmd/benchgate -kind throughput -tolerance $(TOLERANCE) $(GATE_FLAGS) \
		-baseline BENCH_throughput.json -fresh "$$tmpdir/throughput-fresh.json"; \
	$(GO) run ./cmd/kfbench -experiment latency -counts 1,5,10 \
		-iterations $(GATE_ITERATIONS) -cache 4096 -repeats 3 \
		-json > "$$tmpdir/latency-fresh.json"; \
	$(GO) run ./cmd/benchgate -kind latency -tolerance $(TOLERANCE) $(GATE_FLAGS) \
		-min-speedup $(MIN_SPEEDUP) \
		-baseline BENCH_latency.json -fresh "$$tmpdir/latency-fresh.json"; \
	$(GO) run ./cmd/kfbench -experiment e2e -counts 1,5 \
		-requests $(GATE_ITERATIONS) -cache 4096 -repeats 3 \
		-json > "$$tmpdir/e2e-fresh.json"; \
	$(GO) run ./cmd/benchgate -kind e2e -tolerance $(TOLERANCE) $(GATE_FLAGS) \
		-min-e2e-speedup $(MIN_E2E_SPEEDUP) -min-alloc-reduction $(MIN_ALLOC_REDUCTION) \
		-baseline BENCH_e2e.json -fresh "$$tmpdir/e2e-fresh.json"; \
	$(GO) run ./cmd/kfbench -experiment learning -concurrency 8 -cache 4096 \
		-seed 1 -max-per-class $(GATE_MAX_PER_CLASS) \
		-json > "$$tmpdir/learning-fresh.json"; \
	$(GO) run ./cmd/benchgate -kind learning -tolerance $(TOLERANCE) \
		-baseline BENCH_learning.json -fresh "$$tmpdir/learning-fresh.json"; \
	$(GO) run ./cmd/kfbench -experiment scenarios -synth $(GATE_SYNTH) \
		-concurrency 8 -cache 4096 -seed 1 \
		-json > "$$tmpdir/scenarios-fresh.json"; \
	$(GO) run ./cmd/benchgate -kind scenarios -tolerance $(TOLERANCE) $(GATE_FLAGS) \
		-min-flatness $(MIN_FLATNESS) \
		-baseline BENCH_scenarios.json -fresh "$$tmpdir/scenarios-fresh.json"; \
	$(GO) run ./cmd/kfbench -experiment plane -replicas $(GATE_REPLICAS) -synth 32 \
		-seed 1 -cache 4096 -repeats 3 -max-per-class $(GATE_MAX_PER_CLASS) \
		-json > "$$tmpdir/plane-fresh.json"; \
	$(GO) run ./cmd/benchgate -kind plane -tolerance $(TOLERANCE) $(GATE_FLAGS) \
		-min-plane-efficiency $(MIN_PLANE_EFFICIENCY) \
		-min-cache-retention $(MIN_CACHE_RETENTION) \
		-baseline BENCH_plane.json -fresh "$$tmpdir/plane-fresh.json"; \
	$(GO) run ./cmd/kfbench -experiment telemetry -counts 1,5 \
		-requests $(GATE_ITERATIONS) -sample-every 128 -repeats 3 \
		-json > "$$tmpdir/telemetry-fresh.json"; \
	$(GO) run ./cmd/benchgate -kind telemetry -tolerance $(TOLERANCE) $(GATE_FLAGS) \
		-max-telemetry-overhead $(MAX_TELEMETRY_OVERHEAD) \
		-baseline BENCH_telemetry.json -fresh "$$tmpdir/telemetry-fresh.json"

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
