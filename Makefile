GO ?= go

.PHONY: build test race bench-module vet fmt-check lint lint-stats fuzz-smoke bench-smoke bench-compare bench-record chaos-smoke run-regression-seeds cover profile check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness (benchmark/, see BENCHMARK.json) is its own
# module, so the root `go test ./...` never builds it. Vet and test it
# here so a change to an API it calls (pipeline.RunBatch,
# BatchScratch.Lanes, core.SimulatePoint, ...) fails CI, not the next
# benchmark run.
bench-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing every file gofmt would rewrite, the
# benchmark module included.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# Static analysis: the repo's invariant-enforcing rule suite
# (cmd/reprolint -list names the rules), including the interprocedural
# reachability rules and the serving-path concurrency rules. Exits
# nonzero on any finding, so a determinism or telemetry-inertness
# violation fails the build instead of waiting for a regression test to
# sample it. -stats prints per-rule wall time to stderr.
lint:
	$(GO) run ./cmd/reprolint -stats ./...

# Per-rule wall time and finding counts as JSON on stdout, for the CI
# timing artifact and local profiling of the rule suite.
lint-stats:
	$(GO) run ./cmd/reprolint -stats-json ./...

# A short fuzz pass over the external input surfaces: the shared CLI
# flag parser, the run-manifest validator, the linter's suppression
# directive parser, the /sweep grid parser (where client-controlled
# floats meet index arithmetic), and the point resolver and cache key
# every /sweep point passes through. 10s per target keeps it CI-sized;
# drop -fuzztime for a real hunt.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSimFlags -fuzztime 10s ./internal/cliflags
	$(GO) test -run '^$$' -fuzz FuzzManifestCheck -fuzztime 10s ./cmd/manifestcheck
	$(GO) test -run '^$$' -fuzz FuzzAllowDirective -fuzztime 10s ./internal/analysis
	$(GO) test -run '^$$' -fuzz FuzzSweepRequest -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzCacheKey -fuzztime 10s ./internal/core

# A fast pass over the benchmark harness: one iteration each, so every
# experiment driver executes end to end without the full -bench cost.
# The run emits a manifest (environment, wall time, telemetry) next to
# the numbers, so recorded perf-trajectory runs are self-describing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . -args -manifest bench-smoke-manifest.json
	$(GO) run ./cmd/manifestcheck bench-smoke-manifest.json

# Perf-regression gate: rerun the root suite and diff it against the
# recorded baseline. Two iterations per benchmark (vs bench-smoke's one)
# smooth the worst single-iteration jitter on shared runners while
# keeping the gate CI-sized; the threshold stays generous for the same
# reason. CI fails on a regression beyond BENCH_THRESHOLD — tighten it
# for a real measurement run, and re-record the baseline after any
# intentional perf change (see EXPERIMENTS.md for the capture workflow).
# -cpu 1 pins GOMAXPROCS to the baseline's: lane state is borrowed from
# internal/core's idle list, which grows one entry per concurrent
# borrower, so allocs/op only compare at equal core counts.
BENCH_THRESHOLD ?= 50
BENCH_TIME ?= 2x

bench-compare:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCH_TIME) -cpu 1 . > /tmp/bench_current.txt
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_THRESHOLD) BENCH_baseline.json /tmp/bench_current.txt

# Re-record the perf baseline from a fresh run at the same -benchtime
# and -cpu the gate uses. Run this after an intentional perf change, on a quiet
# machine, and commit the resulting BENCH_baseline.json.
bench-record:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCH_TIME) -cpu 1 . > /tmp/bench_record.txt
	$(GO) run ./cmd/benchdiff -record BENCH_baseline.json /tmp/bench_record.txt

# Chaos smoke: two bounded runs of the seeded fault-injection harness
# (internal/chaos) against the real sweepd binary — one pinned seed so
# every CI run replays a known mix, one rotating seed (default: today's
# date) so the fleet keeps exploring new action sequences. A failure
# prints the seed and the exact replay command; daemon logs and action
# traces land in CHAOS_LOGDIR for CI to upload. Override CHAOS_SEED to
# replay a specific failure.
CHAOS_ACTIONS ?= 40
CHAOS_SEED ?= $(shell date +%Y%m%d)
CHAOS_LOGDIR ?= /tmp/chaos-logs

chaos-smoke:
	$(GO) test ./internal/chaos -run 'TestChaos$$' -chaos.actions=$(CHAOS_ACTIONS) -chaos.seed=42 -chaos.logdir=$(CHAOS_LOGDIR)
	$(GO) test ./internal/chaos -run 'TestChaos$$' -chaos.actions=$(CHAOS_ACTIONS) -chaos.seed=$(CHAOS_SEED) -chaos.logdir=$(CHAOS_LOGDIR)

# Replay every seed that ever exposed a serving-path bug
# (internal/chaos/regression_seeds.json). Deterministic per seed: a pass
# means the exact action sequences that once found bugs still pass.
run-regression-seeds:
	$(GO) test ./internal/chaos -run TestRegressionSeeds -chaos.logdir=$(CHAOS_LOGDIR) -v

# Coverage with a ratchet floor: the gate trips when total statement
# coverage falls below COVER_MIN (set just under the current baseline;
# raise it as coverage grows, never lower it). CI runs this as a soft
# signal; treat a trip as "add tests with your change".
COVER_MIN ?= 80.0

cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); \
		if ($$3 + 0 < $(COVER_MIN)) { printf "coverage %.1f%% is below the %.1f%% floor\n", $$3, $(COVER_MIN); exit 1 } \
		else { printf "coverage %.1f%% (floor %.1f%%)\n", $$3, $(COVER_MIN) } }'

# CPU + heap profiles (and a manifest) for the depth sweep; inspect with
#   $(GO) tool pprof -top cpu.pprof
profile:
	$(GO) run ./cmd/experiments -n 20000 \
		-cpuprofile cpu.pprof -memprofile mem.pprof -manifest profile-manifest.json figure5 > /dev/null
	@echo "wrote cpu.pprof, mem.pprof, profile-manifest.json"
	@echo "inspect with: $(GO) tool pprof -top cpu.pprof"

# The documented pre-push command.
check: build vet fmt-check test race lint bench-module
