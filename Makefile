GO ?= go

.PHONY: check build vet test race diff degrade obs serve-test fleet reqtrace api api-update bench bench-exec bench-smoke bench-diff bench-miss loc fuzz fuzz-exec fuzz-degrade fuzz-fleet fuzz-beam exec-pool

## check: the tier-1 gate — everything a PR must keep green.
check: vet build race diff degrade obs serve-test fleet reqtrace exec-pool api bench-smoke bench-exec

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) vet ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## diff: the planner-equivalence suite — differential tests proving the
## parallel planning engine produces byte-identical plans to the sequential
## planner, the 20-run determinism golden, the recorded plan golden, the
## per-plan executor memo (one simulation per distinct schedule), the
## hoisted batch-latency search against a plain scan, and the cost-cache
## unit tests.
diff:
	$(GO) test -race -count=1 -run 'TestDifferential|TestPlanDeterminismGolden|TestPlanGolden|TestExecMemo|TestPlanSimulatesEachScheduleOnce|TestPlanSpanExecAttrs|TestAlignmentBatchMatchesScan|TestCostCache|TestStreamCostCacheReuse|TestStreamParallelismInvariant|TestExhaustiveParallelMatchesSequential' \
		./internal/core/ ./internal/stream/ ./internal/baseline/ ./internal/soc/

## degrade: the degradation-runtime suite under the race detector — event
## injection, partial cache invalidation, replan/retry/backoff and
## cancellation paths across soc, stream and the facade.
degrade:
	$(GO) test -race -count=1 -run 'Degrad' ./internal/soc/ ./internal/stream/ .

## obs: the observability suite under the race detector — metrics registry
## concurrency, run-report/Result equivalence, span-sourced stream Chrome
## traces (discarded clipping, interrupt instants, the CLI golden) and the
## scheduler/executor accounting regression tests.
obs:
	$(GO) test -race -count=1 -run Obs ./internal/obs/ ./internal/pipeline/ ./internal/stream/ ./internal/trace/ ./cmd/h2pipe/ ./cmd/benchjson/ .

## serve-test: the live-observability suite under the race detector — the
## HTTP server e2e (healthz/readyz/metrics/windows/SSE/pprof/spans), the
## span tracer and ring, the window feed, and the span→Chrome-trace
## goldens and overwritten-ring checks.
serve-test:
	$(GO) test -race -count=1 -run 'TestServeObs|TestSpan|TestAttr|TestWriteOTLP|TestFeed' \
		./internal/obs/ ./internal/stream/ ./internal/trace/ .

## fleet: the sharded-serving suite under the race detector — the 1-device
## Device-extraction differential, router policies and the consistent-hash
## ring, graceful halt + failover/handoff accounting, the N-device concurrent
## obs-stress run (shared registry, span ring, feed fan-out, blocking
## subscriber), per-device labeled metrics, and the /fleet endpoint across
## the library facade and the CLI.
fleet:
	$(GO) test -race -count=1 -run 'TestFleet|TestDifferentialFleet|TestPolicy|TestAffinity|TestLeastSojourn|TestDeviceSeed|TestDeviceRun|TestStreamHalt|TestStreamHandoff|TestPlanCacheHasCachedPlan|TestObsWithLabels|TestObsPrometheusLabeled|TestRunFleet' \
		./internal/fleet/ ./internal/stream/ ./internal/obs/ ./internal/core/ ./cmd/h2pipe/ .

## reqtrace: the request-tracing suite under the race detector — trace-ID
## scheme and flight-recorder store, the sojourn-decomposition sum invariant
## across interrupt/requeue/backoff/halt/handoff paths, trace survival
## through fleet failover stitching, SLO error-budget burn rates against the
## labeled deadline-miss counters, histogram exemplars, and the /requests
## and /slo endpoints across the internal server and the library facade.
reqtrace:
	$(GO) test -race -count=1 -run 'RequestTrace|SLOBudget|Decomp' \
		./internal/stream/ ./internal/fleet/ ./internal/obs/ .

## api: the public-API gate — regenerate the facade's exported surface and
## diff it against the committed api.txt baseline. Fails on any unreviewed
## public-API change; when the change is intentional, run `make api-update`
## and commit the new baseline alongside the code.
api:
	@$(GO) run ./cmd/apidump . > api.txt.tmp
	@diff -u api.txt api.txt.tmp || \
		(rm -f api.txt.tmp; echo "public API changed: review the diff above, then run 'make api-update' to accept"; exit 1)
	@rm -f api.txt.tmp

## api-update: accept an intentional public-API change by regenerating the
## committed baseline.
api-update:
	$(GO) run ./cmd/apidump . > api.txt

## bench: five interleaved repetitions with allocation stats, archived as
## machine-readable JSON (BENCH_<date>.json) for regression tracking.
bench:
	$(GO) test -bench . -benchmem -count=5 -run xxx . | $(GO) run ./cmd/benchjson | tee BENCH_$(shell date +%Y-%m-%d).json

## exec-pool: the pooled-executor correctness gate under the race detector —
## the pooled-vs-unpooled differential over randomized schedules, the
## concurrent Execute stress sharing the scratch pool, the tight-memory
## admission sweep, and the steady-state allocation budget.
exec-pool:
	$(GO) test -race -count=1 -run 'TestDifferentialExecScratch|TestExecScratch|TestExecutorAllocBudget' ./internal/pipeline/

## bench-exec: one quick -benchmem pass of the executor benchmarks (pooled
## steady state, contention-free fast path, planner-shaped small schedules,
## pool-sharing parallel execution, and the unpooled reference twin); part
## of `make check` so the hot path's allocation profile stays visible.
bench-exec:
	$(GO) test -run xxx -bench 'BenchmarkExecute(SteadyState|NoContention|Small|Parallel)|BenchmarkReferenceExecute' -benchmem -benchtime 100x -count=1 ./internal/pipeline/

## bench-smoke: one quick pass of the stream serving benchmarks (steady
## state and churn, plan cache on and off) — a fast check that the online
## serving paths still run end to end; part of `make check`.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkStream(SteadyState|Churn)' -benchtime 1x -count=1 .

## bench-diff: guard against performance regressions — compare the two most
## recent BENCH_*.json archives (override with OLD=/NEW=) and fail on a
## >10% ns/op, bytes/op or allocs/op regression.
bench-diff:
	$(eval OLD ?= $(shell ls BENCH_*.json | sort | tail -2 | head -1))
	$(eval NEW ?= $(shell ls BENCH_*.json | sort | tail -1))
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

## bench-miss: the replan miss path — a single-processor degradation
## followed by a replan that resumes each partition DP below the affected
## stage.
bench-miss:
	$(GO) test -run xxx -bench 'BenchmarkReplanMissIncremental' -benchmem -count=5 .

## loc: the size figures a simplicity change reports — non-test Go lines of
## the root module (perfbench/ is its own module and is left out), test
## lines, and api.txt lines. Counts tracked and untracked, non-ignored files.
loc:
	@echo "non-test Go LOC: $$(git ls-files -co --exclude-standard -- '*.go' ':!perfbench' ':!*_test.go' | xargs cat | wc -l)"
	@echo "test Go LOC:     $$(git ls-files -co --exclude-standard -- '*_test.go' ':!perfbench' | xargs cat | wc -l)"
	@echo "api.txt lines:   $$(wc -l < api.txt)"

## fuzz: a short run of the parallel-vs-sequential differential fuzz target.
fuzz:
	$(GO) test -run xxx -fuzz FuzzParallelPlannerDifferential -fuzztime 30s ./internal/core/

## fuzz-exec: short fuzz of the pooled-executor differential — any fuzzed
## (seed, request count, option bits) must produce a Result byte-identical
## to the unpooled reference executor, including MemTrace, PeakMemoryBytes
## and AdmissionStalls.
fuzz-exec:
	$(GO) test -run xxx -fuzz FuzzExecScratch -fuzztime 30s ./internal/pipeline/

## fuzz-degrade: short fuzz of the degradation-aware stream runtime, seeded
## with a processor going offline mid-window.
fuzz-degrade:
	$(GO) test -run xxx -fuzz FuzzStreamDegradation -fuzztime 30s ./internal/stream/

## fuzz-fleet: short fuzz of the router's sharding invariants — every request
## digest routes to exactly one live device, and removing a device moves only
## the keys it owned.
fuzz-fleet:
	$(GO) test -run xxx -fuzz FuzzRouterShard -fuzztime 30s ./internal/fleet/

## fuzz-beam: short fuzz of the beam sweep's regret bound — every fuzzed
## (window, width, ε) must price within (1+ε)× of the exact sweep, and a
## width covering all candidates must be byte-identical to it.
fuzz-beam:
	$(GO) test -run xxx -fuzz FuzzBeamRegret -fuzztime 30s ./internal/core/
