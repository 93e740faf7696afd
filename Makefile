# Development targets for the ucp reproduction.

GO ?= go

# The hot-substrate microbenches tracked across PRs (see
# BENCH_pr10.json for the committed baseline and DESIGN.md for
# interpretation).  The front-end benches live in ./internal/primes
# (they need the unexported covering reference oracle) and get their
# own pattern.
SUBSTRATE_BENCH = BenchmarkZDDReductions$$|BenchmarkImplicitZDD$$|BenchmarkSubgradient$$|BenchmarkSCGCore$$|BenchmarkSCGPortfolio$$|BenchmarkSolveWide$$|BenchmarkReduceFixpoint$$|BenchmarkZDDGC$$|BenchmarkZDDChainNodes$$|BenchmarkSolveCached$$|BenchmarkBnBTransposition$$|BenchmarkDeltaResolve$$|BenchmarkShardedSolve$$
FRONTEND_BENCH = BenchmarkPrimeGen$$|BenchmarkBuildCovering$$

.PHONY: build test check bench-diff fuzz bench bench-all serve-smoke shard-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: vet, the parallel-reduction differential
# tests under the race detector (fast fail on a determinism break in
# the sharded dominance passes), the full suite under -race (which also
# exercises the budget/cancellation paths, the restart portfolio and
# the pooled-scratch reuse with real concurrency), the benchmark module
# (its own go.mod, so the root ./... never compiles it against the
# library's exported names), and the bench-diff regression gate on the
# substrate benches.
check:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race -run 'TestReduceWorkers|TestParShard' ./internal/matrix
	$(GO) test -race -run 'TestResolveMatchesCold' ./internal/scg
	$(GO) test -race ./...
	$(MAKE) serve-smoke
	$(MAKE) shard-smoke
	$(MAKE) bench-diff

# serve-smoke boots ucpd, drives it with ucpload (unary and streaming),
# asserts zero server-side failures and a clean SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# shard-smoke generates an instance >4x the memory budget with scpgen
# and solves it out-of-core through `ucpsolve -mem-budget` under a
# GOMEMLIMIT envelope, asserting components spilled and the tracked
# peak stayed under budget.
shard-smoke:
	sh scripts/shard_smoke.sh

# bench-diff reruns the substrate benches and fails on regression
# against the committed baseline in what is exact: >0.5% allocs/op
# growth, or any work counter (cost/op, corerows/op, nodes/op, ... —
# every metric but ns/op, B/op and allocs/op) that differs from the
# baseline or between repetitions.  The alloc allowance absorbs the
# parallel portfolio's scheduler-dependent pool jitter, and the
# counters are exact because the solvers are bit-identical (see
# cmd/benchfmt).  A >75% ns/op growth is printed as an advisory
# verdict and does not fail: one repetition on a shared or slower host
# cannot tell a slowdown from load, so timing claims go through paired
# runs.  The runs pin -cpu 1, the setting the baseline was recorded
# at: benchmark names carry the GOMAXPROCS suffix, so on a multi-core
# host an unpinned run would read every bench as "not in baseline" and
# check none of them.
bench-diff:
	{ $(GO) test -run '^$$' -bench '$(SUBSTRATE_BENCH)' -benchtime 1x -count 5 -cpu 1 . ; \
	  $(GO) test -run '^$$' -bench '$(FRONTEND_BENCH)' -benchtime 1x -count 3 -cpu 1 ./internal/primes ; } \
	| $(GO) run ./cmd/benchfmt -against BENCH_pr10.json

# fuzz runs every fuzz target for 30 seconds each (the robustness
# acceptance bar: no panic reachable through the public API, and the
# signature prune exactly matches the exact subset test).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadProblem$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParsePLA$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzReadORLibProblem$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzORLibReader$$' -fuzztime $(FUZZTIME) ./internal/scpio
	$(GO) test -run '^$$' -fuzz '^FuzzSolveParsedProblem$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzMinimizeParsedPLA$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSignatureSubset$$' -fuzztime $(FUZZTIME) ./internal/matrix
	$(GO) test -run '^$$' -fuzz '^FuzzSplitEssentials$$' -fuzztime $(FUZZTIME) ./internal/matrix
	$(GO) test -run '^$$' -fuzz '^FuzzSplitParts$$' -fuzztime $(FUZZTIME) ./internal/matrix
	$(GO) test -run '^$$' -fuzz '^FuzzMinimizeSplitMatchesFull$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzReduceMatchesNaive$$' -fuzztime $(FUZZTIME) ./internal/matrix
	$(GO) test -run '^$$' -fuzz '^FuzzShardedMatchesDirect$$' -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run '^$$' -fuzz '^FuzzCanonFingerprint$$' -fuzztime $(FUZZTIME) ./internal/canon
	$(GO) test -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzPrimesDense$$' -fuzztime $(FUZZTIME) ./internal/primes
	$(GO) test -run '^$$' -fuzz '^FuzzZDDChain$$' -fuzztime $(FUZZTIME) ./internal/zdd
	$(GO) test -run '^$$' -fuzz '^FuzzZDDFamily$$' -fuzztime $(FUZZTIME) ./internal/zdd
	$(GO) test -run '^$$' -fuzz '^FuzzImplicitAgreesWithExplicit$$' -fuzztime $(FUZZTIME) ./internal/scg
	$(GO) test -run '^$$' -fuzz '^FuzzResolveMatchesKeep$$' -fuzztime $(FUZZTIME) ./internal/scg
	$(GO) test -run '^$$' -fuzz '^FuzzGreedyMatchesNaive$$' -fuzztime $(FUZZTIME) ./internal/lagrangian

# bench measures the hot substrates (5 repetitions each, plus the
# portfolio and the sharded reduction fixpoint under -cpu 1,2,4,8) and
# records the results in BENCH_pr10.json; commit the refreshed file
# when a change moves them.
bench:
	{ $(GO) test -run '^$$' -bench '$(SUBSTRATE_BENCH)' -benchtime 1x -count 5 -cpu 1 . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSCGPortfolio$$|BenchmarkReduceFixpoint$$' -benchtime 1x -count 3 -cpu 1,2,4,8 . ; \
	  $(GO) test -run '^$$' -bench '$(FRONTEND_BENCH)' -benchtime 1x -count 3 -cpu 1 ./internal/primes ; } \
	| $(GO) run ./cmd/benchfmt -o BENCH_pr10.json \
	  -note "PR10: out-of-core component-sharded solving. New in this baseline: ShardedSolve on a 60-component round-robin instance (the streaming partitioner's worst case) — direct is the unsharded scg.Solve, inram runs the sharded driver with every component resident (pure streaming/partitioning overhead, ~5% over direct), spill forces most components through the spill file (spilled/op says how many; expect ~45-50 of 60). All three are bit-identical by the driver's contract, checked per iteration. The sharded variants pay one frame encode/decode per row plus the union-find, so their allocs/op sit well above direct; that cost buys a tracked-byte peak under any budget (see make shard-smoke). All pre-existing substrates are unchanged and should match the PR9 mins within noise. Container timings are noisy (+/-10% between windows); allocs/op is near-exact (portfolio pool jitter only) and part of the regression gate."

# bench-all runs every benchmark once: the paper tables, the ablations
# and the substrates.
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
