# Developer entry points. CI runs the `ci` target's steps (see
# .github/workflows/ci.yml); keep the two in sync.

GO ?= go

.PHONY: build test race vet lint ci bench bench-alloc bench-parallel bench-serve chaos chaos-soak fuzz docs results

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The pre-push gate: go vet, then the repo's own invariant analyzers
# (internal/lint) over every tree in ONE invocation, test files included,
# so interprocedural facts (detflow summaries, metriclabel registrations)
# span the whole program. The run also emits the SARIF log CI uploads.
# staticcheck is optional equipment (the build container is offline) but
# never advisory: its presence/absence is logged, and when installed its
# findings fail the target. hanlint must run inside the module: it
# resolves the patterns with `go list` from the cwd.
lint: vet
	@mkdir -p bin
	$(GO) build -o bin/hanlint ./cmd/hanlint
	./bin/hanlint -sarif bin/hanlint.sarif ./internal/... ./cmd/... ./examples/... .
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck: present at $$(command -v staticcheck), enforcing"; \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI installs and enforces it)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

ci: build lint race
	$(GO) test -race -count=1 -run 'Differential|Parity|Deterministic|Golden|Rearms|IMB|StepRank|Routine|Unlinked|Storage|Goroutines|Budget|Recycled|Reset|SocketComm|PairRecords|ColdEndpoint|SignalFirstCallback|PerChunk|CallbackForms' ./internal/sim/ ./internal/flow/ ./internal/cluster/ ./internal/mpi/ ./internal/coll/ ./internal/han/ ./internal/bench/ ./internal/autotune/ .
	$(GO) test -race -count=1 -run 'ScaleSmoke' .
	HAN_ARENA_DEBUG=1 $(GO) test -count=1 -run 'Golden|Churn|Crash|Fault|Chaos|Rearms|Kill|Tree|Allocs|IMB|StepRank|Routine|Unlinked|Storage|Goroutines|Budget|Recycled|Reset|SocketComm|PairRecords|ColdEndpoint|SignalFirstCallback|PerChunk|CallbackForms' ./internal/sim/ ./internal/flow/ ./internal/cluster/ ./internal/mpi/ ./internal/coll/ ./internal/han/ ./internal/bench/ ./internal/autotune/
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/sim/ ./internal/mpi/ ./internal/coll/ ./internal/flow/ ./internal/autotune/ ./internal/han/

# Fault matrix: every builtin plan across three seeds (what the CI
# fault-matrix job runs, one cell per runner), plus the crash matrix over
# the crash plans.
chaos:
	@for seed in 1 2 3; do for plan in drops flaps stragglers; do \
		echo "== seed $$seed plan $$plan"; \
		HAN_FAULT_SEED=$$seed HAN_FAULT_PLAN=$$plan \
		$(GO) test -count=1 -run 'FaultMatrix|Chaos' ./internal/han/ ./internal/coll/ || exit 1; \
	done; done
	@for seed in 1 2 3; do for plan in crash-rank crash-node crash-coll; do \
		echo "== seed $$seed crash plan $$plan"; \
		HAN_FAULT_SEED=$$seed HAN_CRASH_PLAN=$$plan \
		$(GO) test -count=1 -run 'CrashMatrix' ./internal/han/ || exit 1; \
	done; done

# Chaos soak (the CI chaos-soak job): the fault and crash matrices under
# the race detector across five seeds — the long-haul robustness gate.
chaos-soak:
	@for seed in 1 2 3 4 5; do for plan in drops flaps stragglers combined; do \
		echo "== soak seed $$seed plan $$plan"; \
		HAN_FAULT_SEED=$$seed HAN_FAULT_PLAN=$$plan \
		$(GO) test -race -count=1 -run 'FaultMatrix|Chaos' ./internal/han/ || exit 1; \
	done; done
	@for seed in 1 2 3 4 5; do for plan in crash-rank crash-node crash-coll; do \
		echo "== soak seed $$seed crash plan $$plan"; \
		HAN_FAULT_SEED=$$seed HAN_CRASH_PLAN=$$plan \
		$(GO) test -race -count=1 -run 'CrashMatrix|Crash|Shrink|Abort' ./internal/han/ ./internal/mpi/ || exit 1; \
	done; done

# Native fuzzing smoke: a few seconds per fuzz target (fault plans, table
# files, wire requests), enough to catch validator/occurrence/loader/parser
# regressions without a dedicated fleet. The table seed is a whole saved
# sweep; minimizing each new input from it would otherwise use up the
# smoke's time.
fuzz:
	$(GO) test -run xxx -fuzz FuzzPlanValidate -fuzztime 5s ./internal/fault/
	$(GO) test -run xxx -fuzz FuzzOccurrences -fuzztime 5s ./internal/fault/
	$(GO) test -run xxx -fuzz FuzzLoadTable -fuzztime 5s -fuzzminimizetime 1s ./internal/autotune/
	$(GO) test -run xxx -fuzz FuzzParseRequest -fuzztime 5s -fuzzminimizetime 1s ./internal/serve/

# Documentation gate (the CI `docs` job): observability goldens and the
# docs-coverage contract, a block collective's task rows from the CLI, the
# checked-in critical-path report, the small-scale paper figures
# EXPERIMENTS.md quotes, and the markdown link checker. Regenerate goldens
# with `go test ./internal/bench -run Goldens -update`, and the figures with
# `make results`. The mid-scale figures (about 105 s on 2 vCPUs) are diffed
# by CI's push-only `results-mid` job.
docs:
	$(GO) test -count=1 -run 'ObserveGoldens|CritPathOverlap|ObservabilityDocCoverage' ./internal/bench/
	@mkdir -p bin
	$(GO) run ./cmd/hantrace stats   -op allgather -size 65536 -machine mini -nodes 2 -ppn 2 -seed 1 > /dev/null
	$(GO) run ./cmd/hantrace metrics -op allgather -size 65536 -machine mini -nodes 2 -ppn 2 -seed 1 > /dev/null
	$(GO) run ./cmd/hantrace critpath -op bcast -size 4194304 -machine mini -nodes 4 -ppn 4 -fs 524288 -seed 1 > bin/fig2.txt
	tail -n +2 results/critpath-fig2.txt | diff - bin/fig2.txt
	$(GO) run ./cmd/hanexp -all -scale small | diff - results/hanexp-small.txt
	$(GO) test -count=1 ./internal/docs/

# The paper figures at the two reduced scales, as EXPERIMENTS.md quotes them.
results:
	$(GO) run ./cmd/hanexp -all -scale small > results/hanexp-small.txt
	$(GO) run ./cmd/hanexp -all -scale mid > results/hanexp-mid.txt

# Allocator benchmarks, micro to macro: the flow-level rebalance
# micro-benchmarks (incremental vs reference), the paper-scale 4096-rank
# wall-clock point, and the 98304-rank phantom scale tier with its memory
# accounting. Compare against
# BENCH_allocator.json; regenerate that baseline from this output.
bench-alloc:
	$(GO) test -run xxx -bench Rebalance -benchmem ./internal/flow/
	$(GO) test -run xxx -bench 'Fig10Scale4096|Scale98k' -benchtime 1x -benchmem .

# Parallel-engine benchmark: the partitioned 4096-rank broadcast on the
# windowed engine (workers 1/2/8) vs the shared-engine serial oracle.
# sim-us/op must be identical in every cell; wall-clock is the variable.
# Compare against BENCH_parallel_sim.json; regenerate that baseline from
# this output on a multi-core machine.
bench-parallel:
	$(GO) test -run xxx -bench 'ParallelSim4096' -benchtime 3x -benchmem .

# Tuning-decision service benchmark (docs/SERVING.md): the zero-alloc
# decision microbenchmarks, then the closed-loop loopback QPS/latency
# harness. The numbers of record are `make bench`'s serve_wire and
# serve_local_churn rows.
bench-serve:
	$(GO) test -run xxx -bench 'Decide|ClientLoopback|ClientWire' -benchmem ./internal/autotune/ ./internal/serve/
	$(GO) run ./cmd/hanbench -serve -clients 8 -duration 2s -machine mini

# The repository's one performance yardstick (benchmark/BENCHMARK.md):
# every workload three times, each run in its own child process, medians
# and the spread table in benchmark/out/results.json. Compare two result
# files with `go run -C benchmark . -compare A.json B.json`. The four
# bench-* targets above predate it and stay for now.
bench:
	$(GO) run -C benchmark . -runs 3
