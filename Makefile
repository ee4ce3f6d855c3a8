# Developer entry points. CI runs the `ci` target's steps (see
# .github/workflows/ci.yml); keep the two in sync.

GO ?= go

.PHONY: build test race vet lint ci bench bench-alloc bench-parallel bench-serve chaos chaos-soak fuzz docs results deadapi fma

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
	$(GO) test -race -count=1 -run 'Differential|Certificate|Deterministic|Golden|Rearms|IMB|StepRank|Routine|Unlinked|Storage|Goroutines|NoGoroutine|Budget|Recycled|Reset|SocketComm|PairRecords|ColdEndpoint|SignalFirstCallback|PerChunk|CallbackForms' ./internal/sim/ ./internal/flow/ ./internal/cluster/ ./internal/mpi/ ./internal/coll/ ./internal/han/ ./internal/bench/ ./internal/autotune/ .
	$(GO) test -race -count=1 -run 'ScaleSmoke' .
	HAN_ARENA_DEBUG=1 $(GO) test -count=1 -run 'Golden|Certificate|Churn|Crash|Fault|Chaos|Rearms|Kill|Tree|Allocs|IMB|StepRank|Routine|Unlinked|Storage|Goroutines|NoGoroutine|Budget|Recycled|Reset|SocketComm|PairRecords|ColdEndpoint|SignalFirstCallback|PerChunk|CallbackForms' ./internal/sim/ ./internal/flow/ ./internal/cluster/ ./internal/mpi/ ./internal/coll/ ./internal/han/ ./internal/bench/ ./internal/autotune/
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
# files, wire requests, frame streams), enough to catch validator,
# occurrence, loader, parser and framing regressions without a dedicated
# fleet. The table seed is a whole saved sweep; minimizing each new input
# from it would otherwise use up the smoke's time.
fuzz:
	$(GO) test -run xxx -fuzz FuzzPlanValidate -fuzztime 5s ./internal/fault/
	$(GO) test -run xxx -fuzz FuzzOccurrences -fuzztime 5s ./internal/fault/
	$(GO) test -run xxx -fuzz FuzzLoadTable -fuzztime 5s -fuzzminimizetime 1s ./internal/autotune/
	$(GO) test -run xxx -fuzz FuzzParseRequest -fuzztime 5s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run xxx -fuzz FuzzReadFrames -fuzztime 5s -fuzzminimizetime 1s ./internal/serve/

# Documentation gate (the CI `docs` job): observability goldens and the
# docs-coverage contract, a block collective's task rows from the CLI, the
# checked-in critical-path report, the small-scale paper figures
# EXPERIMENTS.md quotes, the examples that check their own results (each
# exits non-zero on a wrong one), the markdown link checker, the list of
# functions no binary links and the fused multiply-add check. Regenerate
# goldens with `go test ./internal/bench -run Goldens -update`, and the
# figures with `make results`. The mid-scale figures (about 105 s on 2
# vCPUs) are diffed by CI's push-only `results-mid` job.
docs:
	$(GO) test -count=1 -run 'ObserveGoldens|CritPathOverlap|ObservabilityDocCoverage' ./internal/bench/
	@mkdir -p bin
	$(GO) run ./cmd/hantrace stats   -op allgather -size 65536 -machine mini -nodes 2 -ppn 2 -seed 1 > /dev/null
	$(GO) run ./cmd/hantrace metrics -op allgather -size 65536 -machine mini -nodes 2 -ppn 2 -seed 1 > /dev/null
	$(GO) run ./cmd/hantrace critpath -op bcast -size 4194304 -machine mini -nodes 4 -ppn 4 -fs 524288 -seed 1 > bin/fig2.txt
	tail -n +2 results/critpath-fig2.txt | diff - bin/fig2.txt
	$(GO) run ./cmd/hanexp -all -scale small | diff - results/hanexp-small.txt
	for ex in gpu quickstart recovery tuning; do $(GO) run ./examples/$$ex > /dev/null || exit 1; done
	$(GO) test -count=1 ./internal/docs/
	$(MAKE) -s deadapi | diff - results/deadapi.txt
	$(MAKE) -s fma

# The functions declared in non-test files under internal/ that no binary
# the repo ships links, sorted: every cmd/*, examples/* and the benchmark
# module, built with inlining off so that every called function keeps its
# symbol, against the `func` lines of the source. Generic instantiations
# are folded to their declared name (nm spells them with type arguments in
# brackets). results/deadapi.txt is the checked-in list, which `make docs`
# diffs: every entry's doc comment names the test or ROADMAP item it serves.
deadapi:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for d in cmd/* examples/*; do \
		$(GO) build -gcflags=all=-l -o "$$tmp/bin/$$(echo $$d | tr / -)" ./$$d || exit 1; \
	done && \
	$(GO) build -C benchmark -gcflags=all=-l -o "$$tmp/bin/benchmark" . && \
	for b in "$$tmp"/bin/*; do $(GO) tool nm "$$b" || exit 1; done \
		| sed -n 's|^ *[0-9a-f]* [Tt] github\.com/hanrepro/han/||p' \
		| sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' | sort -u > "$$tmp/linked" && \
	find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort \
		| xargs grep -H '^func ' \
		| sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' \
		| sed -n -e 's|^\(.*\)/[^/]*\.go:func (\([A-Za-z_0-9]* \)\{0,1\}\(\**\)\([A-Za-z_0-9]*\)) \([A-Za-z_0-9]*\).*|\1.(\3\4).\5|p' \
			-e 's|^\(.*\)/[^/]*\.go:func \([A-Za-z_0-9]*\).*|\1.\2|p' \
		| sed -e 's/\.(\([A-Za-z_0-9]*\))\./.\1./' | grep -v '\.init$$' | sort -u > "$$tmp/declared" && \
	comm -23 "$$tmp/declared" "$$tmp/linked"

# Fused multiply-adds in the packages that compute sim bits. On arm64,
# riscv64, ppc64le and s390x the compiler may fuse x*y+z into one
# instruction with one rounding, where amd64 rounds twice, so the bits
# would depend on the host. An explicit float64(x*y) rounds the product and
# forbids the fusion. This cross-compiles those packages for the four
# architectures with their assembly listings (no download: the toolchain
# cross-compiles pure Go itself) and fails on any fused instruction,
# printing its source line.
FMA_PKGS = ./internal/sim/ ./internal/flow/ ./internal/mpi/ ./internal/cluster/ ./internal/coll/ ./internal/han/ ./internal/autotune/ ./internal/fault/ ./internal/rivals/ ./internal/bench/ ./internal/apps/ ./internal/trace/
fma:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && fused=0 && \
	for arch in arm64 riscv64 ppc64le s390x; do \
		GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS) > "$$tmp" 2>&1 || { cat "$$tmp"; exit 1; }; \
		sites=$$(grep -E '\)[[:space:]]+F(N)?M(ADD|SUB)[SD]?[[:space:]]' "$$tmp" \
			| sed -e 's|^.*(\(.*\))[[:space:]]*\([A-Z]*\).*|\1 \2|' -e 's|^$(CURDIR)/||' | sort | uniq -c); \
		if [ -n "$$sites" ]; then echo "$$arch:"; echo "$$sites"; fused=1; fi; \
	done; \
	if [ $$fused = 1 ]; then echo "fused multiply-adds above: wrap each product in float64(...)"; exit 1; fi

# The paper figures at the two reduced scales, as EXPERIMENTS.md quotes them.
results:
	$(GO) run ./cmd/hanexp -all -scale small > results/hanexp-small.txt
	$(GO) run ./cmd/hanexp -all -scale mid > results/hanexp-mid.txt

# Allocator benchmarks, micro to macro: the flow-level rebalance
# micro-benchmarks (one max-min filler, per shape), the paper-scale 4096-rank
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
	$(GO) test -run xxx -bench 'Decide|ClientLoopback|ClientWire|WirePipelined' -benchmem ./internal/autotune/ ./internal/serve/
	$(GO) run ./cmd/hanbench -serve -clients 8 -duration 2s -machine mini

# The repository's one performance yardstick (benchmark/BENCHMARK.md):
# every workload three times, each run in its own child process, medians
# and the spread table in benchmark/out/results.json. Compare two result
# files with `go run -C benchmark . -compare A.json B.json`. The four
# bench-* targets above predate it and stay for now.
bench:
	$(GO) run -C benchmark . -runs 3
