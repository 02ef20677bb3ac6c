GO ?= go

# The deterministic ledger's knobs (wall clock is bench/'s ledger —
# BENCHMARK.json, `bash bench/run.sh`). BENCH_OUT is where `make bench`
# writes its result file; BENCH_BASE is the golden file `make
# bench-compare` compares against exactly (`go test ./cmd/benchsuite`
# holds a fresh run to it too):
# BENCH_pr42.json, the whole registry, recorded when a structural doall
# above one claim's chunk became a fan-out block that every processor
# claims activations from. BENCH_pr22.json (recorded when the icount post
# moved from every chunk to the end of a hold) and BENCH_pr16.json (when
# O1 started charging the successful claim) stay as earlier trajectory
# points.
REV        := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)
BENCH_OUT  ?= BENCH_$(REV).json
BENCH_BASE ?= BENCH_pr42.json

.PHONY: build test lint bench bench-compare bench-smoke bench-go bench-pairs bench-harness verify verify-gates

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the two static checkers CI installs (`go install
# honnef.co/go/tools/cmd/staticcheck@latest` and
# `golang.org/x/vuln/cmd/govulncheck@latest`): staticcheck's analyses,
# then the known-vulnerability scan of the code's call graph.
lint:
	staticcheck ./...
	govulncheck ./...

# bench runs the deterministic ledger (internal/benchkit): every
# scenario on the virtual-time machine, run twice and checked to agree
# exactly, written as one value per metric, one scenario to a line.
bench:
	$(GO) run ./cmd/benchsuite run -o $(BENCH_OUT)

# bench-compare gates the latest result file against the baseline:
# nonzero exit when a scenario is missing on either side, a deterministic
# value differs at all, or the adaptive scenario gets more than 10 %
# worse on makespan, utilization, overhead or accesses.
bench-compare:
	$(GO) run ./cmd/benchsuite compare $(BENCH_BASE) $(BENCH_OUT)

# bench-smoke is the fast sanity slice CI runs on every push: the smoke
# scenarios, then one iteration of the wall-clock benchmarks — the
# kernel ones keep the real engine compiling and running (KernelLeased
# is the one place outside `go test` where it slices a held lease),
# VirtualServed checks the served programs' makespans on the virtual
# engine, and ServedRetained fails when a terminal run keeps more than
# 4 kB of heap.
bench-smoke:
	$(GO) run ./cmd/benchsuite run -filter smoke -o /tmp/BENCH_smoke.json
	$(GO) test -run '^$$' -bench 'Kernel(Fine|Nested|Leased|Scaling)|FetchAdd|VirtualServed|ServedRetained' -benchtime=1x . ./internal/machine/

# bench-harness vets and tests bench/, the wall-clock benchmark. It is
# its own module (it drives this one through its public API and wire
# format), so ./... does not reach it: a wire or field rename must fail
# here, not in the benchmark run.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-pairs runs the root package's wall-clock benchmarks of the served
# virtual path, the claim path and the nested kernel (VirtualServed,
# KernelFine, KernelNested, with -benchmem) on PARENT and on the working
# tree, N times alternately, and prints every output line tagged parent:
# or change:. Odd pairs run PARENT first and even pairs the change first,
# so a host whose times drift over the session slows neither side more.
# Each side's test binary is built once — PARENT's in a temporary
# checkout made with git archive — and runs in its own tree, where
# bench/programs is. It reads the spread a change must stay inside:
# compare each benchmark's medians against the parent's quartiles.
PARENT ?= HEAD
N      ?= 10
PAIRS_BENCH := -test.run '^$$' -test.bench 'VirtualServed|Kernel(Fine|Nested)' -test.benchmem -test.timeout 10m

bench-pairs:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/parent"; git archive "$(PARENT)" | tar -x -C "$$tmp/parent"; \
	(cd "$$tmp/parent" && $(GO) test -c -o "$$tmp/parent.test" .); \
	$(GO) test -c -o "$$tmp/change.test" .; \
	parent() { (cd "$$tmp/parent" && "$$tmp/parent.test" $(PAIRS_BENCH)) | sed 's/^/parent: /'; }; \
	change() { "$$tmp/change.test" $(PAIRS_BENCH) | sed 's/^/change: /'; }; \
	for i in $$(seq $(N)); do \
		if [ $$((i % 2)) = 1 ]; then parent; change; else change; parent; fi; \
	done

# bench-go is the raw `go test -bench` escape hatch (single iteration,
# no statistics — for quick spot checks only).
bench-go:
	$(GO) test -bench=. -benchtime=1x .

# verify is the tier-1 gate: every file is gofmt-formatted, everything
# builds, every test passes.
verify:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: files need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...

# verify-gates is the one conformance gate. Every package runs once
# under the race detector with shuffled order — the enginetest
# matrices on both engines (kernel, chaos, batched claims, budgets,
# resume, failover restore), the scheduler/runner/daemon serving suites,
# the three-node cluster chaos suite, loadcheck, the journal decoder's
# fuzz seed corpus, the auto-vs-static gate on the irregular family —
# then the runner's randomized event storms fifty times over (they were
# flaky once: a census race shows in about 3 runs of 100), the terminal
# runs' release checks fifty times over (their preempted-then-done case
# once raced its own preemption: about 1 run in 100), the run table's
# retention checks twenty times over under the race detector (outcomes
# released while other goroutines look them up, watch and wait on them,
# a placer's tracker meeting an owner's 410, and a restarted owner's 404
# for a placement it lost, which must fail over), the
# three-node cold start on real sockets twenty times over (every node
# placeable on every other within half a probe interval of the last
# listener — the figure serve_cluster3's setup_s rests on), eight
# goroutines racing the posts of four-iteration instances twenty times
# over under the race detector (every chunk of such an instance is tail:
# post, claim, and whoever's post completes the count runs EXIT), the
# batched checkpoint/resume matrix on eight goroutines twenty times over
# under it too (the lease a worker holds is private state that crosses
# the pause: its unstarted slices must travel as pending ranges), the
# clock-read budget with its real-engine rows twenty times over under it
# (an exact hold reads its clock at its edges, its first claim, its tail
# and one sampled chunk in every stride, any other hold at its edges
# alone, and which holds are exact depends on the interleaving), a
# four-thousand-instance fan-out run through and paused and resumed
# mid-way twenty times under it too (every processor claims activations
# from the fan-out block and recycles the blocks it retires, and which
# blocks it gets back depends on the interleaving), a fan-out and a
# fan-out of fan-outs paused while half activated and resumed, on every
# pool, twenty times under it (which activations the pause finds claimed
# depends on the interleaving), a chain of tiny instances paused among
# the ones the real engine runs inline and resumed, on every pool, twenty
# times under it (which worker runs the chain, and which instance it
# publishes at the pause, depends on the interleaving), the barrier
# counts a resumed run derives from its snapshot against the paused
# run's own twenty times under it (which barriers a real pause catches,
# and at which counts, depends on the interleaving), and the failover
# paths twenty times over
# under it (an owner killed mid-run, a cancel after its failover, a
# re-placement whose every answer is lost): calls to a dying owner are stopped by
# membership's dead verdict now, not by a circuit breaker, so which calls
# reach a dying owner depends on where its death lands among them (about
# 8.5 minutes on two vCPUs, so that line carries its own timeout). The
# ledger compare against the golden file is
# tier-1 (cmd/benchsuite's TestLedgerMatchesGolden), so it is not
# repeated here.
verify-gates:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -count=50 -run 'TestEventStorm' ./runner/
	$(GO) test -count=50 -run TestTerminalRunReleasesItsMachine ./runner/
	$(GO) test -race -count=20 -run 'TestRetain|TestReserve|TestSpans|TestChainStopsAtPause|TestCluster(Released|Lost)Placement' ./runner/ ./cmd/loopschedd/
	$(GO) test -count=20 -run 'TestClusterColdStart' ./cmd/loopschedd/
	$(GO) test -race -count=20 -run 'TestRealEngine(TailInstances|BatchedCheckpointResume|RecycledInstances|RecycledCheckpointResume|FanOutCheckpointResume|InlineCheckpointResume)|TestClockBudget|TestRestoreDerivesBarrierCounts' ./internal/enginetest/ ./internal/core/
	$(GO) test -race -count=20 -timeout 30m -run 'TestCluster(FailoverRestore|CancelAfterFailover|FailoverForwardIsConfirmed)' ./cmd/loopschedd/
