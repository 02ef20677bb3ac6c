GO ?= go

# The deterministic ledger's knobs (wall clock is bench/'s ledger —
# BENCHMARK.json, `bash bench/run.sh`). BENCH_OUT is where `make bench`
# writes its result file; BENCH_BASE is the golden file `make
# bench-compare` and `make verify-gates` compare against exactly:
# BENCH_pr22.json, the whole registry, recorded when the icount post
# moved from every chunk to the end of a hold. BENCH_pr16.json (recorded
# when O1 started charging the successful claim) stays as the previous
# trajectory point.
REV        := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)
BENCH_OUT  ?= BENCH_$(REV).json
BENCH_BASE ?= BENCH_pr22.json

.PHONY: build test bench bench-compare bench-smoke bench-go verify verify-gates

build:
	$(GO) build ./...

test:
	$(GO) test ./...

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
# once raced its own preemption: about 1 run in 100), the
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
# (a hold reads its clock at its edges, its first claim, its tail and one
# sampled chunk in every stride, whatever the interleaving), and one
# run of the whole registry compared against the committed golden file:
# every seam must cost nothing, and change nothing, when off (the
# adaptive scenario is held within 10 % instead; the static ones must
# match exactly, and no scenario may be missing on either side).
verify-gates:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -count=50 -run 'TestEventStorm' ./runner/
	$(GO) test -count=50 -run TestTerminalRunReleasesItsMachine ./runner/
	$(GO) test -count=20 -run 'TestClusterColdStart' ./cmd/loopschedd/
	$(GO) test -race -count=20 -run 'TestRealEngine(TailInstances|BatchedCheckpointResume)|TestClockBudget' ./internal/enginetest/ ./internal/core/
	$(GO) run ./cmd/benchsuite run -o /tmp/BENCH_gates.json
	$(GO) run ./cmd/benchsuite compare $(BENCH_BASE) /tmp/BENCH_gates.json
