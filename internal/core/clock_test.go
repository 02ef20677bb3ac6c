package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// accounting is the eq. (1) decomposition of one virtual-engine run as the
// kernel attributes it, plus the makespan the attribution must not move.
type accounting struct {
	Makespan, O1, O2, O3, Body, Dispatch, Chunks, Searches int64
}

// String renders the value as the golden table's source text, so a
// failure's output can be pasted into goldenAccounting.
func (a accounting) String() string {
	return fmt.Sprintf("{Makespan: %d, O1: %d, O2: %d, O3: %d, Body: %d, Dispatch: %d, Chunks: %d, Searches: %d}",
		a.Makespan, a.O1, a.O2, a.O3, a.Body, a.Dispatch, a.Chunks, a.Searches)
}

func accountingOf(makespan int64, sn Snapshot) accounting {
	return accounting{
		Makespan: makespan,
		O1:       sn.O1Time, O2: sn.O2Time, O3: sn.O3Time,
		Body: sn.BodyTime, Dispatch: sn.DispatchTime,
		Chunks: sn.Chunks, Searches: sn.Searches,
	}
}

// goldenRun executes nest on a fresh 4-processor virtual machine and
// returns its accounting. A paused run (checkpoint or budget) reports the
// totals its snapshot carries, with makespan 0, and the snapshot.
func goldenRun(t *testing.T, nest *loopir.Nest, cfg Config) (accounting, *RunSnapshot) {
	t.Helper()
	cfg.Engine = vmachine.New(vmachine.Config{P: 4, AccessCost: 5})
	rep, err := Run(compileOnly(t, nest), cfg)
	var be *BudgetExceededError
	var ce *CheckpointedError
	switch {
	case err == nil:
		return accountingOf(rep.Makespan, rep.Stats), nil
	case errors.As(err, &be) && be.Snapshot != nil:
		return accountingOf(0, snapshotOf(be.Snapshot.Stats)), be.Snapshot
	case errors.As(err, &ce):
		return accountingOf(0, snapshotOf(ce.Snapshot.Stats)), ce.Snapshot
	}
	t.Fatalf("run: %v", err)
	return accounting{}, nil
}

// TestAccountingGolden pins the virtual engine's eq. (1) accounting on
// every kernel path that reads the clock — unit claims, nested activation,
// Doacross chunks, leases, the Isolate executor, the dispatch charge, and
// the budget/checkpoint pauses with their resumes. The values were
// captured at the commit before the clock was chained through the worker
// (one read per phase boundary); they hold as long as no machine time
// passes between the end of one accounted phase and the start of the next.
// The O1 column of the unit-claim cases was captured again when the
// successful claim's interval moved from no counter to O1, and the O1 and
// Makespan columns of the ss and css cases whose instances are more than
// P chunks long (flat, wavefront, the flat budget and lease legs) a third
// time when the icount post moved from every chunk to the end of a hold:
// fewer icount accesses shorten O1 and shift the schedule. Nothing else
// may move with the post — O2, O3, Body, Dispatch, Chunks and Searches
// are the original capture everywhere, and the many/*, fig1 and gss cases
// (every chunk is tail and posts as before) are the original capture in
// every column — which is what shows that each way out of the drive loop
// posts and closes the open O1 interval.
func TestAccountingGolden(t *testing.T) {
	flat := func() *loopir.Nest { return workload.UniformDoall(2048, 100) }
	many := func() *loopir.Nest { return workload.ManyInstances(8, 64, 4, 30) }
	flaky := func() *loopir.Nest {
		return loopir.MustBuild(func(b *loopir.B) {
			b.DoallLeaf("A", loopir.Const(200), func(e loopir.Env, iv loopir.IVec, j int64) {
				if j == 17 {
					panic("iteration 17 always fails")
				}
				e.Work(7)
			})
		})
	}
	cases := []struct {
		name string
		nest func() *loopir.Nest
		cfg  Config
		// resume continues a paused first leg from its snapshot; the golden
		// entry then lists the pause's totals followed by the finished run's.
		resume bool
	}{
		{name: "flat/ss", nest: flat, cfg: Config{Scheme: lowsched.SS{}}},
		{name: "many/ss", nest: many, cfg: Config{Scheme: lowsched.SS{}}},
		{name: "wavefront/css:2", nest: func() *loopir.Nest { return workload.Wavefront(300, 2, 20, 60) },
			cfg: Config{Scheme: lowsched.CSS{K: 2}}},
		{name: "flat/ss/batch4", nest: flat, cfg: Config{Scheme: lowsched.SS{}, ClaimBatch: 4}},
		{name: "many/gss/batch3", nest: many, cfg: Config{Scheme: lowsched.GSS{}, ClaimBatch: 3}},
		{name: "isolate/quarantine", nest: flaky,
			cfg: Config{Scheme: lowsched.GSS{}, Failure: Isolate, Retry: Retry{Attempts: 1, Backoff: 10}}},
		{name: "fig1/dispatch500", nest: func() *loopir.Nest { return workload.Fig1(workload.DefaultFig1()) },
			cfg: Config{DispatchCost: 500}},
		{name: "flat/css:8/budget+resume", nest: flat, resume: true,
			cfg: Config{Scheme: lowsched.CSS{K: 8}, Budget: &Budget{Iterations: 1001}, Checkpoint: &CheckpointConfig{}}},
		{name: "flat/css:8/batch4/budget+resume", nest: flat, resume: true,
			cfg: Config{Scheme: lowsched.CSS{K: 8}, ClaimBatch: 4, Budget: &Budget{Iterations: 1001}, Checkpoint: &CheckpointConfig{}}},
		// 1000 = 31 leases + one slice: the budget ends on a slice boundary.
		{name: "flat/css:8/batch4/budget1000+resume", nest: flat, resume: true,
			cfg: Config{Scheme: lowsched.CSS{K: 8}, ClaimBatch: 4, Budget: &Budget{Iterations: 1000}, Checkpoint: &CheckpointConfig{}}},
		{name: "many/ss/batch2/checkpoint+resume", nest: many, resume: true,
			cfg: Config{Scheme: lowsched.SS{}, ClaimBatch: 2, Checkpoint: &CheckpointConfig{AfterChunks: 100}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, snap := goldenRun(t, tc.nest(), tc.cfg)
			legs := []accounting{got}
			if tc.resume {
				if snap == nil {
					t.Fatal("first leg ran to completion; the case must pause")
				}
				cfg := tc.cfg
				cfg.Budget = nil
				cfg.Checkpoint = &CheckpointConfig{Restore: snap}
				got, snap = goldenRun(t, tc.nest(), cfg)
				if snap != nil {
					t.Fatal("resumed leg paused again")
				}
				legs = append(legs, got)
			}
			want := goldenAccounting[tc.name]
			if len(want) != len(legs) {
				t.Fatalf("golden table has %d leg(s) for this case, run produced %v", len(want), legs)
			}
			for i := range legs {
				if legs[i] != want[i] {
					t.Errorf("leg %d accounting moved:\n got %v\nwant %v", i, legs[i], want[i])
				}
			}
		})
	}
}

// goldenAccounting holds TestAccountingGolden's expectations, captured at
// the parent of the chained-clock change (O1 of the unit-claim cases: at
// the change that charges the claim; O1 and Makespan of the long-instance
// cases: at the change that posts per hold).
var goldenAccounting = map[string][]accounting{
	"flat/ss": {
		{Makespan: 53980, O1: 10310, O2: 510, O3: 45, Body: 204800, Dispatch: 0, Chunks: 2048, Searches: 4},
	},
	"many/ss": {
		{Makespan: 5615, O1: 5180, O2: 6785, O3: 2510, Body: 7680, Dispatch: 0, Chunks: 256, Searches: 122},
	},
	"wavefront/css:2": {
		{Makespan: 7190, O1: 820, O2: 510, O3: 45, Body: 27005, Dispatch: 0, Chunks: 150, Searches: 4},
	},
	"flat/ss/batch4": {
		{Makespan: 52060, O1: 2630, O2: 510, O3: 45, Body: 204800, Dispatch: 0, Chunks: 2048, Searches: 4},
	},
	"many/gss/batch3": {
		{Makespan: 5155, O1: 4295, O2: 5880, O3: 2530, Body: 7680, Dispatch: 0, Chunks: 256, Searches: 113},
	},
	"isolate/quarantine": {
		{Makespan: 660, O1: 579, O2: 510, O3: 45, Body: 1403, Dispatch: 0, Chunks: 16, Searches: 4},
	},
	"fig1/dispatch500": {
		{Makespan: 12225, O1: 1635, O2: 4430, O3: 1880, Body: 7200, Dispatch: 33500, Chunks: 72, Searches: 67},
	},
	"flat/css:8/budget+resume": {
		{Makespan: 0, O1: 650, O2: 510, O3: 40, Body: 100100, Dispatch: 0, Chunks: 126, Searches: 4},
		{Makespan: 27445, O1: 1375, O2: 3180, O3: 45, Body: 204800, Dispatch: 0, Chunks: 256, Searches: 8},
	},
	"flat/css:8/batch4/budget+resume": {
		{Makespan: 0, O1: 180, O2: 510, O3: 40, Body: 100100, Dispatch: 0, Chunks: 128, Searches: 4},
		{Makespan: 28180, O1: 415, O2: 7980, O3: 45, Body: 204800, Dispatch: 0, Chunks: 256, Searches: 8},
	},
	"flat/css:8/batch4/budget1000+resume": {
		{Makespan: 0, O1: 180, O2: 510, O3: 40, Body: 100000, Dispatch: 0, Chunks: 128, Searches: 4},
		{Makespan: 28280, O1: 415, O2: 8280, O3: 45, Body: 204800, Dispatch: 0, Chunks: 256, Searches: 8},
	},
	"many/ss/batch2/checkpoint+resume": {
		{Makespan: 0, O1: 1340, O2: 1835, O3: 2155, Body: 2970, Dispatch: 0, Chunks: 100, Searches: 35},
		{Makespan: 3630, O1: 3865, O2: 7000, O3: 2555, Body: 7680, Dispatch: 0, Chunks: 256, Searches: 110},
	},
}

// countingEngine wraps an engine's processors to count Now() calls and
// the accesses to icount.
type countingEngine struct {
	Engine
	nows, posts atomic.Int64
}

type countingProc struct {
	machine.Proc
	e *countingEngine
}

func (p countingProc) Now() machine.Time {
	p.e.nows.Add(1)
	return p.Proc.Now()
}

func (p countingProc) Access(v *machine.SyncVar) {
	if v.Name() == "icount" {
		p.e.posts.Add(1)
	}
	p.Proc.Access(v)
}

func (e *countingEngine) Run(worker func(machine.Proc)) machine.RunReport {
	return e.Engine.Run(func(pr machine.Proc) { worker(countingProc{pr, e}) })
}

// countedProcs is the machine size of the counting runs.
const countedProcs = 4

// countedRun runs nest under ss, claiming batch chunks per operation, on
// a counting 4-processor virtual machine (deterministic, so the figures
// are exact) with no tracer, recorder or budget, and returns the engine's
// counts and the run's stats.
func countedRun(t *testing.T, nest *loopir.Nest, batch int) (*countingEngine, Snapshot) {
	t.Helper()
	eng := &countingEngine{Engine: vmachine.New(vmachine.Config{P: countedProcs, AccessCost: 5})}
	rep, err := Run(compileOnly(t, nest), Config{Engine: eng, Scheme: lowsched.SS{}, ClaimBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	return eng, rep.Stats
}

// TestPostBudget pins the completion count's traffic the way
// TestClockBudget pins the clock's: the claim is the one shared-memory
// operation a unit chunk pays. On a flat doall icount is accessed at most
// 2P times however long the loop — the fewer than P tail iterations post
// one by one, and each processor posts the rest of its hold once, when
// its claim fails. An instance of at most P iterations is all tail, so it
// takes one post per chunk, Algorithm 3's figure, and never more.
func TestPostBudget(t *testing.T) {
	for _, n := range []int64{2000, 20000} {
		eng, st := countedRun(t, workload.UniformDoall(n, 20), 1)
		posts := eng.posts.Load()
		t.Logf("flat doall %d: %d icount accesses over %d chunks", n, posts, st.Chunks)
		if posts > 2*countedProcs {
			t.Errorf("flat doall %d: %d icount accesses, want <= 2P = %d independent of N", n, posts, 2*countedProcs)
		}
	}
	for _, inst := range []int64{64, 640} {
		eng, st := countedRun(t, workload.ManyInstances(8, inst, 4, 30), 1)
		per := float64(eng.posts.Load()) / float64(st.Instances)
		t.Logf("many instances %d: %.2f icount accesses per 4-iteration instance", inst, per)
		if per > 4 {
			t.Errorf("many instances %d: %.2f icount accesses per instance, want <= one per iteration (4)", inst, per)
		}
	}
}

// TestClockBudget pins the kernel's clock reads the way
// TestAllocsSteadyState pins its allocations: a unit chunk costs two
// reads — one after the claim, one after the body; the icount update
// rides in the next claim's interval — and an instance a small constant
// more (its completion path and the SEARCH that follows). Scaling the
// nest must not move either per-unit figure. A slice taken from a held
// lease is no claim: it costs the body's read alone, and the lease's one
// claim read is shared by its slices — 1 + 1/batch per chunk.
func TestClockBudget(t *testing.T) {
	const perChunk, slack = 2, 32
	for _, n := range []int64{2000, 20000} {
		eng, st := countedRun(t, workload.UniformDoall(n, 20), 1)
		nows := eng.nows.Load()
		t.Logf("flat doall %d: %d clock reads over %d chunks", n, nows, st.Chunks)
		if st.Chunks != n {
			t.Fatalf("ss claimed %d chunks for %d iterations", st.Chunks, n)
		}
		if nows > perChunk*st.Chunks+slack {
			t.Errorf("flat doall %d: %d clock reads, want <= %d per chunk + %d", n, nows, perChunk, slack)
		}

		const batch = 8
		eng, st = countedRun(t, workload.UniformDoall(n, 20), batch)
		nows = eng.nows.Load()
		t.Logf("flat doall %d, batch %d: %d clock reads over %d chunks", n, batch, nows, st.Chunks)
		if st.Chunks != n {
			t.Fatalf("ss leased %d chunks for %d iterations", st.Chunks, n)
		}
		if nows > st.Chunks+st.Chunks/batch+slack {
			t.Errorf("flat doall %d, batch %d: %d clock reads, want <= one per chunk + one per lease + %d", n, batch, nows, slack)
		}
	}

	// Per instance: the completer closes O1 before EXIT, O3 after the
	// release and O2 after the following SEARCH (three reads); a worker
	// that finds the instance exhausted pays one for its failed claim and
	// one for its next SEARCH — at most P-1 such workers per instance.
	const perInstance = 3 + 2*3
	for _, inst := range []int64{64, 640} {
		eng, st := countedRun(t, workload.ManyInstances(8, inst, 4, 30), 1)
		nows := eng.nows.Load()
		surplus := float64(nows-perChunk*st.Chunks) / float64(st.Instances)
		t.Logf("many instances %d: %d clock reads, %d chunks, %d instances: surplus %.2f per instance",
			inst, nows, st.Chunks, st.Instances, surplus)
		if surplus > perInstance {
			t.Errorf("many instances %d: %.2f clock reads per instance beyond the chunks', want <= %d",
				inst, surplus, perInstance)
		}
	}
}
