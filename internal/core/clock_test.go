package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
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

// stridedEngine gives an engine the clock stride the real engine has, so
// the kernel's sampled accounting runs where a read is free and every
// figure can be compared with the same run at stride 1.
type stridedEngine struct {
	Engine
	stride int
}

func (e stridedEngine) ClockStride() int { return e.stride }

// stridedRun executes nest on a fresh p-processor virtual machine whose
// clock stride is stride and returns its accounting. A paused run
// (checkpoint or budget) reports the totals its snapshot carries, with
// makespan 0, and the snapshot.
func stridedRun(t *testing.T, nest *loopir.Nest, cfg Config, p, stride int) (accounting, *RunSnapshot) {
	t.Helper()
	cfg.Engine = stridedEngine{vmachine.New(vmachine.Config{P: p, AccessCost: 5}), stride}
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
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			legs := tc.legs(t, 4, 1)
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

// goldenCase is one TestAccountingGolden configuration.
type goldenCase struct {
	name string
	nest func() *loopir.Nest
	cfg  Config
	// resume continues a paused first leg from its snapshot; the golden
	// entry then lists the pause's totals followed by the finished run's.
	resume bool
}

func goldenCases() []goldenCase {
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
	return []goldenCase{
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
}

// legs runs the case on a p-processor virtual machine at the given clock
// stride and returns the accounting of each leg.
func (tc goldenCase) legs(t *testing.T, p, stride int) []accounting {
	t.Helper()
	got, snap := stridedRun(t, tc.nest(), tc.cfg, p, stride)
	legs := []accounting{got}
	if tc.resume {
		if snap == nil {
			t.Fatal("first leg ran to completion; the case must pause")
		}
		cfg := tc.cfg
		cfg.Budget = nil
		cfg.Checkpoint = &CheckpointConfig{Restore: snap}
		got, snap = stridedRun(t, tc.nest(), cfg, p, stride)
		if snap != nil {
			t.Fatal("resumed leg paused again")
		}
		legs = append(legs, got)
	}
	return legs
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

// sampledStride is the stride the split is checked at: the real engine's.
const sampledStride = 16

// TestSampledSplit runs every golden case, and flat/ss at P=1 and P=4, at
// the real engine's clock stride on the virtual engine, where a read is
// free, so the sampled split can be held to the exact one. Reading the
// clock less moves no machine time and no hold edge: the makespan, the
// counts, O2, O3, dispatch and the O1+body total are exact. Only the split
// of a window between O1 and body is estimated, from the worker's exact
// samples: on the long flat holds (flat/ss, and its batch-4 leases, whose
// slices are no claims) O1 must land within 2 % of the exact figure, and
// elsewhere body within a tenth of O1+body.
func TestSampledSplit(t *testing.T) {
	type run struct {
		goldenCase
		p int
	}
	var runs []run
	for _, tc := range goldenCases() {
		runs = append(runs, run{tc, 4})
	}
	flat := goldenCases()[0]
	runs = append(runs, run{flat, 1})
	for _, r := range runs {
		t.Run(fmt.Sprintf("%s/P=%d", r.name, r.p), func(t *testing.T) {
			exact, sampled := r.legs(t, r.p, 1), r.legs(t, r.p, sampledStride)
			for i := range exact {
				e, s := exact[i], sampled[i]
				t.Logf("leg %d: O1 %d → %d, body %d → %d", i, e.O1, s.O1, e.Body, s.Body)
				if e.O1+e.Body != s.O1+s.Body {
					t.Errorf("leg %d: O1+body %d at stride 1, %d sampled", i, e.O1+e.Body, s.O1+s.Body)
				}
				if strings.HasPrefix(r.name, "flat/ss") {
					if d := math.Abs(float64(s.O1-e.O1)) / float64(e.O1); d > 0.02 {
						t.Errorf("leg %d: sampled O1 %d is %.1f %% off the exact %d, want <= 2 %%", i, s.O1, 100*d, e.O1)
					}
				} else if d := math.Abs(float64(s.Body-e.Body)) / float64(e.O1+e.Body); d > 0.10 {
					t.Errorf("leg %d: sampled body %d is off the exact %d by %.3f of O1+body, want <= 0.10", i, s.Body, e.Body, d)
				}
				e.O1, e.Body, s.O1, s.Body = 0, 0, 0, 0
				if e != s {
					t.Errorf("leg %d: sampling moved more than the split:\n exact   %v\n sampled %v", i, e, s)
				}
			}
		})
	}
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

// ClockStride forwards the wrapped engine's stride, which embedding the
// Engine interface would hide.
func (e *countingEngine) ClockStride() int { return clockStride(e.Engine) }

// countedProcs is the machine size of the counting runs.
const countedProcs = 4

// countedRun runs nest under ss, claiming batch chunks per operation, on
// a counting 4-processor virtual machine (deterministic, so the figures
// are exact) with no tracer, recorder or budget, and returns the engine's
// counts and the run's stats.
func countedRun(t *testing.T, nest *loopir.Nest, batch int) (*countingEngine, Snapshot) {
	t.Helper()
	return countedOn(t, vmachine.New(vmachine.Config{P: countedProcs, AccessCost: 5}), nest, batch)
}

// countedOn is countedRun on the given engine.
func countedOn(t *testing.T, e Engine, nest *loopir.Nest, batch int) (*countingEngine, Snapshot) {
	t.Helper()
	eng := &countingEngine{Engine: e}
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
// TestAllocsSteadyState pins its allocations. At stride 1 (the virtual
// engine) a unit chunk costs two reads — one after the claim, one after
// the body; the icount update rides in the next claim's interval — and an
// instance a small constant more (its completion path and the SEARCH that
// follows). Scaling the nest must not move either per-unit figure. A slice
// taken from a held lease is no claim: it costs the body's read alone, and
// the lease's one claim read is shared by its slices — 1 + 1/batch per
// chunk. On the real engine (stride s) a long hold reads three times per
// sample, one sample in s chunks, plus a constant per hold: its edges, its
// first claim, its tail chunks.
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

	// The real engine: per processor, the run's first mark, processor 0's
	// prologue, the adoption, the hold's first claim, the first sample's
	// body, its leave and the reads of a sample in progress — and at most
	// two per tail chunk, fewer than P of them.
	for _, p := range []int{2, 4} {
		real := func() Engine { return machine.NewReal(machine.RealConfig{P: p}) }
		s := clockStride(real())
		perHold := int64(10 * p)
		for _, n := range []int64{2000, 20000, 200000} {
			eng, st := countedOn(t, real(), workload.UniformDoall(n, 20), 1)
			nows := eng.nows.Load()
			t.Logf("real P=%d, flat doall %d: %d clock reads over %d chunks (%.3f per chunk)",
				p, n, nows, st.Chunks, float64(nows)/float64(st.Chunks))
			if nows > 3*st.Chunks/int64(s)+perHold {
				t.Errorf("real P=%d, flat doall %d: %d clock reads, want <= 3/%d per chunk + %d", p, n, nows, s, perHold)
			}
		}
		for _, inst := range []int64{64, 640} {
			eng, st := countedOn(t, real(), workload.ManyInstances(8, inst, 4, 30), 1)
			nows := eng.nows.Load()
			surplus := float64(nows-perChunk*st.Chunks) / float64(st.Instances)
			t.Logf("real P=%d, many instances %d: %d clock reads, %d chunks, %d instances: surplus %.2f per instance",
				p, inst, nows, st.Chunks, st.Instances, surplus)
			if want := 3 + 2*(p-1); surplus > float64(want) {
				t.Errorf("real P=%d, many instances %d: %.2f clock reads per instance beyond the chunks', want <= %d",
					p, inst, surplus, want)
			}
		}
	}
}
