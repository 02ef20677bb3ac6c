package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/trace"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// recTracer records events with engine timestamps for verification.
type recTracer struct {
	mu     sync.Mutex
	starts map[string]machine.Time // instance key -> first iteration start
	ends   map[string]machine.Time // instance key -> completion time
	iters  map[string]int64        // instance key -> executed iterations
	order  []string                // activation order
}

func newRecTracer() *recTracer {
	return &recTracer{
		starts: map[string]machine.Time{},
		ends:   map[string]machine.Time{},
		iters:  map[string]int64{},
	}
}

func ikey(loop int, ivec loopir.IVec) string { return fmt.Sprintf("%d%v", loop, ivec) }

// Record implements trace.Sink; it keeps the four verification kinds,
// which are the first four.
func (r *recTracer) Record(e trace.Event) {
	if e.Kind > trace.EvCompleted {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch k := ikey(int(e.Loop), e.IVec); e.Kind {
	case trace.EvActivated:
		r.order = append(r.order, k)
	case trace.EvIterStart:
		if cur, ok := r.starts[k]; !ok || e.At < cur {
			r.starts[k] = e.At
		}
	case trace.EvIterEnd:
		r.iters[k]++
	case trace.EvCompleted:
		r.ends[k] = e.At
	}
}

func compileStd(t *testing.T, nest *loopir.Nest) (*descr.Program, *refexec.Result) {
	t.Helper()
	std, err := nest.Standardize()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := descr.Compile(std)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refexec.Run(std)
	if err != nil {
		t.Fatal(err)
	}
	return prog, ref
}

// runBoth executes prog on the virtual machine (P=4) and the real machine
// (P=4) and verifies both against the reference execution: identical
// instance multisets (keyed by loop number + ivec) and per-instance
// iteration counts.
func runBoth(t *testing.T, nest *loopir.Nest, scheme lowsched.Scheme) (*Report, *Report) {
	t.Helper()
	var reps []*Report
	for _, mk := range []func() machine.Engine{
		func() machine.Engine { return vmachine.New(vmachine.Config{P: 4, AccessCost: 5}) },
		func() machine.Engine { return machine.NewReal(machine.RealConfig{P: 4}) },
	} {
		prog, ref := compileStd(t, nest)
		tr := newRecTracer()
		rep, err := Run(prog, Config{Engine: mk(), Scheme: scheme, Sink: tr})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		verifyAgainstRef(t, prog, ref, tr, rep)
		reps = append(reps, rep)
	}
	return reps[0], reps[1]
}

func verifyAgainstRef(t *testing.T, prog *descr.Program, ref *refexec.Result, tr *recTracer, rep *Report) {
	t.Helper()
	// Expected multiset: instances with bound > 0 get an ICB; zero-trip
	// instances complete vacuously and never appear.
	want := map[string]int64{}
	var wantIters int64
	for _, in := range ref.Instances {
		if in.Bound > 0 {
			want[fmt.Sprintf("%d%v", prog.NumOf(in.Leaf), in.IVec)] = in.Bound
			wantIters += in.Bound
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.order) != len(want) {
		t.Errorf("activated %d instances, want %d", len(tr.order), len(want))
	}
	seen := map[string]bool{}
	for _, k := range tr.order {
		if seen[k] {
			t.Errorf("instance %s activated twice", k)
		}
		seen[k] = true
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected instance %s", k)
		}
	}
	for k, b := range want {
		if !seen[k] {
			t.Errorf("missing instance %s", k)
		}
		if got := tr.iters[k]; got != b {
			t.Errorf("instance %s executed %d iterations, want %d", k, got, b)
		}
	}
	if rep.Stats.Iterations != wantIters {
		t.Errorf("total iterations = %d, want %d", rep.Stats.Iterations, wantIters)
	}
	if rep.Stats.Instances != int64(len(want)) {
		t.Errorf("stats instances = %d, want %d", rep.Stats.Instances, len(want))
	}
}

func TestFig1EndToEnd(t *testing.T) {
	runBoth(t, workload.Fig1(workload.DefaultFig1()), lowsched.SS{})
}

func TestFig1FalseBranch(t *testing.T) {
	cfg := workload.DefaultFig1()
	cfg.CondP = func() bool { return false } // take G instead of F
	runBoth(t, workload.Fig1(cfg), lowsched.SS{})
}

func TestFig1AllSchemes(t *testing.T) {
	for _, scheme := range []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{}, lowsched.TSS{}, lowsched.FSC{}, lowsched.AFS{},
	} {
		t.Run(scheme.Name(), func(t *testing.T) {
			runBoth(t, workload.Fig1(workload.DefaultFig1()), scheme)
		})
	}
}

func TestFig1StaticSchemes(t *testing.T) {
	// The static pre-scheduling baselines must still execute general nests
	// correctly through the pool (every processor eventually claims its
	// own assignment of every instance).
	for _, scheme := range []lowsched.Scheme{lowsched.StaticBlock{}, lowsched.StaticCyclic{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			runBoth(t, workload.Fig1(workload.DefaultFig1()), scheme)
		})
	}
}

func TestStaticSchemesOnRandomPrograms(t *testing.T) {
	cfg := workload.DefaultRandConfig()
	cfg.NoDoacross = true // static schemes reject Doacross programs
	for seed := int64(7000); seed < 7040; seed++ {
		nest := workload.Random(seed, cfg)
		prog, ref := compileStd(t, nest)
		scheme := lowsched.Scheme(lowsched.StaticBlock{})
		if seed%2 == 0 {
			scheme = lowsched.StaticCyclic{}
		}
		tr := newRecTracer()
		rep, err := Run(prog, Config{
			Engine: vmachine.New(vmachine.Config{P: int(seed%6) + 1, AccessCost: 4}),
			Scheme: scheme,
			Sink:   tr,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		verifyAgainstRef(t, prog, ref, tr, rep)
	}
}

func TestSerialLoopPrecedence(t *testing.T) {
	// serial K { C; D }: on the virtual machine, C(k) must complete
	// before D(k) starts, and D(k) before C(k+1).
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Serial("K", loopir.Const(4), func(b *loopir.B) {
			b.DoallLeaf("C", loopir.Const(6), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(50) })
			b.DoallLeaf("D", loopir.Const(6), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(50) })
		})
	})
	prog, _ := compileStd(t, nest)
	tr := newRecTracer()
	if _, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 5}),
		Sink:   tr,
	}); err != nil {
		t.Fatal(err)
	}
	cNum, dNum := 1, 2
	for k := 1; k <= 4; k++ {
		c := fmt.Sprintf("%d(%d)", cNum, k)
		d := fmt.Sprintf("%d(%d)", dNum, k)
		if tr.ends[c] > tr.starts[d] {
			t.Errorf("D(%d) started at %d before C(%d) completed at %d", k, tr.starts[d], k, tr.ends[c])
		}
		if k < 4 {
			c2 := fmt.Sprintf("%d(%d)", cNum, k+1)
			if tr.ends[d] > tr.starts[c2] {
				t.Errorf("C(%d) started before D(%d) completed", k+1, k)
			}
		}
	}
}

func TestOuterParallelBarrier(t *testing.T) {
	// doall I { A } ; Z : Z must start only after every A(i) completed.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(3), func(b *loopir.B) {
			b.DoallLeaf("A", loopir.Const(4), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(70) })
		})
		b.DoallLeaf("Z", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(10) })
	})
	prog, _ := compileStd(t, nest)
	tr := newRecTracer()
	if _, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 5}),
		Sink:   tr,
	}); err != nil {
		t.Fatal(err)
	}
	zStart := tr.starts["2()"]
	for i := 1; i <= 3; i++ {
		if end := tr.ends[fmt.Sprintf("1(%d)", i)]; end > zStart {
			t.Errorf("Z started at %d before A(%d) completed at %d", zStart, i, end)
		}
	}
}

func TestEmptyFalseBranchSkips(t *testing.T) {
	// if(false) { F } ; H — the skip path through ENTER's EXIT call.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
		b.If("c", func(loopir.IVec) bool { return false }, func(b *loopir.B) {
			b.DoallLeaf("F", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
		}, nil)
		b.DoallLeaf("H", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
	})
	runBoth(t, nest, lowsched.SS{})
}

func TestEmptyFalseBranchAtProgramEnd(t *testing.T) {
	// The skipped IF is the final construct: the skip must reach the
	// root and set done.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
		b.If("c", func(loopir.IVec) bool { return false }, func(b *loopir.B) {
			b.DoallLeaf("F", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
		}, nil)
	})
	runBoth(t, nest, lowsched.SS{})
}

func TestSkipPropagatesThroughDeadBranch(t *testing.T) {
	// if(false) { X; Y } ; Z — the skip must chain through X's and Y's
	// guards and land on Z exactly once.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(1), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
		b.If("c", func(loopir.IVec) bool { return false }, func(b *loopir.B) {
			b.DoallLeaf("X", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
			b.DoallLeaf("Y", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
		}, nil)
		b.DoallLeaf("Z", loopir.Const(1), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
	})
	runBoth(t, nest, lowsched.SS{})
}

func TestNestedIfDispatch(t *testing.T) {
	// if c1 { if c2 { B } else { C } } else { E }, conditions depending on
	// the enclosing doall index: all three targets exercised.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(6), func(b *loopir.B) {
			b.If("c1", func(iv loopir.IVec) bool { return iv[0]%2 == 0 }, func(b *loopir.B) {
				b.If("c2", func(iv loopir.IVec) bool { return iv[0]%3 == 0 }, func(b *loopir.B) {
					b.DoallLeaf("B", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
				}, func(b *loopir.B) {
					b.DoallLeaf("C", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
				})
			}, func(b *loopir.B) {
				b.DoallLeaf("E", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
			})
		})
	})
	runBoth(t, nest, lowsched.SS{})
}

func TestZeroTripLeafInstances(t *testing.T) {
	// Triangular with zero-trip first instance.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(4), func(b *loopir.B) {
			b.DoallLeaf("T", loopir.BoundFn(func(iv loopir.IVec) int64 { return iv[0] - 1 }),
				func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
		})
		b.DoallLeaf("Z", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
	})
	runBoth(t, nest, lowsched.SS{})
}

func TestZeroTripStructuralLoop(t *testing.T) {
	// A structural doall with dynamic bound 0 between A and Z.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
		b.Doall("Zero", loopir.BoundFn(func(loopir.IVec) int64 { return 0 }), func(b *loopir.B) {
			b.DoallLeaf("Y", loopir.Const(3), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
		})
		b.DoallLeaf("Z", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
	})
	runBoth(t, nest, lowsched.SS{})
}

func TestWholeProgramZeroTrip(t *testing.T) {
	// Every instance is zero-trip: processor 0's prologue completes the
	// whole program; others must still terminate.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(0), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
	})
	prog, _ := compileStd(t, nest)
	rep, err := Run(prog, Config{Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 5})})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Iterations != 0 || rep.Stats.Instances != 0 {
		t.Errorf("zero-trip program ran work: %+v", rep.Stats)
	}
	if rep.Stats.ZeroTrips == 0 {
		t.Error("zero-trip not counted")
	}
}

func TestDoacrossOrdering(t *testing.T) {
	// dist-1 doacross: iteration j must observe j-1's side effect.
	for _, dist := range []int64{1, 2} {
		dist := dist
		t.Run(fmt.Sprintf("dist=%d", dist), func(t *testing.T) {
			const n = 60
			var mu sync.Mutex
			maxSeen := map[int64]int64{} // j -> value of latest predecessor observed
			nest := loopir.MustBuild(func(b *loopir.B) {
				b.DoacrossLeaf("W", loopir.Const(n), dist, func(e loopir.Env, iv loopir.IVec, j int64) {
					e.Work(20)
					mu.Lock()
					maxSeen[j] = j
					if j > dist {
						if _, ok := maxSeen[j-dist]; !ok {
							t.Errorf("iteration %d ran before %d", j, j-dist)
						}
					}
					mu.Unlock()
				})
			})
			runBoth(t, nest, lowsched.SS{})
		})
	}
}

func TestDoacrossManualOverlap(t *testing.T) {
	// Manual sync: post early, then do independent tail work. Verify it
	// runs correctly and faster (on virtual time) than auto sync.
	mk := func(manual bool) *loopir.Nest {
		return loopir.MustBuild(func(b *loopir.B) {
			iter := func(e loopir.Env, iv loopir.IVec, j int64) {
				e.AwaitDep()
				e.Work(10) // dependent head
				e.PostDep()
				e.Work(90) // independent tail, overlappable
			}
			if manual {
				b.DoacrossLeafManual("W", loopir.Const(40), 1, iter)
			} else {
				b.DoacrossLeaf("W", loopir.Const(40), 1, func(e loopir.Env, iv loopir.IVec, j int64) {
					e.Work(100)
				})
			}
		})
	}
	run := func(nest *loopir.Nest) machine.Time {
		prog, _ := compileStd(t, nest)
		rep, err := Run(prog, Config{Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 2})})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	manual, auto := run(mk(true)), run(mk(false))
	if manual >= auto {
		t.Errorf("manual overlap (%d) should beat auto full-body sync (%d)", manual, auto)
	}
}

func TestDeterministicOnVirtualMachine(t *testing.T) {
	run := func() (machine.Time, Snapshot) {
		prog, _ := compileStd(t, workload.Fig1(workload.DefaultFig1()))
		rep, err := Run(prog, Config{
			Engine: vmachine.New(vmachine.Config{P: 8, AccessCost: 7}),
			Scheme: lowsched.GSS{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan, rep.Stats
	}
	m1, s1 := run()
	m2, s2 := run()
	if m1 != m2 {
		t.Errorf("makespans differ: %d vs %d", m1, m2)
	}
	if s1 != s2 {
		t.Errorf("stats differ:\n%+v\n%+v", s1, s2)
	}
}

func TestSingleListPool(t *testing.T) {
	prog, ref := compileStd(t, workload.Fig1(workload.DefaultFig1()))
	tr := newRecTracer()
	rep, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 5}),
		Pool:   PoolSingleList,
		Sink:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstRef(t, prog, ref, tr, rep)
}

func TestDistributedPool(t *testing.T) {
	prog, ref := compileStd(t, workload.Fig1(workload.DefaultFig1()))
	tr := newRecTracer()
	rep, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 5}),
		Pool:   PoolDistributed,
		Sink:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstRef(t, prog, ref, tr, rep)
}

func TestDistributedPoolRealEngine(t *testing.T) {
	prog, ref := compileStd(t, workload.Fig1(workload.DefaultFig1()))
	tr := newRecTracer()
	rep, err := Run(prog, Config{
		Engine: machine.NewReal(machine.RealConfig{P: 8}),
		Pool:   PoolDistributed,
		Scheme: lowsched.GSS{},
		Sink:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstRef(t, prog, ref, tr, rep)
}

func TestPoolKindString(t *testing.T) {
	if PoolPerLoop.String() != "per-loop" || PoolSingleList.String() != "single-list" ||
		PoolDistributed.String() != "distributed" {
		t.Error("PoolKind names wrong")
	}
}

func TestDispatchCostCharged(t *testing.T) {
	prog, _ := compileStd(t, workload.Fig1(workload.DefaultFig1()))
	rep, err := Run(prog, Config{
		Engine:       vmachine.New(vmachine.Config{P: 4, AccessCost: 5}),
		DispatchCost: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.DispatchTime == 0 {
		t.Error("dispatch cost not charged")
	}
	prog2, _ := compileStd(t, workload.Fig1(workload.DefaultFig1()))
	rep2, err := Run(prog2, Config{Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 5})})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= rep2.Makespan {
		t.Errorf("dispatch cost should lengthen the run: %d vs %d", rep.Makespan, rep2.Makespan)
	}
}

func TestStaticSchemeRejectsDoacross(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoacrossLeaf("W", loopir.Const(10), 1, func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
	})
	prog, _ := compileStd(t, nest)
	_, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 2, AccessCost: 2}),
		Scheme: lowsched.StaticBlock{},
	})
	if err == nil {
		t.Fatal("static scheme accepted a Doacross program")
	}
}

func TestConfigErrors(t *testing.T) {
	prog, _ := compileStd(t, workload.Fig1(workload.DefaultFig1()))
	if _, err := Run(nil, Config{Engine: machine.NewReal(machine.RealConfig{P: 1})}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := Run(prog, Config{}); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestSingleProcessor(t *testing.T) {
	// P=1 must execute everything correctly (degenerate parallelism).
	prog, ref := compileStd(t, workload.Fig1(workload.DefaultFig1()))
	tr := newRecTracer()
	rep, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 1, AccessCost: 5}),
		Sink:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstRef(t, prog, ref, tr, rep)
}

func TestManyProcessorsFewIterations(t *testing.T) {
	// More processors than total work: everyone must still terminate.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
	})
	prog, ref := compileStd(t, nest)
	tr := newRecTracer()
	rep, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 16, AccessCost: 5}),
		Sink:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstRef(t, prog, ref, tr, rep)
}
