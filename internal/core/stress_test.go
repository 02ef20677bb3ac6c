package core

import (
	"fmt"
	"testing"

	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// TestManyLeavesMultiwordSW builds a program with more than 64 innermost
// parallel loops, forcing the SW control word across word boundaries.
func TestManyLeavesMultiwordSW(t *testing.T) {
	const leaves = 70
	nest := loopir.MustBuild(func(b *loopir.B) {
		for i := 0; i < leaves; i++ {
			b.DoallLeaf(fmt.Sprintf("L%02d", i), loopir.Const(3),
				func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(10) })
		}
	})
	prog, ref := compileStd(t, nest)
	if prog.M != leaves {
		t.Fatalf("M = %d, want %d", prog.M, leaves)
	}
	tr := newRecTracer()
	rep, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 8, AccessCost: 3}),
		Sink:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstRef(t, prog, ref, tr, rep)
}

// TestDeepNest exercises six levels of mixed nesting with dynamic bounds.
func TestDeepNest(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("L1", loopir.Const(2), func(b *loopir.B) {
			b.Serial("L2", loopir.Const(2), func(b *loopir.B) {
				b.Doall("L3", loopir.BoundFn(func(iv loopir.IVec) int64 { return iv[1] + 1 }), func(b *loopir.B) {
					b.Serial("L4", loopir.Const(2), func(b *loopir.B) {
						b.Doall("L5", loopir.Const(2), func(b *loopir.B) {
							b.DoallLeaf("L6", loopir.BoundFn(func(iv loopir.IVec) int64 {
								return (iv[0] + iv[4]) % 3
							}), func(e loopir.Env, iv loopir.IVec, j int64) {
								e.Work(7)
							})
						})
					})
				})
			})
		})
	})
	runBoth(t, nest, lowsched.SS{})
}

// TestSerialChainOfDepth exercises a tower of serial loops ending in a
// parallel leaf — every activation travels the full EXIT/ENTER path.
func TestSerialChainOfDepth(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Serial("S1", loopir.Const(3), func(b *loopir.B) {
			b.Serial("S2", loopir.Const(3), func(b *loopir.B) {
				b.Serial("S3", loopir.Const(3), func(b *loopir.B) {
					b.DoallLeaf("W", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) {
						e.Work(5)
					})
				})
			})
		})
	})
	rep, _ := runBoth(t, nest, lowsched.SS{})
	if rep.Stats.Instances != 27 {
		t.Errorf("instances = %d, want 27", rep.Stats.Instances)
	}
}

// TestWideFanOut activates hundreds of instances from a single completion.
func TestWideFanOut(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("SEED", loopir.Const(1), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
		b.Doall("F1", loopir.Const(16), func(b *loopir.B) {
			b.Doall("F2", loopir.Const(16), func(b *loopir.B) {
				b.DoallLeaf("W", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) {
					e.Work(3)
				})
			})
		})
	})
	prog, ref := compileStd(t, nest)
	tr := newRecTracer()
	rep, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 16, AccessCost: 2}),
		Sink:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstRef(t, prog, ref, tr, rep)
	if rep.Stats.Instances != 257 {
		t.Errorf("instances = %d, want 257", rep.Stats.Instances)
	}
}

// TestCrossEngineEquivalence verifies the real and virtual engines execute
// the same instance multiset for a batch of random programs under every
// scheme (stronger versions run in the property tests; this one focuses
// the comparison).
func TestCrossEngineEquivalence(t *testing.T) {
	for seed := int64(5000); seed < 5030; seed++ {
		nest := workload.Random(seed, workload.DefaultRandConfig())
		prog, ref := compileStd(t, nest)
		for _, mk := range []func() machine.Engine{
			func() machine.Engine { return vmachine.New(vmachine.Config{P: 5, AccessCost: 4}) },
			func() machine.Engine { return machine.NewReal(machine.RealConfig{P: 5}) },
		} {
			tr := newRecTracer()
			rep, err := Run(prog, Config{Engine: mk(), Scheme: lowsched.TSS{}, Sink: tr})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			verifyAgainstRef(t, prog, ref, tr, rep)
		}
	}
}

// TestDoacrossInDeepNest runs Doacross instances nested under parallel and
// serial loops (many concurrent dependence chains).
func TestDoacrossInDeepNest(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(4), func(b *loopir.B) {
			b.Serial("K", loopir.Const(2), func(b *loopir.B) {
				b.DoacrossLeaf("W", loopir.Const(12), 1, func(e loopir.Env, iv loopir.IVec, j int64) {
					e.Work(15)
				})
			})
		})
	})
	rep, _ := runBoth(t, nest, lowsched.SS{})
	if rep.Stats.Instances != 8 {
		t.Errorf("instances = %d, want 8", rep.Stats.Instances)
	}
}

// TestRepeatedRunsOnSameProgram reuses one compiled program across many
// runs (fresh engines): per-run state must not leak.
func TestRepeatedRunsOnSameProgram(t *testing.T) {
	prog, ref := compileStd(t, workload.Fig1(workload.DefaultFig1()))
	var first machine.Time
	for i := 0; i < 5; i++ {
		tr := newRecTracer()
		rep, err := Run(prog, Config{
			Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 5}),
			Sink:   tr,
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		verifyAgainstRef(t, prog, ref, tr, rep)
		if i == 0 {
			first = rep.Makespan
		} else if rep.Makespan != first {
			t.Fatalf("run %d makespan %d != first %d (state leak?)", i, rep.Makespan, first)
		}
	}
}

// TestGuardsSeeCorrectIndexes puts IFs at two different levels whose
// conditions check their index vector lengths and values.
func TestGuardsSeeCorrectIndexes(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.If("top", func(iv loopir.IVec) bool {
			if len(iv) != 0 {
				t.Errorf("top-level guard got iv %v, want empty", iv)
			}
			return true
		}, func(b *loopir.B) {
			b.Doall("I", loopir.Const(3), func(b *loopir.B) {
				b.If("inner", func(iv loopir.IVec) bool {
					if len(iv) != 1 || iv[0] < 1 || iv[0] > 3 {
						t.Errorf("inner guard got iv %v", iv)
					}
					return iv[0] != 2
				}, func(b *loopir.B) {
					b.DoallLeaf("W", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) {
						e.Work(1)
					})
				}, nil)
			})
		}, nil)
		b.DoallLeaf("Z", loopir.Const(1), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
	})
	runBoth(t, nest, lowsched.SS{})
}

// TestHugeInstanceSmallPool runs one instance with a large bound across
// many processors (low-level path dominates).
func TestHugeInstanceSmallPool(t *testing.T) {
	const bound = 20000
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("BIG", loopir.Const(bound), func(e loopir.Env, iv loopir.IVec, j int64) {
			e.Work(1)
		})
	})
	prog, _ := compileStd(t, nest)
	rep, err := Run(prog, Config{
		Engine: machine.NewReal(machine.RealConfig{P: 8}),
		Scheme: lowsched.CSS{K: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Iterations != bound {
		t.Errorf("iterations = %d, want %d", rep.Stats.Iterations, bound)
	}
}
