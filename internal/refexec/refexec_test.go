package refexec

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/loopir"
)

func std(t *testing.T, f func(b *loopir.B)) *loopir.Nest {
	t.Helper()
	nest, err := loopir.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	s, err := nest.Standardize()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunRequiresStandardized(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Stmt("s", func(loopir.Env, loopir.IVec) {})
	})
	if _, err := Run(nest); err == nil {
		t.Error("Run on raw nest should fail")
	}
}

func TestSingleLeaf(t *testing.T) {
	var iters []int64
	nest := std(t, func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(5), func(e loopir.Env, iv loopir.IVec, j int64) {
			iters = append(iters, j)
			e.Work(10)
		})
	})
	r, err := Run(nest)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Instances) != 1 || r.Instances[0].Key() != "A()" || r.Instances[0].Bound != 5 {
		t.Errorf("instances = %v", r.Instances)
	}
	if r.Iterations != 5 || r.TotalWork != 50 {
		t.Errorf("iterations=%d work=%d, want 5, 50", r.Iterations, r.TotalWork)
	}
	if fmt.Sprint(iters) != "[1 2 3 4 5]" {
		t.Errorf("iteration order = %v", iters)
	}
}

func TestNestedInstances(t *testing.T) {
	nest := std(t, func(b *loopir.B) {
		b.Doall("I", loopir.Const(2), func(b *loopir.B) {
			b.Doall("J", loopir.Const(2), func(b *loopir.B) {
				b.DoallLeaf("B", loopir.Const(3), func(e loopir.Env, iv loopir.IVec, j int64) {
					e.Work(1)
				})
			})
		})
	})
	r, err := Run(nest)
	if err != nil {
		t.Fatal(err)
	}
	keys := r.Keys()
	want := []string{"B(1,1)", "B(1,2)", "B(2,1)", "B(2,2)"}
	if len(keys) != len(want) {
		t.Fatalf("instances = %v, want %v", keys, want)
	}
	for _, k := range want {
		if keys[k] != 1 {
			t.Errorf("instance %s count = %d, want 1", k, keys[k])
		}
	}
	if r.Iterations != 12 {
		t.Errorf("iterations = %d, want 12", r.Iterations)
	}
}

func TestSerialOrdering(t *testing.T) {
	nest := std(t, func(b *loopir.B) {
		b.Serial("K", loopir.Const(3), func(b *loopir.B) {
			b.DoallLeaf("C", loopir.Const(1), func(loopir.Env, loopir.IVec, int64) {})
			b.DoallLeaf("D", loopir.Const(1), func(loopir.Env, loopir.IVec, int64) {})
		})
	})
	r, err := Run(nest)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, in := range r.Instances {
		order = append(order, in.Key())
	}
	want := "[C(1) D(1) C(2) D(2) C(3) D(3)]"
	if fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestIfBranches(t *testing.T) {
	nest := std(t, func(b *loopir.B) {
		b.Doall("I", loopir.Const(4), func(b *loopir.B) {
			b.If("even", func(iv loopir.IVec) bool { return iv[0]%2 == 0 },
				func(b *loopir.B) {
					b.DoallLeaf("F", loopir.Const(2), func(loopir.Env, loopir.IVec, int64) {})
				},
				func(b *loopir.B) {
					b.DoallLeaf("G", loopir.Const(2), func(loopir.Env, loopir.IVec, int64) {})
				})
		})
	})
	r, err := Run(nest)
	if err != nil {
		t.Fatal(err)
	}
	keys := r.Keys()
	for _, k := range []string{"F(2)", "F(4)", "G(1)", "G(3)"} {
		if keys[k] != 1 {
			t.Errorf("missing instance %s: %v", k, keys)
		}
	}
	if len(keys) != 4 {
		t.Errorf("instance set = %v", keys)
	}
}

func TestDynamicBounds(t *testing.T) {
	// Triangular: inner bound = outer index.
	nest := std(t, func(b *loopir.B) {
		b.Doall("I", loopir.Const(3), func(b *loopir.B) {
			b.DoallLeaf("T", loopir.BoundFn(func(iv loopir.IVec) int64 { return iv[0] }),
				func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
		})
	})
	r, err := Run(nest)
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations != 1+2+3 {
		t.Errorf("iterations = %d, want 6", r.Iterations)
	}
	bounds := map[string]int64{}
	for _, in := range r.Instances {
		bounds[in.Key()] = in.Bound
	}
	if bounds["T(1)"] != 1 || bounds["T(2)"] != 2 || bounds["T(3)"] != 3 {
		t.Errorf("bounds = %v", bounds)
	}
}

func TestZeroTripLoop(t *testing.T) {
	nest := std(t, func(b *loopir.B) {
		b.Doall("I", loopir.Const(2), func(b *loopir.B) {
			b.DoallLeaf("Z", loopir.BoundFn(func(iv loopir.IVec) int64 { return iv[0] - 1 }),
				func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
		})
	})
	r, err := Run(nest)
	if err != nil {
		t.Fatal(err)
	}
	// Instance Z(1) has bound 0 (recorded, no iterations); Z(2) has 1.
	if len(r.Instances) != 2 || r.Iterations != 1 {
		t.Errorf("instances=%v iterations=%d", r.Instances, r.Iterations)
	}
}

func TestDoacrossRunsInOrder(t *testing.T) {
	var order []int64
	nest := std(t, func(b *loopir.B) {
		b.DoacrossLeaf("W", loopir.Const(5), 1, func(e loopir.Env, iv loopir.IVec, j int64) {
			e.AwaitDep()
			order = append(order, j)
			e.PostDep()
		})
	})
	r, err := Run(nest)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3 4 5]" {
		t.Errorf("order = %v", order)
	}
	if r.Iterations != 5 {
		t.Errorf("iterations = %d", r.Iterations)
	}
}

func TestScalarLeafCountsOneIteration(t *testing.T) {
	ran := 0
	nest := std(t, func(b *loopir.B) {
		b.Stmt("s", func(e loopir.Env, iv loopir.IVec) { ran++; e.Work(3) })
	})
	r, err := Run(nest)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 || r.Iterations != 1 || r.TotalWork != 3 {
		t.Errorf("ran=%d iterations=%d work=%d", ran, r.Iterations, r.TotalWork)
	}
}

// TestRecordingAllocations: a recording of many instances allocates one
// slice and one slab, not a slice regrowth and a vector per instance.
func TestRecordingAllocations(t *testing.T) {
	nest := std(t, func(b *loopir.B) {
		b.Doall("I", loopir.Const(100), func(b *loopir.B) {
			b.Doall("J", loopir.Const(100), func(b *loopir.B) {
				b.DoallLeaf("B", loopir.Const(4), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(iv[0] + iv[1]) })
			})
		})
	})
	var r *Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if r, err = Run(nest); err != nil {
			t.Fatal(err)
		}
	})
	if len(r.Instances) != 10000 || r.Iterations != 40000 {
		t.Fatalf("recorded %d instances, %d iterations; want 10000, 40000", len(r.Instances), r.Iterations)
	}
	if in := r.Instances[101]; in.Key() != "B(2,2)" || in.Bound != 4 {
		t.Errorf("instance 101 = %v, want B(2,2) bound=4", in)
	}
	if allocs > 64 {
		t.Errorf("Run allocated %.0f objects for 10000 instances, want <= 64", allocs)
	}
}

// TestRecordingBytes: the recording is allocated once at its final size —
// 10 000 instances and their one-word index vectors, and little else —
// so a sequential reference run leaves the heap no garbage of its own.
func TestRecordingBytes(t *testing.T) {
	nest := std(t, func(b *loopir.B) {
		b.Doall("I", loopir.Const(10000), func(b *loopir.B) {
			b.DoallLeaf("B", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
		})
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Run(nest)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(len(r.Instances)) * uint64(unsafe.Sizeof(Instance{})+8)
	if got := after.TotalAlloc - before.TotalAlloc; got > want+want/10 {
		t.Errorf("Run allocated %d bytes for %d instances, want about %d", got, len(r.Instances), want)
	}
}
