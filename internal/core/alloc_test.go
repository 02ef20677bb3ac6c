package core

import (
	"testing"

	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/workload"
)

// serialDoall is a serial loop of outer innermost-Doall instances: each
// instance retires before the next activates, so every activation after
// the first can recycle (a structural-doall fan-out activates everything
// up front, and recycles only what completes meanwhile).
func serialDoall(outer, inner, grain int64) *loopir.Nest {
	return loopir.MustBuild(func(b *loopir.B) {
		b.Serial("T", loopir.Const(outer), func(b *loopir.B) {
			b.DoallLeaf("A", loopir.Const(inner), func(e loopir.Env, iv loopir.IVec, j int64) {
				e.Work(grain)
			})
		})
	})
}

// allocsForRun measures the average heap allocations of one real-engine
// execution of the nest (plan built once, outside the measurement — the
// steady state of a service running one compiled program repeatedly).
func allocsForRun(t *testing.T, nest *loopir.Nest, scheme lowsched.Scheme) float64 {
	t.Helper()
	pl, err := NewPlan(compileOnly(t, nest))
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		if _, err := RunPlan(pl, Config{
			Engine: machine.NewReal(machine.RealConfig{P: 4}),
			Scheme: scheme,
		}); err != nil {
			t.Error(err)
		}
	})
}

// TestAllocsSteadyState pins the real-engine steady-state allocation
// behavior:
//
//   - the iteration path allocates nothing — scaling a flat Doall 10x
//     must not move the per-run allocation count;
//   - the activation path recycles retired ICBs from the activating
//     worker's own freelist, so scaling the instance count 4x may only
//     add a constant number of allocations (warm-up blocks before the
//     first completions), not one-or-more per instance.
//
// The bounds are loose enough for runtime-internal allocation (goroutine
// stacks, timers) to vary between Go releases, but tight enough that any
// per-iteration or per-instance allocation reintroduced into the hot
// path fails immediately.
func TestAllocsSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	small := allocsForRun(t, workload.UniformDoall(2000, 20), lowsched.CSS{K: 16})
	large := allocsForRun(t, workload.UniformDoall(20000, 20), lowsched.CSS{K: 16})
	t.Logf("flat doall: %0.1f allocs at 2000 iters, %0.1f at 20000", small, large)
	if large > small+16 {
		t.Errorf("iteration path allocates: 10x iterations moved allocs/run %0.1f -> %0.1f", small, large)
	}
	// Absolute pin on the per-run setup cost (measured 42 after packing
	// the spine shards, the worker loc vectors and the engine's proc
	// structs into single backing arrays and hoisting the stop/abort
	// method-value closures onto the executor; was 69 before). The slack
	// covers runtime-internal variation between Go releases, not a
	// reintroduced per-layer allocation.
	const maxSetupAllocs = 50
	if small > maxSetupAllocs {
		t.Errorf("per-run setup allocates %0.1f times, want <= %d", small, maxSetupAllocs)
	}

	few := allocsForRun(t, serialDoall(50, 64, 30), lowsched.SS{})
	many := allocsForRun(t, serialDoall(200, 64, 30), lowsched.SS{})
	t.Logf("serial x doall: %0.1f allocs at 50 instances, %0.1f at 200", few, many)
	if many > few+64 {
		t.Errorf("activation path allocates per instance: 4x instances moved allocs/run %0.1f -> %0.1f", few, many)
	}
}
