// Package enginetest is the conformance suite for core.Engine
// implementations: any engine plugged into the execution kernel must
// pass it. The suite holds an engine to the kernel's expectations —
//
//   - exactly-once claiming: across schemes and task pools, every
//     iteration of every instance the sequential oracle records executes
//     exactly once (verified against refexec through a trace log);
//   - EXIT correctness on boundary shapes: bound-0 leaves, bound-0
//     structural loops, depth-1 nests and serial chains complete through
//     the EXIT walk without hanging or double-activating;
//   - preemption responsiveness: a tripped interrupt drains every
//     processor at its next preemption point and Run returns.
//
// Run the suite under -race for the real engine to also exercise the
// memory-ordering side of the contract (make verify-gates does).
package enginetest

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/trace"
)

// Factory builds the engine under test with p processors observing the
// given interrupt. The suite calls it once per scenario so engine state
// is never reused across runs.
type Factory func(p int, intr *machine.Interrupt) core.Engine

// Run exercises one engine implementation against the whole suite. name
// labels the engine in diagnostics (it is also passed to the oracle's
// mismatch dump).
func Run(t *testing.T, name string, f Factory) {
	t.Run("ExactlyOnce", func(t *testing.T) { exactlyOnce(t, name, f) })
	t.Run("BoundaryShapes", func(t *testing.T) { boundaryShapes(t, name, f) })
	t.Run("Cancellation", func(t *testing.T) { cancellation(t, name, f) })
}

func work(c int64) loopir.BodyFn {
	return func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(c) }
}

// shapes returns the nests every engine must execute correctly, keyed by
// a diagnostic label. They deliberately include the EXIT-walk boundary
// cases: a depth-1 nest (the walk climbs straight past the root), bound-0
// leaves and structural loops (vacuous completion at ENTER time), and a
// serial chain (completions drive successive activations).
func shapes() map[string]*loopir.Nest {
	return map[string]*loopir.Nest{
		"depth1": loopir.MustBuild(func(b *loopir.B) {
			b.DoallLeaf("A", loopir.Const(40), work(5))
		}),
		"nested": loopir.MustBuild(func(b *loopir.B) {
			b.Doall("I", loopir.Const(3), func(b *loopir.B) {
				b.DoallLeaf("B", loopir.Const(8), work(3))
			})
		}),
		"bound0-leaf": loopir.MustBuild(func(b *loopir.B) {
			b.DoallLeaf("Z", loopir.Const(0), work(1))
			b.DoallLeaf("C", loopir.Const(6), work(2))
		}),
		"bound0-structural": loopir.MustBuild(func(b *loopir.B) {
			b.Doall("I", loopir.Const(0), func(b *loopir.B) {
				b.DoallLeaf("Z", loopir.Const(5), work(1))
			})
			b.DoallLeaf("D", loopir.Const(4), work(2))
		}),
		"serial-chain": loopir.MustBuild(func(b *loopir.B) {
			b.Serial("K", loopir.Const(3), func(b *loopir.B) {
				b.DoallLeaf("E", loopir.Const(5), work(4))
				b.DoallLeaf("F", loopir.Const(5), work(4))
			})
		}),
		"doacross": loopir.MustBuild(func(b *loopir.B) {
			b.DoacrossLeaf("W", loopir.Const(12), 1, work(3))
		}),
	}
}

// compile standardizes a nest and derives the program, plan and oracle.
func compile(t *testing.T, nest *loopir.Nest) (*descr.Program, *core.Plan, *refexec.Result) {
	t.Helper()
	std, err := nest.Standardize()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := descr.Compile(std)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPlan(prog)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refexec.Run(std)
	if err != nil {
		t.Fatal(err)
	}
	return prog, pl, ref
}

// exactlyOnce runs every shape across schemes, pools and processor
// counts, verifying each execution against the sequential oracle.
func exactlyOnce(t *testing.T, name string, f Factory) {
	schemes := []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{},
		lowsched.FAC2{}, lowsched.AF{CV: 50}, lowsched.TFSS{},
		adapt.Auto{},
	}
	pools := []core.PoolKind{core.PoolPerLoop, core.PoolSingleList, core.PoolDistributed}
	for label, nest := range shapes() {
		prog, pl, ref := compile(t, nest)
		for _, s := range schemes {
			for _, pk := range pools {
				for _, p := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/%s/P=%d", label, s.Name(), pk, p), func(t *testing.T) {
						intr := machine.NewInterrupt()
						log := trace.New()
						rep, err := core.RunPlan(pl, core.Config{
							Engine:    f(p, intr),
							Scheme:    s,
							Pool:      pk,
							Sink:      log,
							Interrupt: intr,
						})
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						if rep.Stats.Iterations != ref.Iterations {
							t.Errorf("iterations = %d, want %d", rep.Stats.Iterations, ref.Iterations)
						}
						ctx := refexec.Context{Nest: label, Scheme: s.Name(), Pool: pk.String(), Engine: name}
						if err := log.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
							t.Error(err)
						}
					})
				}
			}
		}
	}
}

// boundaryShapes pins the EXIT-walk outcomes that don't need a full
// oracle comparison: vacuous completions are counted as zero-trips, and
// the run terminates (done, pool empty) for every shape even with more
// processors than work.
func boundaryShapes(t *testing.T, name string, f Factory) {
	for label, nest := range shapes() {
		_, pl, ref := compile(t, nest)
		t.Run(label, func(t *testing.T) {
			intr := machine.NewInterrupt()
			rep, err := core.RunPlan(pl, core.Config{Engine: f(8, intr), Interrupt: intr})
			if err != nil {
				t.Fatalf("%s on %s: %v", label, name, err)
			}
			if rep.Stats.Iterations != ref.Iterations {
				t.Errorf("iterations = %d, want %d", rep.Stats.Iterations, ref.Iterations)
			}
			// Every oracle instance with bound > 0 became an ICB.
			want := int64(0)
			for _, in := range ref.Instances {
				if in.Bound > 0 {
					want++
				}
			}
			if rep.Stats.Instances != want {
				t.Errorf("instances = %d, want %d", rep.Stats.Instances, want)
			}
		})
	}
}

// cancellation verifies preemption responsiveness: an interrupt tripped
// mid-run (here, from inside an iteration body) must drain every
// processor at its next preemption point; Run must return the trip cause
// promptly rather than completing or hanging.
func cancellation(t *testing.T, name string, f Factory) {
	errStop := fmt.Errorf("enginetest: tripped on purpose")
	intr := machine.NewInterrupt()
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("L", loopir.Const(1_000_000), func(e loopir.Env, iv loopir.IVec, j int64) {
			if j == 1000 {
				intr.Trip(errStop)
			}
			e.Work(2)
		})
	})
	_, pl, _ := compile(t, nest)

	type outcome struct {
		rep *core.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := core.RunPlan(pl, core.Config{Engine: f(4, intr), Interrupt: intr})
		done <- outcome{rep, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatalf("%s: tripped run completed with report %+v", name, o.rep)
		}
		if !errors.Is(o.err, errStop) {
			t.Fatalf("%s: tripped run returned %v, want the trip cause", name, o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: engine did not drain within 30s of the interrupt", name)
	}
}
