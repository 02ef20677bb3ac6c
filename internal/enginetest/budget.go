package enginetest

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/trace"
)

// Budgets is the gas-meter half of the conformance suite: with an
// iteration budget B on the claim path, a run must execute exactly
// min(total iterations, B) iterations — the oracle-predicted stop point
// — on every scheme and batch factor, because the crossing claim
// truncates to its allowed prefix and records the remainder pending.
// Every executed iteration must still be exactly-once and a member of
// the sequential oracle's multiset. A budget at or above the total must
// not perturb the run at all: same report, same iteration count, and
// (checked separately below) the same virtual-time makespan as a run
// with no budget configured, pinning the meter's zero-cost-when-idle
// contract structurally rather than statistically. Two more rows cover
// the engine-time ceiling (budgetTime) and a checkpoint request reaching
// a metered leaseholder (budgetedLeaseCheckpoint).
func Budgets(t *testing.T, name string, f Factory) {
	schemes := []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{}, lowsched.TFSS{},
	}
	batches := []int{1, 8}
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(3), func(b *loopir.B) {
			b.DoallLeaf("B", loopir.Const(16), work(7))
		})
	})
	prog, pl, ref := compile(t, nest)
	total := ref.Iterations // 48

	budgets := []int64{1, 5, 17, total - 1, total, total + 25}
	for _, s := range schemes {
		for _, batch := range batches {
			for _, B := range budgets {
				t.Run(fmt.Sprintf("%s/b=%d/B=%d", s.Name(), batch, B), func(t *testing.T) {
					intr := machine.NewInterrupt()
					log := trace.New()
					rep, err := core.RunPlan(pl, core.Config{
						Engine:     f(4, intr),
						Scheme:     s,
						Interrupt:  intr,
						Sink:       log,
						ClaimBatch: batch,
						Budget:     &core.Budget{Iterations: B},
					})
					var got int64
					for _, n := range iterMultiset(log) {
						got += int64(n)
					}
					if B >= total {
						// Enough budget: the run completes untouched.
						if err != nil {
							t.Fatalf("budgeted run (B=%d >= %d) failed: %v", B, total, err)
						}
						if rep.Stats.Iterations != total {
							t.Errorf("iterations = %d, want %d", rep.Stats.Iterations, total)
						}
						ctx := refexec.Context{Nest: "budget", Scheme: s.Name(), Engine: name}
						if err := log.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
							t.Error(err)
						}
						return
					}
					// Exhaustion: typed error, oracle-exact stop point.
					var be *core.BudgetExceededError
					if !errors.As(err, &be) {
						t.Fatalf("run returned %v, want BudgetExceededError", err)
					}
					if !errors.Is(err, core.ErrBudgetExceeded) {
						t.Errorf("error does not match ErrBudgetExceeded")
					}
					if be.Iterations != B {
						t.Errorf("consumed %d iterations, want the whole budget %d", be.Iterations, B)
					}
					if be.Snapshot == nil {
						t.Errorf("budgeted %s run carries no snapshot (a cursor scheme can pause)", s.Name())
					}
					if got != B {
						t.Errorf("executed %d iterations, want exactly the budget %d", got, B)
					}
					// Every executed iteration is exactly-once.
					for key, n := range iterMultiset(log) {
						if n != 1 {
							t.Errorf("iteration %s executed %d times", key, n)
						}
					}
				})
			}
		}
	}
	t.Run("Time", func(t *testing.T) { budgetTime(t, name, f) })
	t.Run("LeaseCheckpoint", func(t *testing.T) { budgetedLeaseCheckpoint(t, name, f) })
}

// budgetTime is the engine-time half of Budgets. Once a processor's
// clock reaches the ceiling it starts no further chunk, so the run returns
// a BudgetExceededError whose Elapsed is at least the ceiling and which
// overshoots it by at most the chunk each processor had already started —
// at any batch factor, because the slices of a held lease are chunks the
// worker has not started (they travel in the snapshot as pending ranges).
// The overshoot is asserted on the trace's own clock readings, which are
// the ones the ceiling is compared with: per processor, no more than one
// chunk's iterations begin at or after the ceiling. The resumed run must
// complete the uninterrupted run's iteration multiset.
func budgetTime(t *testing.T, name string, f Factory) {
	const (
		p       = 4
		grain   = 20_000 // engine time one iteration takes, at least
		ceiling = 10*grain + grain/2
	)
	// The body costs grain on whichever clock the engine keeps: grain units
	// of accounted work, and grain nanoseconds of the host's time.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(3), func(b *loopir.B) {
			b.DoallLeaf("B", loopir.Const(80), func(e loopir.Env, iv loopir.IVec, j int64) {
				e.Work(grain)
				for t0 := time.Now(); time.Since(t0) < grain; {
				}
			})
		})
	})
	prog, pl, ref := compile(t, nest)
	for _, s := range []struct {
		scheme lowsched.Scheme
		chunk  int
	}{{lowsched.SS{}, 1}, {lowsched.CSS{K: 3}, 3}} {
		for _, batch := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/b=%d", s.scheme.Name(), batch), func(t *testing.T) {
				ctx := refexec.Context{Nest: "budget-time", Scheme: s.scheme.Name(), Engine: name}
				r := resumeLegs(t, f, p, prog, pl, ref, ctx, core.Config{Scheme: s.scheme, ClaimBatch: batch},
					func(cfg *core.Config) {
						cfg.Budget = &core.Budget{Time: ceiling}
						cfg.Checkpoint = &core.CheckpointConfig{}
					})
				var be *core.BudgetExceededError
				if !errors.As(r.pause, &be) {
					t.Fatalf("run returned %v, want BudgetExceededError", r.pause)
				}
				if be.Elapsed < ceiling {
					t.Errorf("paused at engine time %d, before the ceiling %d", be.Elapsed, ceiling)
				}
				late := make([]int, p)
				for _, e := range r.part.Events() {
					if e.Kind == trace.EvIterStart && e.At >= ceiling {
						late[e.Proc]++
					}
				}
				for proc, n := range late {
					if n > s.chunk {
						t.Errorf("processor %d began %d iteration(s) at or after the ceiling, want at most one chunk's %d", proc, n, s.chunk)
					}
				}
			})
		}
	}
}

// budgetedLeaseCheckpoint pins that the iteration meter does not change
// when a checkpoint request is honoured: a metered worker holding a lease
// pauses at its next claim boundary — between two slices — like an
// unmetered one, leaving the slices it had not started pending, and the
// resumed run executes them exactly once.
func budgetedLeaseCheckpoint(t *testing.T, name string, f Factory) {
	const p, n, batch, at = 4, 64, 8, 2 // iteration at is the second slice of the lease [1, batch]
	var ck core.Checkpointer            // the interrupted leg's executor, once it has started
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(n), func(e loopir.Env, iv loopir.IVec, j int64) {
			e.Work(5)
			if j == at && ck != nil {
				ck.RequestCheckpoint()
			}
		})
	})
	prog, pl, ref := compile(t, nest)
	ctx := refexec.Context{Nest: "budgeted-lease-checkpoint", Scheme: "SS", Engine: name}
	r := resumeLegs(t, f, p, prog, pl, ref, ctx,
		core.Config{Scheme: lowsched.SS{}, ClaimBatch: batch, Budget: &core.Budget{Iterations: 1 << 40}},
		func(cfg *core.Config) { cfg.OnStart = func(pr core.Probe) { ck = pr.(core.Checkpointer) } })
	if !errors.Is(r.pause, core.ErrCheckpointed) {
		t.Fatalf("run returned %v, want CheckpointedError", r.pause)
	}
	for _, e := range r.part.Events() {
		if e.Kind == trace.EvIterStart && e.A > at && e.A <= batch {
			t.Errorf("iteration %d ran after the request: the lease's holder did not pause before its end", e.A)
		}
	}
	var pending int64
	for _, icb := range r.snap.ICBs {
		for _, rg := range icb.Pending {
			pending += rg.Hi - rg.Lo + 1
		}
	}
	if pending < batch-at {
		t.Errorf("snapshot carries %d pending iteration(s), want at least the requesting lease's %d", pending, batch-at)
	}
}

// BudgetResume extends the budget contract to the checkpoint seam: a
// budgeted run of a cursor scheme, with no checkpoint option, must
// surface exhaustion with a resumable snapshot, and resuming it (without
// a budget) must complete the program with the exact uninterrupted
// iteration multiset — nothing lost at the truncated claim, nothing
// repeated. The suite asserts that at least one exhaustion left pending
// (claimed-but-unexecuted) ranges in the snapshot, so the truncation
// path cannot silently go untested.
func BudgetResume(t *testing.T, name string, f Factory) {
	schemes := []lowsched.Scheme{lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{}}
	batches := []int{1, 8}
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(4), func(b *loopir.B) {
			b.DoallLeaf("B", loopir.Const(12), work(9))
		})
	})
	prog, pl, ref := compile(t, nest)
	const p = 4

	sawPending := false
	for _, s := range schemes {
		for _, batch := range batches {
			for _, B := range []int64{7, 23} {
				t.Run(fmt.Sprintf("%s/b=%d/B=%d", s.Name(), batch, B), func(t *testing.T) {
					// Run out of budget, resume without one.
					ctx := refexec.Context{Nest: "budget-resume", Scheme: s.Name(), Engine: name}
					r := resumeLegs(t, f, p, prog, pl, ref, ctx, core.Config{Scheme: s, ClaimBatch: batch},
						func(cfg *core.Config) { cfg.Budget = &core.Budget{Iterations: B} })
					var be *core.BudgetExceededError
					if !errors.As(r.pause, &be) {
						t.Fatalf("budgeted run returned %v, want BudgetExceededError", r.pause)
					}
					if be.Iterations != B {
						t.Errorf("consumed %d, want %d", be.Iterations, B)
					}
					for _, icb := range r.snap.ICBs {
						if len(icb.Pending) > 0 {
							sawPending = true
						}
					}
				})
			}
		}
	}
	if !sawPending {
		t.Errorf("no exhaustion in the matrix left pending ranges; the truncated-claim path went unexercised")
	}
}

// BudgetIdentity pins the zero-cost-when-unset contract on the
// deterministic engine: a nil budget, a zero budget and an
// over-provisioned budget must all produce the identical run — same
// makespan, same stats — because the meter charges no machine time.
// (make verify-gates checks the same property at the repository level:
// the whole registry, no budget set, against the committed baseline.)
func BudgetIdentity(t *testing.T, name string, f Factory) {
	_, pl, _ := compile(t, loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(3), func(b *loopir.B) {
			b.DoallLeaf("B", loopir.Const(16), work(7))
		})
	}))
	run := func(bud *core.Budget, batch int) *core.Report {
		t.Helper()
		intr := machine.NewInterrupt()
		rep, err := core.RunPlan(pl, core.Config{
			Engine: f(4, intr), Scheme: lowsched.GSS{}, Interrupt: intr,
			ClaimBatch: batch, Budget: bud,
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep
	}
	for _, batch := range []int{1, 8} {
		base := run(nil, batch)
		for label, bud := range map[string]*core.Budget{
			"zero":  {},
			"ample": {Iterations: 1 << 40, Time: 1 << 50},
		} {
			got := run(bud, batch)
			if got.Makespan != base.Makespan {
				t.Errorf("b=%d %s budget: makespan %d, unbudgeted %d", batch, label, got.Makespan, base.Makespan)
			}
			if got.Stats != base.Stats {
				t.Errorf("b=%d %s budget: stats diverge from the unbudgeted run", batch, label)
			}
		}
	}
}
