package enginetest

import (
	"errors"
	"fmt"
	"testing"

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
// contract structurally rather than statistically.
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
						Tracer:     log,
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
					if be.Snapshot != nil {
						t.Errorf("plain budgeted run carries a snapshot (no checkpoint seam configured)")
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
}

// BudgetResume extends the budget contract to the checkpoint seam: a
// budgeted run configured checkpointable must surface exhaustion with a
// resumable snapshot, and resuming it (without a budget) must complete
// the program with the exact uninterrupted iteration multiset — nothing
// lost at the truncated claim, nothing repeated. The suite asserts that
// at least one exhaustion left pending (claimed-but-unexecuted) ranges
// in the snapshot, so the truncation path cannot silently go untested.
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
					// Uninterrupted baseline.
					fullLog := trace.New()
					intr := machine.NewInterrupt()
					_, err := core.RunPlan(pl, core.Config{
						Engine: f(p, intr), Scheme: s, Tracer: fullLog,
						Interrupt: intr, ClaimBatch: batch,
					})
					if err != nil {
						t.Fatalf("uninterrupted run: %v", err)
					}
					ctx := refexec.Context{Nest: "budget-resume", Scheme: s.Name(), Engine: name}
					if err := fullLog.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
						t.Fatal(err)
					}

					// Part one: run out of budget with the checkpoint seam on.
					partLog := trace.New()
					intr = machine.NewInterrupt()
					_, err = core.RunPlan(pl, core.Config{
						Engine: f(p, intr), Scheme: s, Tracer: partLog,
						Interrupt: intr, ClaimBatch: batch,
						Budget:     &core.Budget{Iterations: B},
						Checkpoint: &core.CheckpointConfig{},
					})
					var be *core.BudgetExceededError
					if !errors.As(err, &be) {
						t.Fatalf("budgeted run returned %v, want BudgetExceededError", err)
					}
					if be.Snapshot == nil {
						t.Fatalf("checkpointable budgeted run carries no snapshot")
					}
					if be.Iterations != B {
						t.Errorf("consumed %d, want %d", be.Iterations, B)
					}
					for _, icb := range be.Snapshot.ICBs {
						if len(icb.Pending) > 0 {
							sawPending = true
						}
					}

					// Part two: resume without a budget, run to completion.
					restLog := trace.New()
					intr = machine.NewInterrupt()
					_, err = core.RunPlan(pl, core.Config{
						Engine: f(p, intr), Scheme: s, Tracer: restLog,
						Interrupt: intr, ClaimBatch: batch,
						Checkpoint: &core.CheckpointConfig{Restore: be.Snapshot},
					})
					if err != nil {
						t.Fatalf("resume: %v", err)
					}

					want := iterMultiset(fullLog)
					got := iterMultiset(partLog)
					for key, n := range iterMultiset(restLog) {
						got[key] += n
					}
					for key, n := range want {
						if got[key] != n {
							t.Errorf("iteration %s executed %d time(s) across the parts, want %d", key, got[key], n)
						}
					}
					for key := range got {
						if _, ok := want[key]; !ok {
							t.Errorf("parts executed %s, absent from the uninterrupted run", key)
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
