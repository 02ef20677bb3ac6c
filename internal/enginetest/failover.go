package enginetest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/trace"
)

// FailoverRestore is the cluster-failover half of the resume suite: it
// models a run whose owning node dies mid-leg. The run executes as a
// chain of periodic-snapshot legs (claim every k chunks, park a
// snapshot, continue); node death discards whatever the in-flight leg
// had done past the last parked snapshot, and the survivor restores
// from that snapshot and runs to completion. The contract, across
// schemes × batch factors:
//
//   - the surviving history — every completed leg plus the restored
//     remainder — executes exactly the uninterrupted run's iteration
//     multiset (the discarded partial leg's effects died with its node,
//     so they must not be counted or required);
//   - the restored run's cumulative totals land bit-exactly on the
//     uninterrupted run's (snapshots carry the statistics baseline);
//   - restoring the same snapshot twice is deterministic on the virtual
//     engine — two survivors racing a restore would compute the same
//     trajectory, which is what makes failover idempotent to observe.
func FailoverRestore(t *testing.T, name string, f Factory) {
	schemes := []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{},
		lowsched.FAC2{}, adapt.Auto{},
	}
	batches := []int{1, 2, 8}
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(6), func(b *loopir.B) {
			b.DoallLeaf("B", loopir.Const(16), work(10))
		})
	})
	_, pl, _ := compile(t, nest)
	const p = 4
	const k = 3 // snapshot period in chunk claims

	for _, s := range schemes {
		for _, batch := range batches {
			t.Run(fmt.Sprintf("%s/b=%d", s.Name(), batch), func(t *testing.T) {
				// Uninterrupted baseline.
				fullLog := trace.New()
				intr := machine.NewInterrupt()
				full, err := core.RunPlan(pl, core.Config{
					Engine: f(p, intr), Scheme: s, Pool: core.PoolSingleList,
					Sink: fullLog, Interrupt: intr, ClaimBatch: batch,
				})
				if err != nil {
					t.Fatalf("uninterrupted run: %v", err)
				}

				// Leg 1 completes and parks snapshot S1; leg 2 starts from S1
				// and parks S2 — the last restore point the journal holds.
				leg := func(restore *core.RunSnapshot, tr *trace.Log) *core.CheckpointedError {
					intr := machine.NewInterrupt()
					_, err := core.RunPlan(pl, core.Config{
						Engine: f(p, intr), Scheme: s, Pool: core.PoolSingleList,
						Sink: tr, Interrupt: intr, ClaimBatch: batch,
						Checkpoint: &core.CheckpointConfig{AfterChunks: k, Restore: restore},
					})
					var cke *core.CheckpointedError
					if !errors.As(err, &cke) {
						t.Fatalf("leg returned %v, want CheckpointedError", err)
					}
					return cke
				}
				leg1 := trace.New()
				s1 := leg(nil, leg1)
				leg2 := trace.New()
				s2 := leg(s1.Snapshot, leg2)

				// Leg 3 runs on the doomed node: its work past S2 is lost.
				// Running it at all (then discarding the trace) mirrors the
				// real failure — the dead node did execute those iterations.
				leg(s2.Snapshot, trace.New())

				// Failover: a survivor restores S2 and runs to completion.
				restoreFrom := func() (*core.Report, *trace.Log) {
					tr := trace.New()
					intr := machine.NewInterrupt()
					rep, err := core.RunPlan(pl, core.Config{
						Engine: f(p, intr), Scheme: s, Pool: core.PoolSingleList,
						Sink: tr, Interrupt: intr, ClaimBatch: batch,
						Checkpoint: &core.CheckpointConfig{Restore: s2.Snapshot},
					})
					if err != nil {
						t.Fatalf("failover restore: %v", err)
					}
					return rep, tr
				}
				rep, rest := restoreFrom()

				// Surviving history == uninterrupted multiset.
				want := iterMultiset(fullLog)
				got := iterMultiset(leg1)
				for key, n := range iterMultiset(leg2) {
					got[key] += n
				}
				for key, n := range iterMultiset(rest) {
					got[key] += n
				}
				if len(got) != len(want) {
					t.Errorf("surviving history covers %d iterations, uninterrupted run %d", len(got), len(want))
				}
				for key, n := range want {
					if got[key] != n {
						t.Errorf("iteration %s survives %d time(s), want %d", key, got[key], n)
					}
				}

				// Restored totals land on the uninterrupted run's exactly.
				fs, gs := full.Stats, rep.Stats
				if gs.Iterations != fs.Iterations || gs.Instances != fs.Instances ||
					gs.Enters != fs.Enters || gs.Exits != fs.Exits || gs.ZeroTrips != fs.ZeroTrips {
					t.Errorf("restored totals diverge:\nrestored      %+v\nuninterrupted %+v", gs, fs)
				}
				if _, auto := s.(adapt.Auto); !auto && gs.Chunks != fs.Chunks {
					t.Errorf("restored chunk trajectory %d, uninterrupted %d", gs.Chunks, fs.Chunks)
				}

				// Restore determinism: a second survivor computing the same
				// restore covers the identical iteration multiset; on the
				// virtual engine the whole statistics vector is bit-identical
				// (real-engine timing figures legitimately vary).
				rep2, rest2 := restoreFrom()
				if name == "virtual" && rep2.Stats != rep.Stats {
					t.Errorf("second restore diverged:\nfirst  %+v\nsecond %+v", rep.Stats, rep2.Stats)
				}
				m1, m2 := iterMultiset(rest), iterMultiset(rest2)
				if len(m1) != len(m2) {
					t.Errorf("restores execute %d vs %d distinct iterations", len(m1), len(m2))
				}
				for key, n := range m1 {
					if m2[key] != n {
						t.Errorf("restores disagree on iteration %s: %d vs %d", key, n, m2[key])
					}
				}
			})
		}
	}
}
