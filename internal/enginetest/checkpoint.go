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
	"repro/internal/refexec"
	"repro/internal/trace"
)

// CheckpointResume is the resume-conformance half of the suite: for
// every checkpointable scheme and task pool, a run paused after k chunk
// claims and resumed from its snapshot must be indistinguishable from
// an uninterrupted run — the union of the two parts' iteration
// multisets equals the full run's, and the resumed run's cumulative
// statistics land on exactly the uninterrupted totals. On the
// deterministic virtual engine this is bit-identity of the scheduling
// trajectory, the property the journal/failover story depends on.
func CheckpointResume(t *testing.T, name string, f Factory) {
	schemes := []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{},
		lowsched.FAC2{}, adapt.Auto{},
	}
	pools := []core.PoolKind{core.PoolPerLoop, core.PoolSingleList, core.PoolDistributed}
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(6), func(b *loopir.B) {
			b.DoallLeaf("B", loopir.Const(16), work(10))
		})
	})
	prog, pl, ref := compile(t, nest)
	const p = 4

	for _, s := range schemes {
		for _, pk := range pools {
			for _, k := range []int64{2, 5} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", s.Name(), pk, k), func(t *testing.T) {
					// Uninterrupted baseline.
					fullLog := trace.New()
					intr := machine.NewInterrupt()
					full, err := core.RunPlan(pl, core.Config{
						Engine: f(p, intr), Scheme: s, Pool: pk,
						Tracer: fullLog, Interrupt: intr,
					})
					if err != nil {
						t.Fatalf("uninterrupted run: %v", err)
					}
					ctx := refexec.Context{Nest: "resume", Scheme: s.Name(), Pool: pk.String(), Engine: name}
					if err := fullLog.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
						t.Fatal(err)
					}

					// Part one: pause after k chunk claims.
					partLog := trace.New()
					intr = machine.NewInterrupt()
					_, err = core.RunPlan(pl, core.Config{
						Engine: f(p, intr), Scheme: s, Pool: pk,
						Tracer: partLog, Interrupt: intr,
						Checkpoint: &core.CheckpointConfig{AfterChunks: k},
					})
					var cke *core.CheckpointedError
					if !errors.As(err, &cke) {
						t.Fatalf("checkpoint run returned %v, want CheckpointedError", err)
					}

					// Part two: resume from the snapshot on a fresh engine.
					restLog := trace.New()
					intr = machine.NewInterrupt()
					rep, err := core.RunPlan(pl, core.Config{
						Engine: f(p, intr), Scheme: s, Pool: pk,
						Tracer: restLog, Interrupt: intr,
						Checkpoint: &core.CheckpointConfig{Restore: cke.Snapshot},
					})
					if err != nil {
						t.Fatalf("resume: %v", err)
					}

					// The two parts together execute exactly the uninterrupted
					// run's iteration multiset — nothing lost, nothing doubled.
					want := iterMultiset(fullLog)
					got := iterMultiset(partLog)
					for key, n := range iterMultiset(restLog) {
						got[key] += n
					}
					if len(got) != len(want) {
						t.Errorf("combined parts cover %d iterations, uninterrupted run %d", len(got), len(want))
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

					// Trajectory: the resumed run's cumulative statistics are
					// seeded from the snapshot, so its final totals must land
					// exactly on the uninterrupted run's.
					fs, gs := full.Stats, rep.Stats
					if gs.Iterations != fs.Iterations || gs.Instances != fs.Instances ||
						gs.Enters != fs.Enters || gs.Exits != fs.Exits || gs.ZeroTrips != fs.ZeroTrips {
						t.Errorf("resumed totals diverge:\nresumed       %+v\nuninterrupted %+v", gs, fs)
					}
					// The adaptive policy re-fits its model per part, so its
					// chunking — though still exactly-once — may legitimately
					// differ; every static scheme must reproduce it exactly.
					if _, auto := s.(adapt.Auto); !auto && gs.Chunks != fs.Chunks {
						t.Errorf("resumed chunk trajectory %d, uninterrupted %d", gs.Chunks, fs.Chunks)
					}
				})
			}
		}
	}
}

// iterMultiset folds a trace into iteration-execution counts keyed by
// (loop, ivec, j).
func iterMultiset(l *trace.Log) map[string]int {
	m := map[string]int{}
	for _, e := range l.Events() {
		if e.Kind == trace.EvIterStart {
			m[fmt.Sprintf("%d%v#%d", e.Loop, e.IVec, e.J)]++
		}
	}
	return m
}

// ExhaustedCheckpointResume pins the snapshot of an instance whose cursor
// is already past its bound while leased iterations are still pending:
// one lease covers the whole instance, the other holders' failed claims
// push the cursor on, and the claim-k pause lands while the leaseholder
// is mid-lease. The snapshot must record the cursor the final successful
// claim left — not the word the failed claims raced it to — and resume
// exactly-once; so must a snapshot whose cursor does carry failed claims'
// strides (restore reads any word past the bound as exhausted).
func ExhaustedCheckpointResume(t *testing.T, name string, f Factory) {
	const (
		p, batch = 8, 8
		bound    = 5
		settled  = 1 + batch // the cursor chain 1, 1+batch, … leaves this word past the bound
	)
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(12), func(b *loopir.B) {
			b.DoallLeaf("B", loopir.Const(bound), work(10))
		})
	})
	prog, pl, ref := compile(t, nest)
	run := func(ck *core.CheckpointConfig) (*trace.Log, error) {
		log := trace.New()
		intr := machine.NewInterrupt()
		_, err := core.RunPlan(pl, core.Config{
			Engine: f(p, intr), Scheme: lowsched.SS{}, Tracer: log,
			Interrupt: intr, ClaimBatch: batch, Checkpoint: ck,
		})
		return log, err
	}
	resume := func(t *testing.T, part *trace.Log, snap *core.RunSnapshot) {
		t.Helper()
		rest, err := run(&core.CheckpointConfig{Restore: snap})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		got := iterMultiset(part)
		for key, n := range iterMultiset(rest) {
			got[key] += n
		}
		if int64(len(got)) != ref.Iterations {
			t.Errorf("the two parts cover %d iterations, the oracle %d", len(got), ref.Iterations)
		}
		for key, n := range got {
			if n != 1 {
				t.Errorf("iteration %s executed %d times across the parts", key, n)
			}
		}
	}

	full, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := refexec.Context{Nest: "exhausted-resume", Scheme: "SS", Pool: core.PoolPerLoop.String(), Engine: name}
	if err := full.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
		t.Fatal(err)
	}

	sawExhausted := false
	for k := int64(1); k <= ref.Iterations; k++ {
		part, err := run(&core.CheckpointConfig{AfterChunks: k})
		var cke *core.CheckpointedError
		if !errors.As(err, &cke) {
			t.Fatalf("k=%d: checkpoint run returned %v, want CheckpointedError", k, err)
		}
		snap := cke.Snapshot
		exhausted := -1
		for i, icb := range snap.ICBs {
			if icb.Cursor <= icb.Bound {
				continue
			}
			exhausted = i
			if icb.Cursor != settled {
				t.Errorf("k=%d: exhausted instance %v recorded cursor %d, want %d", k, icb.IVec, icb.Cursor, settled)
			}
			if len(icb.Pending) == 0 {
				t.Errorf("k=%d: exhausted instance %v is live with nothing pending", k, icb.IVec)
			}
		}
		if exhausted < 0 {
			continue
		}
		sawExhausted = true
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { resume(t, part, snap) })
		t.Run(fmt.Sprintf("k=%d/overshot", k), func(t *testing.T) {
			over := *snap
			over.ICBs = append([]core.ICBSnapshot(nil), snap.ICBs...)
			over.ICBs[exhausted].Cursor += 3 * batch
			resume(t, part, &over)
		})
	}
	if !sawExhausted {
		t.Error("no claim-k pause caught an instance with its cursor past the bound; the case went unexercised")
	}
}
