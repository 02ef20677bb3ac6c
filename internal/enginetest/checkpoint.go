package enginetest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/trace"
	"repro/internal/workload"
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
					// Pause after k chunk claims, resume on a fresh engine.
					ctx := refexec.Context{Nest: "resume", Scheme: s.Name(), Pool: pk.String(), Engine: name}
					r := resumeLegs(t, f, p, prog, pl, ref, ctx, core.Config{Scheme: s, Pool: pk},
						func(cfg *core.Config) { cfg.Checkpoint = &core.CheckpointConfig{AfterChunks: k} })
					if !errors.Is(r.pause, core.ErrCheckpointed) {
						t.Fatalf("checkpoint run returned %v, want CheckpointedError", r.pause)
					}

					// Trajectory: the resumed run's cumulative statistics are
					// seeded from the snapshot, so its final totals must land
					// exactly on the uninterrupted run's.
					fs, gs := r.full.Stats, r.rest.Stats
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
			m[fmt.Sprintf("%d%v#%d", e.Loop, e.IVec, e.A)]++
		}
	}
	return m
}

// resumed is what resumeLegs reports: the uninterrupted and the resumed
// run's reports, and the interrupted leg's error, snapshot and trace.
type resumed struct {
	full, rest *core.Report
	pause      error
	snap       *core.RunSnapshot
	part       *trace.Log
}

// resumeLegs runs the three legs of an interrupt-and-resume scenario on
// fresh p-processor engines: cfg uninterrupted (verified against the
// oracle), cfg with interrupt applied — which must pause the run with a
// snapshot — and cfg resumed from that snapshot. The two parts together
// must execute exactly the uninterrupted run's iteration multiset.
func resumeLegs(t *testing.T, f Factory, p int, prog *descr.Program, pl *core.Plan, ref *refexec.Result,
	ctx refexec.Context, cfg core.Config, interrupt func(*core.Config)) resumed {
	t.Helper()
	leg := func(cfg core.Config) (*core.Report, *trace.Log, error) {
		intr, log := machine.NewInterrupt(), trace.New()
		cfg.Engine, cfg.Interrupt, cfg.Sink = f(p, intr), intr, log
		rep, err := core.RunPlan(pl, cfg)
		return rep, log, err
	}
	full, fullLog, err := leg(cfg)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if err := fullLog.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
		t.Fatal(err)
	}

	part := cfg
	interrupt(&part)
	_, partLog, pause := leg(part)
	var snap *core.RunSnapshot
	var cke *core.CheckpointedError
	var be *core.BudgetExceededError
	switch {
	case errors.As(pause, &cke):
		snap = cke.Snapshot
	case errors.As(pause, &be):
		snap = be.Snapshot
	}
	if snap == nil {
		t.Fatalf("interrupted run returned %v, want a pause that carries a snapshot", pause)
	}

	cfg.Checkpoint = &core.CheckpointConfig{Restore: snap}
	rest, restLog, err := leg(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	verifyParts(t, fullLog, partLog, restLog)
	return resumed{full: full, rest: rest, pause: pause, snap: snap, part: partLog}
}

// verifyParts checks that the parts of an interrupted run together
// executed exactly the uninterrupted run's iteration multiset — nothing
// lost, nothing doubled, nothing invented.
func verifyParts(t *testing.T, full *trace.Log, parts ...*trace.Log) {
	t.Helper()
	want := iterMultiset(full)
	got := map[string]int{}
	for _, l := range parts {
		for key, n := range iterMultiset(l) {
			got[key] += n
		}
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
			Engine: f(p, intr), Scheme: lowsched.SS{}, Sink: log,
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

// FanOutCheckpointResume pauses runs partway through their chunks while a
// structural doall above one claim's chunk is half activated — a flat
// fan-out of a thousand instances, a fan-out of fan-outs, and a fan-out
// of serial loops of fan-outs, whose inner barriers open once per serial
// iteration — and resumes them, on every task pool. The snapshot must
// carry an in-flight fan-out block whose next activation lies inside its
// bound (and, for the serial nest, a barrier that has counted an
// iteration, which resume derives from the blocks), and the two parts
// must execute exactly the uninterrupted run's iteration multiset and
// land on its totals: no activation or barrier count lost or repeated
// across the pause. One more row pauses on the paper's per-loop pool and
// resumes on the distributed one, the real engines' default: a run
// journaled before that default changed resumes on it. make verify-gates
// runs the real-engine rows twenty times under -race.
func FanOutCheckpointResume(t *testing.T, name string, f Factory) {
	const p = 4
	nests := []struct {
		label string
		nest  *loopir.Nest
		after int64
		// bars, when set, are the bounds of the structural parallel loops
		// by index-vector position: the pause must catch a barrier that
		// has counted an iteration.
		bars map[int]int64
	}{
		{"flat", workload.ManyInstances(8, 1000, 4, 1), 2000, nil},
		{"nested", loopir.MustBuild(func(b *loopir.B) {
			b.Doall("I", loopir.Const(40), func(b *loopir.B) {
				b.Doall("J", loopir.Const(36), func(b *loopir.B) {
					b.DoallLeaf("N", loopir.Const(2), work(1))
				})
			})
		}), 1440, nil},
		{"serial", loopir.MustBuild(func(b *loopir.B) {
			b.Doall("I", loopir.Const(40), func(b *loopir.B) {
				b.Serial("K", loopir.Const(3), func(b *loopir.B) {
					b.Doall("J", loopir.Const(36), func(b *loopir.B) {
						b.DoallLeaf("N", loopir.Const(2), work(1))
					})
				})
			})
		}), 2880, map[int]int64{0: 40, 2: 36}},
	}
	for _, n := range nests {
		prog, pl, ref := compile(t, n.nest)
		for _, pools := range [][2]core.PoolKind{
			{core.PoolPerLoop, core.PoolPerLoop},
			{core.PoolSingleList, core.PoolSingleList},
			{core.PoolDistributed, core.PoolDistributed},
			{core.PoolPerLoop, core.PoolDistributed},
		} {
			paused, pk := pools[0], pools[1]
			label := pk.String()
			if paused != pk {
				label = paused.String() + "-to-" + label
			}
			t.Run(fmt.Sprintf("%s/%s", n.label, label), func(t *testing.T) {
				ctx := refexec.Context{Nest: "fanout-resume-" + n.label, Scheme: "ss", Pool: pk.String(), Engine: name}
				r := resumeLegs(t, f, p, prog, pl, ref, ctx, core.Config{Scheme: lowsched.SS{}, Pool: pk},
					func(cfg *core.Config) {
						cfg.Pool = paused
						cfg.Checkpoint = &core.CheckpointConfig{AfterChunks: n.after}
					})
				if !errors.Is(r.pause, core.ErrCheckpointed) {
					t.Fatalf("checkpoint run returned %v, want CheckpointedError", r.pause)
				}
				if len(r.snap.FanOuts) == 0 {
					t.Fatalf("the pause caught no fan-out in flight (%d live instances)", len(r.snap.ICBs))
				}
				for _, fo := range r.snap.FanOuts {
					if fo.Next < 1 || fo.Next > fo.Bound {
						t.Errorf("fan-out %+v: next activation outside its bound", fo)
					}
				}
				if n.bars != nil && !countedBarrier(r.snap, n.bars) {
					t.Errorf("the pause caught no partially counted barrier (%d live instances, %d fan-outs)", len(r.snap.ICBs), len(r.snap.FanOuts))
				}
				t.Logf("paused with %d live instances and %d fan-outs in flight", len(r.snap.ICBs), len(r.snap.FanOuts))
				fs, gs := r.full.Stats, r.rest.Stats
				if gs.Iterations != fs.Iterations || gs.Instances != fs.Instances || gs.Exits != fs.Exits ||
					gs.Enters != fs.Enters || gs.Chunks != fs.Chunks {
					t.Errorf("resumed totals diverge:\nresumed       %+v\nuninterrupted %+v", gs, fs)
				}
			})
		}
	}
}

// countedBarrier reports whether a snapshot holds a barrier that has
// counted an iteration, derived as restore derives it: the loop's
// activated iterations (its fan-out block's next − 1, or the bound when
// no block is left) exceed those with a live block beneath. bounds are
// the structural parallel loops' bounds by index-vector position.
func countedBarrier(snap *core.RunSnapshot, bounds map[int]int64) bool {
	type bar struct {
		pos    int
		prefix string
	}
	activated, open := map[bar]int64{}, map[bar]map[int64]bool{}
	mark := func(iv loopir.IVec) {
		for pos, bound := range bounds {
			if pos < len(iv) {
				b := bar{pos, iv[:pos].String()}
				if open[b] == nil {
					open[b] = map[int64]bool{}
					if _, ok := activated[b]; !ok {
						activated[b] = bound
					}
				}
				open[b][iv[pos]] = true
			}
		}
	}
	for _, f := range snap.FanOuts {
		activated[bar{len(f.IVec), f.IVec.String()}] = f.Next - 1
	}
	for _, s := range snap.ICBs {
		mark(s.IVec)
	}
	for _, f := range snap.FanOuts {
		mark(f.IVec)
	}
	for b, n := range activated {
		if n > int64(len(open[b])) {
			return true
		}
	}
	return false
}
