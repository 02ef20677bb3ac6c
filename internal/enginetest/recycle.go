package enginetest

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RecycledInstances holds an engine to exactly-once execution when
// retired ICBs are recycled. The nest is a fan-out of 4000 four-iteration
// instances, claimed in chunks by every processor, which completes
// instances too and reuses the blocks it retired for its next
// activations and fan-outs. Every iteration runs once against the oracle,
// and every activation is a fresh block or a recycled one. Which blocks
// come back, and when, depends on the interleaving, so make verify-gates
// runs the real-engine row twenty times under -race.
func RecycledInstances(t *testing.T, name string, f Factory) {
	const p = 4
	prog, pl, ref := compile(t, workload.ManyInstances(8, 4000, 4, 1))
	intr, log := machine.NewInterrupt(), trace.New()
	rep, err := core.RunPlan(pl, core.Config{Engine: f(p, intr), Scheme: lowsched.SS{}, Sink: log, Interrupt: intr})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := rep.Stats
	t.Logf("%d instances: %d fresh blocks, %d recycled", s.Instances, s.ICBAllocs, s.ICBReuses)
	if s.ICBAllocs+s.ICBReuses != s.Instances {
		t.Errorf("%d fresh + %d recycled blocks, want %d instances", s.ICBAllocs, s.ICBReuses, s.Instances)
	}
	ctx := refexec.Context{Nest: "recycled", Scheme: "ss", Pool: core.PoolPerLoop.String(), Engine: name}
	if err := log.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
		t.Error(err)
	}
}

// RecycledCheckpointResume pauses the same fan-out halfway through its
// chunks, while recycled blocks are live in the pool, and resumes it: the
// two parts must execute exactly the uninterrupted run's iteration
// multiset and land on its totals.
func RecycledCheckpointResume(t *testing.T, name string, f Factory) {
	const p = 4
	prog, pl, ref := compile(t, workload.ManyInstances(8, 4000, 4, 1))
	ctx := refexec.Context{Nest: "recycled-resume", Scheme: "ss", Pool: core.PoolPerLoop.String(), Engine: name}
	r := resumeLegs(t, f, p, prog, pl, ref, ctx, core.Config{Scheme: lowsched.SS{}},
		func(cfg *core.Config) { cfg.Checkpoint = &core.CheckpointConfig{AfterChunks: 8000} })
	if !errors.Is(r.pause, core.ErrCheckpointed) {
		t.Fatalf("checkpoint run returned %v, want CheckpointedError", r.pause)
	}
	t.Logf("paused with %d live instances", len(r.snap.ICBs))
	fs, gs := r.full.Stats, r.rest.Stats
	if gs.Iterations != fs.Iterations || gs.Instances != fs.Instances || gs.Exits != fs.Exits {
		t.Errorf("resumed totals diverge:\nresumed       %+v\nuninterrupted %+v", gs, fs)
	}
}
