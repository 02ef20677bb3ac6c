package repro_test

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/lang"
)

func ckptNest() *repro.Nest {
	return repro.MustBuild(func(b *repro.B) {
		b.Doall("outer", repro.Const(8), func(b *repro.B) {
			b.DoallLeaf("inner", repro.Const(12), func(e repro.Env, iv repro.IVec, j int64) {
				e.Work(40)
			})
		})
	})
}

func TestCheckpointResumeRoundTripsThroughJSON(t *testing.T) {
	prog, err := repro.Compile(ckptNest())
	if err != nil {
		t.Fatal(err)
	}
	full, err := prog.Run(repro.Options{Procs: 4, Scheme: "gss"})
	if err != nil {
		t.Fatal(err)
	}

	_, err = prog.Run(repro.Options{Procs: 4, Scheme: "gss", CheckpointAfter: 6})
	var cke *repro.CheckpointedError
	if !errors.As(err, &cke) {
		t.Fatalf("CheckpointAfter run returned %v, want CheckpointedError", err)
	}
	if !errors.Is(err, repro.ErrCheckpointed) {
		t.Fatal("CheckpointedError does not match repro.ErrCheckpointed")
	}
	if cke.Checkpoint.Program != prog.Fingerprint() {
		t.Errorf("checkpoint fingerprint %q, program %q", cke.Checkpoint.Program, prog.Fingerprint())
	}

	// The daemon hands checkpoints over the wire as JSON.
	wire, err := json.Marshal(cke.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	var back repro.Checkpoint
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}

	res, err := prog.Run(repro.Options{Procs: 4, Scheme: "gss", Resume: &back})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	f, g := full.Stats, res.Stats
	if g.Iterations != f.Iterations || g.Chunks != f.Chunks || g.Instances != f.Instances ||
		g.Enters != f.Enters || g.Exits != f.Exits {
		t.Errorf("resumed stats trajectory diverges:\nresumed       %+v\nuninterrupted %+v", g, f)
	}
	if res.Makespan <= 0 {
		t.Errorf("resumed makespan %d", res.Makespan)
	}
}

// TestRealEngineCheckpointResumesOnDefaultPool is the upgrade path of a
// journaled real-engine run: a checkpoint taken on the paper's per-loop
// pool resumes on the real engines' default pool, the distributed one,
// and the two parts run every iteration.
func TestRealEngineCheckpointResumesOnDefaultPool(t *testing.T) {
	prog, err := repro.Compile(ckptNest())
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.Options{Procs: 4, Engine: repro.EngineReal}
	paused := opts
	paused.Pool, paused.CheckpointAfter = "per-loop", 20
	_, err = prog.Run(paused)
	var cke *repro.CheckpointedError
	if !errors.As(err, &cke) {
		t.Fatalf("CheckpointAfter run returned %v, want CheckpointedError", err)
	}
	if pool, _ := opts.ResolvedPool(); pool != "distributed" || cke.Checkpoint.Snapshot.Pool != "per-loop" {
		t.Fatalf("resuming a %s snapshot on pool %s, want per-loop on distributed", cke.Checkpoint.Snapshot.Pool, pool)
	}
	opts.Resume = cke.Checkpoint
	res, err := prog.Run(opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Stats.Iterations != 8*12 || res.Stats.Instances != 8 {
		t.Errorf("resumed run totals %d iterations in %d instances, want 96 in 8", res.Stats.Iterations, res.Stats.Instances)
	}
}

func TestCheckpointRejections(t *testing.T) {
	prog, err := repro.Compile(ckptNest())
	if err != nil {
		t.Fatal(err)
	}
	other, err := repro.Compile(repro.MustBuild(func(b *repro.B) {
		b.DoallLeaf("different", repro.Const(5), func(e repro.Env, iv repro.IVec, j int64) { e.Work(1) })
	}))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Fingerprint() == other.Fingerprint() {
		t.Fatal("distinct programs share a fingerprint")
	}

	_, err = prog.Run(repro.Options{Procs: 4, CheckpointAfter: 3})
	var cke *repro.CheckpointedError
	if !errors.As(err, &cke) {
		t.Fatal(err)
	}

	if _, err := other.Run(repro.Options{Procs: 4, Resume: cke.Checkpoint}); !errors.Is(err, repro.ErrBadCheckpoint) {
		t.Errorf("foreign program resume: err=%v, want ErrBadCheckpoint", err)
	}
	if _, err := prog.Run(repro.Options{Procs: 4, Resume: &repro.Checkpoint{}}); !errors.Is(err, repro.ErrBadCheckpoint) {
		t.Errorf("empty checkpoint: err=%v, want ErrBadCheckpoint", err)
	}
	if _, err := prog.Run(repro.Options{Procs: 4, Resume: cke.Checkpoint, Verify: true}); err == nil {
		t.Error("Resume+Verify accepted")
	}
	if _, err := prog.Run(repro.Options{Procs: 4, Scheme: "static-block", CheckpointAfter: 5}); !errors.Is(err, repro.ErrNotCheckpointable) {
		t.Errorf("static scheme: err=%v, want ErrNotCheckpointable", err)
	}
	// Wrong processor count against the snapshot's.
	if _, err := prog.Run(repro.Options{Procs: 2, Resume: cke.Checkpoint}); !errors.Is(err, repro.ErrBadSnapshot) {
		t.Errorf("procs mismatch: err=%v, want ErrBadSnapshot", err)
	}
}

func TestObserveProbeRequestsCheckpoint(t *testing.T) {
	prog, err := repro.Compile(ckptNest())
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.Run(repro.Options{
		Procs: 4,
		Observe: func(l repro.Live) {
			if !l.(core.Checkpointer).RequestCheckpoint() {
				t.Error("RequestCheckpoint() = false on a dynamic run")
			}
		},
	})
	if !errors.Is(err, repro.ErrCheckpointed) {
		t.Fatalf("err = %v, want ErrCheckpointed", err)
	}
}

func TestFlightRecorderFeedsDiagnostics(t *testing.T) {
	prog, err := repro.Compile(ckptNest())
	if err != nil {
		t.Fatal(err)
	}
	var live repro.Live
	if _, err := prog.Run(repro.Options{
		Procs: 4, Diagnostics: true, FlightRecorder: 64,
		Observe: func(l repro.Live) { live = l },
	}); err != nil {
		t.Fatal(err)
	}
	d := live.(core.Diagnoser).Diagnose()
	if !strings.Contains(d, "flight recorder:") || !strings.Contains(d, "claim") {
		t.Errorf("diagnostic dump missing the flight tail:\n%s", d)
	}
}

// TestVersion1CheckpointResumes: testdata/checkpoint_v1.json was written
// by `loopsched -file testdata/checkpoint_v1.loop -procs 4
// -checkpoint-after 40 -checkpoint-out ...` on a build whose snapshots
// (format version 1) stored the open barriers' counts. This build derives
// the counts and ignores the stored ones; the run still completes.
func TestVersion1CheckpointResumes(t *testing.T) {
	src, err := os.ReadFile("testdata/checkpoint_v1.loop")
	if err != nil {
		t.Fatal(err)
	}
	nest, err := lang.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := repro.Compile(nest)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := os.ReadFile("testdata/checkpoint_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var ck repro.Checkpoint
	if err := json.Unmarshal(wire, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Snapshot.Version != 1 || len(ck.Snapshot.V1Bars) == 0 {
		t.Fatalf("testdata holds a version-%d snapshot with bars %s, want version 1 with barrier counts",
			ck.Snapshot.Version, ck.Snapshot.V1Bars)
	}
	res, err := prog.Run(repro.Options{Procs: 4, Resume: &ck})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Stats.Iterations != 8*16 || res.Stats.Instances != 8 {
		t.Errorf("resumed run totals %d iterations in %d instances, want 128 in 8", res.Stats.Iterations, res.Stats.Instances)
	}
}
