package runner

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// TestCheckpointAndResumeThroughRunner walks the full service-side
// cycle: submit with a deterministic checkpoint trigger, collect the
// snapshot from the checkpointed handle, resubmit with Resume, and
// compare the final statistics against an uninterrupted run.
func TestCheckpointAndResumeThroughRunner(t *testing.T) {
	reg := obs.NewRegistry()
	rn := New(Config{MaxConcurrent: 2, Metrics: reg})
	defer rn.Close()
	prog := finiteProgram(t, 64)

	ref, err := rn.Submit(Submission{Program: prog, Options: repro.Options{Procs: 4, Scheme: "gss"}})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	r, err := rn.Submit(Submission{
		Program: prog,
		Options: repro.Options{Procs: 4, Scheme: "gss", CheckpointAfter: 4},
		Label:   "pausing",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(context.Background()); err == nil {
		t.Fatal("checkpointed run returned a result")
	}
	if st := r.State(); st != StateCheckpointed {
		t.Fatalf("state = %v, want checkpointed", st)
	}
	ck := r.Checkpoint()
	if ck == nil || ck.Snapshot == nil || len(ck.Snapshot.ICBs) == 0 {
		t.Fatalf("checkpointed run has no snapshot: %+v", ck)
	}
	if p := r.Progress(); p.State != "checkpointed" {
		t.Errorf("progress state = %q", p.State)
	}

	res, err := rn.Submit(Submission{
		Program: prog,
		Options: repro.Options{Procs: 4, Scheme: "gss", Resume: ck},
		Label:   "resumed",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Wait(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	f, g := refRes.Stats, got.Stats
	if g.Iterations != f.Iterations || g.Chunks != f.Chunks || g.Instances != f.Instances ||
		g.Exits != f.Exits {
		t.Errorf("resumed stats %+v\nuninterrupted %+v", g, f)
	}

	var buf strings.Builder
	reg.WriteProm(&buf)
	if !strings.Contains(buf.String(), "runner_runs_checkpointed_total 1") {
		t.Errorf("metrics missing checkpointed counter:\n%s", buf.String())
	}
}

// TestRequestCheckpointPausesRunningRun exercises the asynchronous
// request path: a live run is asked to pause and must finalize as
// checkpointed with a resumable snapshot.
func TestRequestCheckpointPausesRunningRun(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	defer rn.Close()
	started := make(chan struct{})
	opts := repro.Options{
		Procs: 4, Engine: repro.EngineReal,
		Observe: func(repro.Live) { close(started) },
	}
	r, err := rn.Submit(Submission{Program: finiteProgram(t, 1<<30), Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("run never started")
	}
	for !r.RequestCheckpoint() {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("run did not pause after RequestCheckpoint")
	}
	if st := r.State(); st != StateCheckpointed {
		t.Fatalf("state = %v, want checkpointed", st)
	}
	if ck := r.Checkpoint(); ck == nil || ck.Snapshot == nil {
		t.Fatal("no snapshot on the paused run")
	}
}

// TestRequestCheckpointOnPlainRun reports false for runs without the
// checkpoint seam instead of doing anything.
func TestRequestCheckpointOnPlainRun(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	defer rn.Close()
	r, err := rn.Submit(Submission{Program: finiteProgram(t, 16), Options: repro.Options{Procs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.RequestCheckpoint() {
		t.Error("RequestCheckpoint() = true on a run without the seam")
	}
	if r.Checkpoint() != nil {
		t.Error("plain run carries a checkpoint")
	}
}

// TestSubmissionIDPreserved pins the replay contract: a caller-chosen ID
// sticks and fresh IDs never collide with it.
func TestSubmissionIDPreserved(t *testing.T) {
	rn := New(Config{MaxConcurrent: 2})
	defer rn.Close()
	r, err := rn.Submit(Submission{Program: finiteProgram(t, 8), Options: repro.Options{Procs: 2}, ID: "run-0100"})
	if err != nil || r.ID() != "run-0100" {
		t.Fatalf("Submit with ID = %v, %v", r, err)
	}
	if _, err := rn.Submit(Submission{Program: finiteProgram(t, 8), ID: "run-0100"}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	fresh, err := rn.Submit(Submission{Program: finiteProgram(t, 8), Options: repro.Options{Procs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != "run-0101" {
		t.Errorf("fresh ID = %q, want run-0101", fresh.ID())
	}
	if _, ok := rn.Get("run-0100"); !ok {
		t.Error("Get by preserved ID failed")
	}
}
