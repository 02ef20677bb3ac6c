package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/trace"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

func vEngine(p int) Engine { return vmachine.New(vmachine.Config{P: p, AccessCost: 5}) }

// runToCheckpoint runs the nest until the claim-k trigger fires and
// returns the snapshot plus the sink covering the pre-pause segment.
func runToCheckpoint(t *testing.T, cfg Config, k int64) (*RunSnapshot, *recTracer) {
	t.Helper()
	tr := newRecTracer()
	cfg.Sink = tr
	cfg.Checkpoint = &CheckpointConfig{AfterChunks: k}
	prog, _ := compileStd(t, workload.ManyInstances(6, 32, 2, 10))
	_, err := Run(prog, cfg)
	var cke *CheckpointedError
	if !errors.As(err, &cke) {
		t.Fatalf("Run with AfterChunks=%d returned %v, want CheckpointedError", k, err)
	}
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("CheckpointedError does not match ErrCheckpointed")
	}
	return cke.Snapshot, tr
}

func TestCheckpointResumeEqualsUninterrupted(t *testing.T) {
	// Uninterrupted reference.
	prog, ref := compileStd(t, workload.ManyInstances(6, 32, 2, 10))
	full := newRecTracer()
	fullRep, err := Run(prog, Config{Engine: vEngine(4), Scheme: lowsched.GSS{}, Sink: full})
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstRef(t, prog, ref, full, fullRep)

	snap, tr1 := runToCheckpoint(t, Config{Engine: vEngine(4), Scheme: lowsched.GSS{}}, 5)
	if len(snap.ICBs) == 0 {
		t.Fatal("snapshot has no live instances")
	}
	if snap.Scheme != "GSS" || snap.Procs != 4 || snap.Version != SnapshotVersion {
		t.Fatalf("snapshot header %+v", snap)
	}
	// Snapshots must survive serialization (the daemon ships them as JSON).
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}

	// Resume from the decoded snapshot.
	tr2 := newRecTracer()
	prog2, _ := compileStd(t, workload.ManyInstances(6, 32, 2, 10))
	rep2, err := Run(prog2, Config{
		Engine: vEngine(4), Scheme: lowsched.GSS{}, Sink: tr2,
		Checkpoint: &CheckpointConfig{Restore: &back},
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}

	// The combined iteration multiset equals the uninterrupted run's.
	got := map[string]int64{}
	for k, n := range tr1.iters {
		got[k] += n
	}
	for k, n := range tr2.iters {
		got[k] += n
	}
	if len(got) != len(full.iters) {
		t.Errorf("combined run touched %d instances, uninterrupted %d", len(got), len(full.iters))
	}
	for k, n := range full.iters {
		if got[k] != n {
			t.Errorf("instance %s: combined iterations %d, uninterrupted %d", k, got[k], n)
		}
	}
	for k := range got {
		if _, ok := full.iters[k]; !ok {
			t.Errorf("instance %s executed on resume but not in the uninterrupted run", k)
		}
	}

	// The resumed run's final (seeded) stats equal the uninterrupted
	// trajectory: same claims, instances, completions.
	f, g := fullRep.Stats, rep2.Stats
	if g.Iterations != f.Iterations || g.Chunks != f.Chunks || g.Instances != f.Instances ||
		g.Enters != f.Enters || g.Exits != f.Exits || g.ZeroTrips != f.ZeroTrips {
		t.Errorf("resumed stats %+v\nuninterrupted %+v", g, f)
	}
}

func TestCheckpointRequestBeforeStartSnapshotsInitialPool(t *testing.T) {
	// RequestCheckpoint through the probe before any chunk is claimed:
	// the run pauses at the first claim boundary with the prologue's
	// instances untouched, and the snapshot resumes to a full run.
	prog, _ := compileStd(t, workload.ManyInstances(4, 16, 2, 10))
	var probe Probe
	tr := newRecTracer()
	_, err := Run(prog, Config{
		Engine: vEngine(4), Scheme: lowsched.SS{}, Sink: tr,
		Checkpoint: &CheckpointConfig{},
		OnStart: func(p Probe) {
			probe = p
			if ok := p.(Checkpointer).RequestCheckpoint(); !ok {
				t.Error("RequestCheckpoint() = false with Checkpoint configured")
			}
		},
	})
	var cke *CheckpointedError
	if !errors.As(err, &cke) {
		t.Fatalf("Run returned %v, want CheckpointedError", err)
	}
	if len(tr.iters) != 0 {
		t.Errorf("%d instances ran iterations before the pre-start pause", len(tr.iters))
	}
	for _, s := range cke.Snapshot.ICBs {
		if s.Done != 0 || s.Cursor != 1 {
			t.Errorf("pre-start instance %+v, want done=0 cursor=1", s)
		}
	}
	_ = probe

	tr2 := newRecTracer()
	prog2, ref2 := compileStd(t, workload.ManyInstances(4, 16, 2, 10))
	rep, err := Run(prog2, Config{
		Engine: vEngine(4), Scheme: lowsched.SS{}, Sink: tr2,
		Checkpoint: &CheckpointConfig{Restore: cke.Snapshot},
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	verifyAgainstRef(t, prog2, ref2, tr2, rep)
}

func TestRequestCheckpointWithoutSeamReportsFalse(t *testing.T) {
	prog, _ := compileStd(t, workload.ManyInstances(2, 8, 2, 10))
	called := false
	_, err := Run(prog, Config{
		Engine: vEngine(2),
		OnStart: func(p Probe) {
			called = true
			if p.(Checkpointer).RequestCheckpoint() {
				t.Error("RequestCheckpoint() = true without Config.Checkpoint")
			}
		},
	})
	if err != nil || !called {
		t.Fatalf("err=%v called=%v", err, called)
	}
}

func TestCheckpointRejectsUnsupportedConfigurations(t *testing.T) {
	doacross := workload.Wavefront(8, 1, 2, 10)
	doall := workload.ManyInstances(2, 8, 2, 10)

	prog, _ := compileStd(t, doall)
	if _, err := Run(prog, Config{Engine: vEngine(2), Scheme: lowsched.MustParse("static-block"),
		Checkpoint: &CheckpointConfig{}}); !errors.Is(err, ErrNotCheckpointable) {
		t.Errorf("static scheme: err=%v, want ErrNotCheckpointable", err)
	}
	dprog, _ := compileStd(t, doacross)
	if _, err := Run(dprog, Config{Engine: vEngine(2), Scheme: lowsched.SS{},
		Checkpoint: &CheckpointConfig{}}); !errors.Is(err, ErrNotCheckpointable) {
		t.Errorf("doacross: err=%v, want ErrNotCheckpointable", err)
	}
	if _, err := Run(prog, Config{Engine: vEngine(2), Scheme: lowsched.SS{},
		Checkpoint: &CheckpointConfig{AfterChunks: -1}}); !errors.Is(err, ErrNotCheckpointable) {
		t.Errorf("negative threshold: err=%v, want ErrNotCheckpointable", err)
	}
}

func TestResumeRejectsMismatchedSnapshots(t *testing.T) {
	snap, _ := runToCheckpoint(t, Config{Engine: vEngine(4), Scheme: lowsched.SS{}}, 4)
	run := func(mutate func(*RunSnapshot), cfg Config) error {
		s := *snap
		s.ICBs = append([]ICBSnapshot(nil), snap.ICBs...)
		s.Stats = append([]int64(nil), snap.Stats...)
		mutate(&s)
		prog, _ := compileStd(t, workload.ManyInstances(6, 32, 2, 10))
		if cfg.Engine == nil {
			cfg.Engine = vEngine(4)
		}
		if cfg.Scheme == nil {
			cfg.Scheme = lowsched.SS{}
		}
		cfg.Checkpoint = &CheckpointConfig{Restore: &s}
		_, err := Run(prog, cfg)
		return err
	}
	cases := []struct {
		name   string
		mutate func(*RunSnapshot)
		cfg    Config
	}{
		{"version", func(s *RunSnapshot) { s.Version = 99 }, Config{}},
		{"procs", func(*RunSnapshot) {}, Config{Engine: vEngine(2)}},
		{"scheme", func(*RunSnapshot) {}, Config{Scheme: lowsched.GSS{}}},
		{"pool", func(*RunSnapshot) {}, Config{Pool: PoolDistributed}},
		{"stats length", func(s *RunSnapshot) { s.Stats = s.Stats[:3] }, Config{}},
		{"no instances", func(s *RunSnapshot) { s.ICBs = nil }, Config{}},
		{"bad cursor", func(s *RunSnapshot) { s.ICBs[0].Cursor = s.ICBs[0].Cursor + 7 }, Config{}},
		{"bad loop", func(s *RunSnapshot) { s.ICBs[0].Loop = 99 }, Config{}},
		{"done out of range", func(s *RunSnapshot) { s.ICBs[0].Done = s.ICBs[0].Bound + 1 }, Config{}},
	}
	for _, tc := range cases {
		if err := run(tc.mutate, tc.cfg); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err=%v, want ErrBadSnapshot", tc.name, err)
		}
	}
}

func TestDiagnoseIncludesFlightTail(t *testing.T) {
	prog, _ := compileStd(t, workload.ManyInstances(3, 8, 2, 10))
	rec := trace.NewRing(4, 64)
	var probe Probe
	if _, err := Run(prog, Config{
		Engine: vEngine(4), Diagnostics: true, Sink: rec,
		OnStart: func(p Probe) { probe = p },
	}); err != nil {
		t.Fatal(err)
	}
	if rec.Events() == 0 {
		t.Fatal("run with recorder attached recorded no events")
	}
	d := probe.(Diagnoser).Diagnose()
	if !strings.Contains(d, "flight recorder:") {
		t.Errorf("Diagnose() does not fold in the flight tail:\n%s", d)
	}
	// The 32-event tail of a completed run always ends in claims, chunk
	// completions and instance completions (activations may have been
	// evicted by then).
	if !strings.Contains(d, "claim") || !strings.Contains(d, "chunk") || !strings.Contains(d, "completed") {
		t.Errorf("flight tail missing claim/chunk/completed events:\n%s", d)
	}
}

// TestDiagnoseShowsUnpostedWork: icount lags executed work, so a dump
// taken mid-hold prints each processor's executed-unposted count beside
// the instances' icount. On one processor, inside iteration 10 of 40, the
// nine iterations before it are complete and none is posted.
func TestDiagnoseShowsUnpostedWork(t *testing.T) {
	var probe Probe
	var dump string
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("L", loopir.Const(40), func(e loopir.Env, iv loopir.IVec, j int64) {
			if j == 10 {
				dump = probe.(Diagnoser).Diagnose()
			}
			e.Work(5)
		})
	})
	if _, err := Run(compileOnly(t, nest), Config{
		Engine: vEngine(1), Scheme: lowsched.SS{}, Diagnostics: true,
		OnStart: func(p Probe) { probe = p },
	}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"icount 0,", "proc 0: chunks=10 searches=1 iters=9 unposted=9 "} {
		if !strings.Contains(dump, want) {
			t.Errorf("mid-hold dump missing %q:\n%s", want, dump)
		}
	}
	if done := probe.(Diagnoser).Diagnose(); !strings.Contains(done, "iters=40 unposted=0 ") {
		t.Errorf("finished run still shows unposted work:\n%s", done)
	}
}

func TestRecorderDoesNotPerturbVirtualSchedule(t *testing.T) {
	// Bit-identity: the recorder charges no machine time, so a recorded
	// virtual run must finish at exactly the same makespan with exactly
	// the same counters as a bare one.
	prog0, _ := compileStd(t, workload.ManyInstances(6, 32, 2, 10))
	bare, err := Run(prog0, Config{Engine: vEngine(4), Scheme: lowsched.GSS{}})
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := compileStd(t, workload.ManyInstances(6, 32, 2, 10))
	rec := trace.NewRing(4, 128)
	got, err := Run(prog, Config{Engine: vEngine(4), Scheme: lowsched.GSS{}, Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got.RunReport.Makespan != bare.RunReport.Makespan {
		t.Errorf("recorded makespan %d, bare %d", got.RunReport.Makespan, bare.RunReport.Makespan)
	}
	g, f := got.Stats, bare.Stats
	if g.Iterations != f.Iterations || g.Chunks != f.Chunks || g.Searches != f.Searches ||
		g.O1Time != f.O1Time || g.O2Time != f.O2Time || g.O3Time != f.O3Time {
		t.Errorf("recorded stats diverge:\n%+v\n%+v", g, f)
	}
}

// TestFlightChunkRecordReadsTheClock: the Chunk record is written at the
// body's end and carries that boundary's clock reading and the chunk's
// own iterations; the Post record is written after the icount access,
// mid-way through the O1 interval the next boundary closes, so it reads
// the clock itself. On one processor only the final iteration is tail:
// the hold posts once, all twenty iterations.
func TestFlightChunkRecordReadsTheClock(t *testing.T) {
	const n, work, access = 20, 10, 5
	prog, _ := compileStd(t, workload.UniformDoall(n, work))
	rec := trace.NewRing(1, 256)
	if _, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 1, AccessCost: access}),
		Scheme: lowsched.SS{}, Sink: rec,
	}); err != nil {
		t.Fatal(err)
	}
	var claim, chunk trace.Event
	chunks, posts := 0, 0
	for _, e := range rec.Tail(256) {
		switch e.Kind {
		case trace.EvClaim:
			claim = e
		case trace.EvChunk:
			chunk = e
			chunks++
			if got := e.At - claim.At; got != work {
				t.Errorf("chunk %d recorded %d after its claim, want the body's %d", chunks, got, work)
			}
			if e.A != claim.A || e.B != claim.B {
				t.Errorf("chunk %d records [%d,%d], its claim [%d,%d]", chunks, e.A, e.B, claim.A, claim.B)
			}
		case trace.EvPost:
			posts++
			if got := e.At - chunk.At; got != access {
				t.Errorf("post recorded %d after the chunk before it, want the icount access %d", got, access)
			}
			if e.A != n || e.B != n || chunks != n {
				t.Errorf("post of %d (icount %d) after %d chunks, want one post of %d after all of them", e.A, e.B, chunks, n)
			}
		}
	}
	if chunks != n || posts != 1 {
		t.Fatalf("recorded %d chunk and %d post events, want %d and 1", chunks, posts, n)
	}
}
