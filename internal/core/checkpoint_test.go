package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
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
	// run resumes a mutated copy of snap and reports the error and the
	// chunks that ran: a rejected snapshot must run none.
	run := func(mutate func(*RunSnapshot), cfg Config) (int64, error) {
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
		var c chunkCounter
		cfg.Checkpoint, cfg.Sink = &CheckpointConfig{Restore: &s}, &c
		// A snapshot that restore accepts wrongly may hang its run: the
		// deadline turns that into a failure.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := RunContext(ctx, prog, cfg)
		return c.Load(), err
	}
	// The pause leaves 30 of doall I's 32 iterations open: their instances
	// are in the snapshot, and the highest is I = last.
	last := snap.ICBs[0].IVec[0]
	for _, s := range snap.ICBs {
		last = max(last, s.IVec[0])
	}
	cases := []struct {
		name   string
		mutate func(*RunSnapshot)
		cfg    Config
	}{
		{"version", func(s *RunSnapshot) { s.Version = 99 }, Config{}},
		{"procs", func(*RunSnapshot) {}, Config{Engine: vEngine(2)}},
		{"scheme", func(*RunSnapshot) {}, Config{Scheme: lowsched.GSS{}}},
		{"stats length", func(s *RunSnapshot) { s.Stats = s.Stats[:3] }, Config{}},
		{"no instances", func(s *RunSnapshot) { s.ICBs = nil }, Config{}},
		{"bad cursor", func(s *RunSnapshot) { s.ICBs[0].Cursor = s.ICBs[0].Cursor + 7 }, Config{}},
		{"bad loop", func(s *RunSnapshot) { s.ICBs[0].Loop = 99 }, Config{}},
		{"done out of range", func(s *RunSnapshot) { s.ICBs[0].Done = s.ICBs[0].Bound + 1 }, Config{}},
		{"short ivec", func(s *RunSnapshot) { s.ICBs[0].IVec = nil }, Config{}},
		// doall I = 1..32 produces neither index.
		{"index past its loop", func(s *RunSnapshot) { s.ICBs[0].IVec = loopir.IVec{1000} }, Config{}},
		{"index 0", func(s *RunSnapshot) { s.ICBs[0].IVec = loopir.IVec{0} }, Config{}},
		// Its iteration's barrier could never complete.
		{"instance dropped", func(s *RunSnapshot) { s.ICBs = s.ICBs[1:] }, Config{}},
		// A fan-out block of doall I whose next activation is the highest
		// open iteration: a live instance beneath an iteration the block
		// has not activated.
		{"instance at its fan-out's next", func(s *RunSnapshot) {
			s.FanOuts = []FanOutSnapshot{{Leaf: 1, Level: 2, Bound: 32, Next: last}}
		}, Config{}},
		// Rejected only after every instance before it validated.
		{"bad last instance", func(s *RunSnapshot) { s.ICBs[len(s.ICBs)-1].Loop = 99 }, Config{}},
		{"bad fan-out after good instances", func(s *RunSnapshot) {
			s.FanOuts = []FanOutSnapshot{{Leaf: 1, Level: 2, Bound: 7, Next: 1}}
		}, Config{}},
	}
	if got := restoredCounts(t, workload.ManyInstances(6, 32, 2, 10), Config{Engine: vEngine(4), Scheme: lowsched.SS{}}, snap); len(got) != 1 || got["1()"] != 2 {
		t.Fatalf("restore derived barrier counts %v, want doall I's at 2", got)
	}
	for _, tc := range cases {
		chunks, err := run(tc.mutate, tc.cfg)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err=%v, want ErrBadSnapshot", tc.name, err)
		}
		if chunks != 0 {
			t.Errorf("%s: the rejected snapshot ran %d chunk(s)", tc.name, chunks)
		}
	}
}

// chunkCounter is a sink that counts the chunks that ran.
type chunkCounter struct{ atomic.Int64 }

func (c *chunkCounter) Record(e trace.Event) {
	if e.Kind == trace.EvChunk {
		c.Add(1)
	}
}

// barCounts reads the counts of the barriers above a run's tracked blocks
// that are below their bound, keyed by loop ID and enclosing indexes.
func barCounts(ex *executor) map[string]int64 {
	counts := map[string]int64{}
	for icb := range ex.insts {
		leaf := ex.plan.leaf(icb.Loop)
		for bar, _ := icb.Bar.(*barrier); bar != nil; bar = bar.up {
			if c := bar.count.Peek(); c < bar.bound {
				counts[fmt.Sprintf("%d%v", leaf.Levels[bar.level].LoopID, icb.IVec[:bar.level-2])] = c
			}
		}
	}
	return counts
}

// restoredCounts resumes snap and pauses the run before any claim: the
// barriers' counts are then the ones restore derived.
func restoredCounts(t *testing.T, nest *loopir.Nest, cfg Config, snap *RunSnapshot) map[string]int64 {
	t.Helper()
	prog, _ := compileStd(t, nest)
	var ex *executor
	cfg.Checkpoint = &CheckpointConfig{Restore: snap}
	cfg.OnStart = func(p Probe) {
		ex = p.(*executor)
		ex.RequestCheckpoint()
	}
	if _, err := Run(prog, cfg); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("resume paused before its first claim returned %v, want CheckpointedError", err)
	}
	return barCounts(ex)
}

// TestRestoreDerivesBarrierCounts: the snapshot stores no barrier count;
// restore derives each from the blocks. Paused at many claims of several
// shapes, on both engines, the counts a resumed run starts from equal the
// paused run's own. On the real engine which barriers a pause catches
// depends on the interleaving; make verify-gates runs it twenty times
// under -race.
func TestRestoreDerivesBarrierCounts(t *testing.T) {
	shapes := []struct {
		name string
		nest *loopir.Nest
	}{
		{"flat", workload.ManyInstances(6, 32, 20, 1)},
		{"fan-out", workload.ManyInstances(4, 100, 20, 1)},
		{"fan-out of fan-outs", loopir.MustBuild(func(b *loopir.B) {
			b.Doall("I", loopir.Const(40), func(b *loopir.B) {
				b.Doall("J", loopir.Const(36), func(b *loopir.B) {
					b.DoallLeaf("N", loopir.Const(2), func(e loopir.Env, _ loopir.IVec, _ int64) { e.Work(1) })
				})
			})
		})},
		{"serial inside doall", loopir.MustBuild(func(b *loopir.B) {
			b.Doall("I", loopir.Const(6), func(b *loopir.B) {
				b.Serial("K", loopir.Const(3), func(b *loopir.B) {
					b.Doall("J", loopir.Const(40), func(b *loopir.B) {
						b.DoallLeaf("N", loopir.Const(2), func(e loopir.Env, _ loopir.IVec, _ int64) { e.Work(1) })
					})
				})
			})
		})},
		{"adjoint", workload.AdjointConvolution(64, 4)},
		{"triangular", workload.Triangular(24, 4)},
		{"fig1", workload.Fig1(workload.DefaultFig1())},
	}
	engines := []struct {
		name string
		new  func() Engine
	}{
		{"virtual", func() Engine { return vEngine(4) }},
		{"real", func() Engine { return machine.NewReal(machine.RealConfig{P: 4}) }},
	}
	for _, e := range engines {
		pauses := 0
		for _, sh := range shapes {
			for _, k := range []int64{3, 40, 400, 1200} {
				prog, _ := compileStd(t, sh.nest)
				var ex *executor
				_, err := Run(prog, Config{Engine: e.new(), Scheme: lowsched.SS{},
					Checkpoint: &CheckpointConfig{AfterChunks: k},
					OnStart:    func(p Probe) { ex = p.(*executor) }})
				var cke *CheckpointedError
				if !errors.As(err, &cke) {
					if err != nil {
						t.Fatalf("%s/%s/claim %d: %v", e.name, sh.name, k, err)
					}
					continue // the run completed before its k-th claim
				}
				pauses++
				want := barCounts(ex)
				got := restoredCounts(t, sh.nest, Config{Engine: e.new(), Scheme: lowsched.SS{}}, cke.Snapshot)
				if !maps.Equal(got, want) {
					t.Errorf("%s/%s/claim %d: restore derived barrier counts %v, the paused run held %v",
						e.name, sh.name, k, got, want)
				}
			}
		}
		t.Logf("%s: %d pauses", e.name, pauses)
		if pauses < 10 {
			t.Errorf("%s: only %d runs paused; the shapes are too small for their claims", e.name, pauses)
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

// TestDiagnoseCountsOpenBarriers: a dump counts the open barriers above
// the live instances, each once. In a doall O of 2 over a doall M of 2,
// ENTER activates all four instances up front, so inside the first one,
// on one processor, O's barrier and both M's are open; a finished run has
// none.
func TestDiagnoseCountsOpenBarriers(t *testing.T) {
	var probe Probe
	var dump string
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("O", loopir.Const(2), func(b *loopir.B) {
			b.Doall("M", loopir.Const(2), func(b *loopir.B) {
				b.DoallLeaf("L", loopir.Const(4), func(e loopir.Env, iv loopir.IVec, j int64) {
					if iv[0] == 1 && iv[1] == 1 && j == 2 {
						dump = probe.(Diagnoser).Diagnose()
					}
					e.Work(5)
				})
			})
		})
	})
	if _, err := Run(compileOnly(t, nest), Config{
		Engine: vEngine(1), Scheme: lowsched.SS{}, Diagnostics: true,
		OnStart: func(p Probe) { probe = p },
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump, "bar_count: 3 open\n") {
		t.Errorf("mid-run dump does not count O's and both M's barriers:\n%s", dump)
	}
	if done := probe.(Diagnoser).Diagnose(); strings.Contains(done, "bar_count:") {
		t.Errorf("finished run still shows open barriers:\n%s", done)
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
