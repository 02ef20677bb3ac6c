package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

// watcher counts the objects it was asked to watch and the ones the
// collector has since reclaimed; lives counts the attempts that published
// a probe.
type watcher struct{ armed, freed, lives atomic.Int32 }

// watch arms a finalizer on obj, a pointer to an object that is part of no
// reference cycle (a finalizer never runs on one that is — which rules out
// the executor itself: its workers point back at it).
func (w *watcher) watch(obj any) {
	w.armed.Add(1)
	runtime.SetFinalizer(obj, func(any) { w.freed.Add(1) })
}

// observe returns an Options.Observe that references a watched sentinel
// and nothing else does: the run reaches it through the options its body
// holds and through every attempt's executor, which keeps the Observe it
// was configured with — so the sentinel is collected only once the handle
// has let go of both. The callback signals started on the first attempt.
func (w *watcher) observe(started chan struct{}) func(repro.Live) {
	sentinel := new([64]byte)
	w.watch(sentinel)
	var once sync.Once
	return func(repro.Live) {
		runtime.KeepAlive(sentinel)
		w.lives.Add(1)
		once.Do(func() { close(started) })
	}
}

// submit watches prog, points the options' Observe at the watcher's
// sentinel and submits; started is closed when the first attempt
// publishes its probe.
func (w *watcher) submit(t *testing.T, rn *Runner, prog *repro.Program, opts repro.Options) (r *Run, started chan struct{}) {
	t.Helper()
	w.watch(prog)
	started = make(chan struct{})
	opts.Observe = w.observe(started)
	r, err := rn.Submit(Submission{Program: prog, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return r, started
}

// allFreed collects until everything watched is reclaimed, or gives up.
func (w *watcher) allFreed() bool {
	for i := 0; i < 400 && w.freed.Load() != w.armed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return w.freed.Load() == w.armed.Load()
}

// cursedProgram compiles a Doall whose iteration 7 panics: under the
// default fail-fast policy the run fails with the body's error.
func cursedProgram(t *testing.T) *repro.Program {
	t.Helper()
	prog, err := repro.Compile(repro.MustBuild(func(b *repro.B) {
		b.DoallLeaf("F", repro.Const(40), func(e repro.Env, iv repro.IVec, j int64) {
			if j == 7 {
				panic("iteration 7 is cursed")
			}
			e.Work(10)
		})
	}))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// waitIterations blocks until the run has executed at least one iteration.
func waitIterations(t *testing.T, r *Run) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); r.Progress().Iterations == 0; {
		if time.Now().After(deadline) {
			t.Fatal("run never executed an iteration")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTerminalRunReleasesItsMachine: whatever the outcome, a terminal run
// keeps its outcome and lets go of its machine — the compiled program its
// body held and the executor (pool, ICBs, stats spine, virtual machine)
// behind every attempt's probe become unreachable while the *Run stays
// held and keeps answering.
func TestTerminalRunReleasesItsMachine(t *testing.T) {
	wait := func(t *testing.T, r *Run) error {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := r.Wait(ctx)
		return err
	}
	// Each outcome submits from its own frame and returns only the terminal
	// handle, so no local of the test keeps a program or a probe reachable.
	outcomes := []struct {
		name  string
		state State
		// lives is how many attempts publish a probe.
		lives int32
		run   func(t *testing.T, w *watcher) *Run
	}{
		{"done", StateDone, 1, func(t *testing.T, w *watcher) *Run {
			r, _ := w.submit(t, New(Config{}), finiteProgram(t, 64), repro.Options{Procs: 4})
			if err := wait(t, r); err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"failed", StateFailed, 1, func(t *testing.T, w *watcher) *Run {
			r, _ := w.submit(t, New(Config{}), cursedProgram(t), repro.Options{Procs: 2})
			if err := wait(t, r); err == nil || errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want the body's failure", err)
			}
			return r
		}},
		{"cancelled running", StateCancelled, 1, func(t *testing.T, w *watcher) *Run {
			r, started := w.submit(t, New(Config{}), endlessProgram(t), repro.Options{Procs: 2})
			<-started
			waitIterations(t, r)
			r.Cancel()
			if err := wait(t, r); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return r
		}},
		{"cancelled queued", StateCancelled, 0, func(t *testing.T, w *watcher) *Run {
			rn := New(Config{MaxConcurrent: 1})
			gate := make(chan struct{})
			blocker, err := rn.Submit(Submission{Program: gatedProgram(t, 4, gate), Options: repro.Options{Procs: 2}})
			if err != nil {
				t.Fatal(err)
			}
			r, _ := w.submit(t, rn, finiteProgram(t, 64), repro.Options{Procs: 2})
			r.Cancel()
			close(gate)
			if err := wait(t, blocker); err != nil {
				t.Fatal(err)
			}
			if err := wait(t, r); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return r
		}},
		{"checkpointed", StateCheckpointed, 1, func(t *testing.T, w *watcher) *Run {
			r, _ := w.submit(t, New(Config{}), finiteProgram(t, 64),
				repro.Options{Procs: 4, Scheme: "gss", CheckpointAfter: 4})
			if err := wait(t, r); !errors.Is(err, repro.ErrCheckpointed) {
				t.Fatalf("err = %v, want ErrCheckpointed", err)
			}
			if r.Checkpoint() == nil {
				t.Fatal("checkpointed run parks no checkpoint")
			}
			return r
		}},
		{"preempted then done", StateDone, 2, func(t *testing.T, w *watcher) *Run {
			rn := New(Config{MaxConcurrent: 1, Scheduler: "wfq", Tenants: map[string]Tenant{"gold": {Priority: 10}}})
			// The victim is checkpointable, so the preemption is its
			// executor's checkpoint request, raised before the preemptor's
			// Submit returns. Its first attempt sits in its gated unit chunks
			// until then, so it pauses at its next claim boundary with work
			// left — whatever the goroutines' timing — and the second attempt
			// resumes from the snapshot and finishes. (Preempting by
			// cancellation lands asynchronously: TestManagerPreemptNonCheckpointable.)
			gate := make(chan struct{})
			r, started := w.submit(t, rn, gatedProgram(t, 64, gate),
				repro.Options{Procs: 2, Scheme: "ss", Checkpointable: true})
			<-started // the victim's probe is published: the request can land
			high, err := rn.Submit(Submission{Program: finiteProgram(t, 8), Options: repro.Options{Procs: 2}, Tenant: "gold"})
			if err != nil {
				t.Fatal(err)
			}
			close(gate)
			if err := wait(t, high); err != nil {
				t.Fatal(err)
			}
			if err := wait(t, r); err != nil {
				t.Fatal(err)
			}
			if got := attemptsOf(r); got != 2 {
				t.Fatalf("victim ran %d attempt(s), want 2", got)
			}
			return r
		}},
	}
	for _, o := range outcomes {
		t.Run(o.name, func(t *testing.T) {
			var w watcher
			r := o.run(t, &w)
			if st := r.State(); st != o.state {
				t.Fatalf("state = %v, want %v", st, o.state)
			}
			if got := w.lives.Load(); got != o.lives {
				t.Fatalf("%d attempt(s) published a probe, want %d", got, o.lives)
			}
			if !w.allFreed() {
				t.Errorf("%d of %d object(s) of the run's machine still reachable from its terminal handle",
					w.armed.Load()-w.freed.Load(), w.armed.Load())
			}
			// The handle is still whole: it answers, and a terminal run has
			// nothing to pause.
			if p := r.Progress(); p.State != o.state.String() {
				t.Errorf("Progress().State = %q, want %q", p.State, o.state)
			}
			if r.RequestCheckpoint() {
				t.Error("RequestCheckpoint accepted on a terminal run")
			}
			r.Cancel() // a no-op, and not a nil cancel func
			runtime.KeepAlive(r)
		})
	}
}

// sameCounters compares the counters Progress reports with a snapshot's,
// field for field.
func sameCounters(t *testing.T, p Progress, sn core.Snapshot) {
	t.Helper()
	want := Progress{
		Instances: sn.Instances, InstancesDone: sn.Exits, Iterations: sn.Iterations,
		Chunks: sn.Chunks, Efficiency: sn.Efficiency(), FailedIterations: sn.FailedIterations,
	}
	got := Progress{
		Instances: p.Instances, InstancesDone: p.InstancesDone, Iterations: p.Iterations,
		Chunks: p.Chunks, Efficiency: p.Efficiency, FailedIterations: p.FailedIterations,
	}
	if got != want {
		t.Errorf("terminal Progress counters\n got %+v\nwant %+v", got, want)
	}
}

// TestTerminalProgressKeepsTheCounters: letting go of the executor does
// not zero what it counted. A done run's Progress answers from its
// Result; a run without one answers with exactly what its executor — held
// here, past the handle's own release — last counted.
func TestTerminalProgressKeepsTheCounters(t *testing.T) {
	rn := New(Config{MaxConcurrent: 2})
	defer rn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	done, err := rn.Submit(Submission{Program: finiteProgram(t, 64), Options: repro.Options{Procs: 4, Scheme: "gss"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := done.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 64 {
		t.Fatalf("done run executed %d iterations, want 64", res.Stats.Iterations)
	}
	sameCounters(t, done.Progress(), res.Stats)

	var live repro.Live
	started := make(chan struct{})
	cancelled, err := rn.Submit(Submission{Program: endlessProgram(t), Options: repro.Options{
		Procs: 2, Observe: func(lv repro.Live) { live = lv; close(started) }}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waitIterations(t, cancelled)
	cancelled.Cancel()
	if _, err := cancelled.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p := cancelled.Progress(); p.Iterations == 0 || p.Chunks == 0 || p.Instances == 0 || p.Efficiency == 0 {
		t.Errorf("cancelled run's terminal Progress lost its counters: %+v", p)
	}
	sameCounters(t, cancelled.Progress(), live.LiveStats())

	failed, err := rn.Submit(Submission{Program: cursedProgram(t), Options: repro.Options{
		Procs: 2, Observe: func(lv repro.Live) { live = lv }}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failed.Wait(ctx); err == nil {
		t.Fatal("cursed run reported success")
	}
	if p := failed.Progress(); p.Error == "" || p.Chunks == 0 {
		t.Errorf("failed run's terminal Progress: %+v", p)
	}
	sameCounters(t, failed.Progress(), live.LiveStats())
}
