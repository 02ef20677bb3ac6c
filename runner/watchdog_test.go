package runner

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// TestPanickedJobReleasesEverything is the panic-path regression test:
// a panicking body must finalize as failed with its context cancelled
// (nothing derived from it may leak) and the panic stack preserved.
func TestPanickedJobReleasesEverything(t *testing.T) {
	rn := New(Config{MaxConcurrent: 2})
	before := runtime.NumGoroutine()

	var leaked atomic.Int32
	for i := 0; i < 8; i++ {
		r := mustSubmit(t, rn, &Run{label: "panicker"}, func(ctx context.Context) (*repro.Result, error) {
			// A goroutine tied to the run's context: it must be
			// released when the panicking run finalizes.
			leaked.Add(1)
			go func() {
				<-ctx.Done()
				leaked.Add(-1)
			}()
			panic("job exploded")
		})
		if _, err := r.Wait(context.Background()); err == nil {
			t.Fatal("panicked body reported success")
		} else {
			if !strings.Contains(err.Error(), "run panicked: job exploded") {
				t.Fatalf("err = %v", err)
			}
			if !strings.Contains(err.Error(), "watchdog_test.go") && !strings.Contains(err.Error(), "goroutine") {
				t.Errorf("panic error lacks a stack trace: %v", err)
			}
		}
		if r.State() != StateFailed {
			t.Fatalf("state = %v, want failed", r.State())
		}
		// The cancel itself is proven below: the goroutines bound to the
		// context unwind.
		if r.ctx != nil || r.attemptCtx != nil {
			t.Fatal("panicked run still holds its contexts after finalizing")
		}
	}

	// Every context-bound goroutine must unwind.
	deadline := time.Now().Add(5 * time.Second)
	for leaked.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := leaked.Load(); n != 0 {
		t.Fatalf("%d context-bound goroutines still alive after panic finalization", n)
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless the goroutine count settles back
// to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; ; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if i > 200 {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchdogDeclaresStuckRun: a run whose heartbeat stops advancing is
// declared stuck, its probe's dump is captured, and with CancelStuck the
// run is cancelled. TestWatchdogCancelsStuckRun is the same verdict on a
// real program.
func TestWatchdogDeclaresStuckRun(t *testing.T) {
	var stuckRuns atomic.Int32
	rn := New(Config{
		MaxConcurrent: 1,
		Watchdog: WatchdogConfig{
			Interval:    50 * time.Millisecond,
			CancelStuck: true,
			OnStuck:     func(_, _, _ string) { stuckRuns.Add(1) },
		},
	})
	probe := &fakeProbe{diag: "SW=0001 list 1: 3 ICB(s)"}
	probe.beat.Store(42) // never advances
	r := mustSubmit(t, rn, probe.attach(&Run{label: "wedged"}), untilCancelled)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := r.Wait(ctx); err == nil {
		t.Fatal("stuck run finished without error")
	}
	if r.State() != StateCancelled {
		t.Fatalf("state = %v, want cancelled by watchdog", r.State())
	}
	diag := r.Progress().Stuck
	if diag == "" {
		t.Fatal("run not marked stuck")
	}
	for _, want := range []string{"run-0001 (wedged)", "heartbeat pinned at 42", "SW=0001"} {
		if !strings.Contains(diag, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, diag)
		}
	}
	if stuckRuns.Load() == 0 {
		t.Error("OnStuck never fired")
	}
	if st := rn.Stats(); st.Stalled != 0 {
		// terminal runs no longer count as stalled
		t.Errorf("Stalled = %d after cancellation, want 0", st.Stalled)
	}
}

// TestWatchdogClearsOnProgress: a slow-but-alive run must not stay
// declared stuck once its heartbeat advances again.
func TestWatchdogClearsOnProgress(t *testing.T) {
	release := make(chan struct{})
	rn := New(Config{
		MaxConcurrent: 1,
		Watchdog:      WatchdogConfig{Interval: 40 * time.Millisecond}, // no cancel
	})
	probe := &fakeProbe{}
	r := mustSubmit(t, rn, probe.attach(&Run{label: "slow"}), func(context.Context) (*repro.Result, error) {
		<-release
		return nil, nil
	})
	// Let the watchdog declare the run stuck...
	deadline := time.Now().Add(5 * time.Second)
	for r.Progress().Stuck == "" {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never declared the pinned run stuck")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := rn.Stats(); st.Stalled != 1 {
		t.Errorf("Stalled = %d, want 1", st.Stalled)
	}
	// ...then resume progress and watch the verdict clear.
	probe.beat.Add(1)
	for r.Progress().Stuck != "" {
		if time.Now().After(deadline) {
			t.Fatal("stuck verdict never cleared after progress resumed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := rn.Stats(); st.Stalled != 0 {
		t.Errorf("Stalled = %d after the verdict cleared, want 0", st.Stalled)
	}
	close(release)
	if _, err := r.Wait(context.Background()); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

// TestWatchdogDisabledWithoutHeartbeat: a run whose executor has not
// published a probe has no heartbeat to judge and is never declared
// stuck, whatever the interval.
func TestWatchdogDisabledWithoutHeartbeat(t *testing.T) {
	rn := New(Config{
		MaxConcurrent: 1,
		Watchdog:      WatchdogConfig{Interval: 10 * time.Millisecond, CancelStuck: true},
	})
	r := mustSubmit(t, rn, &Run{label: "no-heartbeat"}, func(ctx context.Context) (*repro.Result, error) {
		select {
		case <-time.After(100 * time.Millisecond):
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if _, err := r.Wait(context.Background()); err != nil {
		t.Fatalf("probe-less run was disturbed: %v", err)
	}
}

// TestWatchdogStopsWithRun: the monitor goroutine must not outlive its
// run (leak check across many short runs).
func TestWatchdogStopsWithRun(t *testing.T) {
	before := runtime.NumGoroutine()
	rn := New(Config{
		MaxConcurrent: 4,
		Watchdog:      WatchdogConfig{Interval: 20 * time.Millisecond},
	})
	for i := 0; i < 16; i++ {
		r := mustSubmit(t, rn, (&fakeProbe{}).attach(&Run{}), noop)
		if _, err := r.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	drainRunner(t, rn) // the event pump exits once the stream is delivered
	waitGoroutines(t, before)
}

// TestStuckVictimFinalizesOnce races the two eviction mechanisms
// against each other: a run with a pinned heartbeat is declared stuck
// by the watchdog (CancelStuck) at the same moment a higher-priority
// submission picks it as a preemption victim. Whatever the
// interleaving — watchdog cancel before the preemption, after it, or
// between the attempt unwinding and the requeue — the run must settle
// in exactly one terminal state (cancelled), never resurrect from the
// queue, and never double-finalize (which would panic closing its done
// channel twice).
func TestStuckVictimFinalizesOnce(t *testing.T) {
	for i := 0; i < 20; i++ {
		stuckCh := make(chan string, 1)
		rn := New(Config{
			MaxConcurrent: 1,
			Tenants:       classes,
			Watchdog: WatchdogConfig{
				Interval:    20 * time.Millisecond,
				CancelStuck: true,
				OnStuck:     func(id, _, _ string) { stuckCh <- id },
			},
		})

		// The probe's heartbeat is pinned and its checkpoint seam refuses:
		// the preemption falls back to cancelling the attempt context, the
		// same signal shape the watchdog's cancel produces — maximal
		// overlap between the paths.
		victim := mustSubmit(t, rn, (&fakeProbe{}).attach(&Run{label: "stuck-victim"}), untilCancelled)
		<-victim.Started()

		// The instant the watchdog declares the run stuck, submit the
		// preemptor so victim selection races the watchdog's Cancel.
		select {
		case <-stuckCh:
		case <-time.After(5 * time.Second):
			t.Fatal("watchdog never declared the run stuck")
		}
		high := mustSubmit(t, rn, &Run{label: "preemptor", tenant: "high"}, noop)

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := high.Wait(ctx); err != nil {
			t.Fatalf("preemptor: %v", err)
		}
		if _, err := victim.Wait(ctx); err == nil {
			t.Fatal("stuck victim reported success")
		}
		cancel()

		if st := victim.State(); st != StateCancelled {
			t.Fatalf("victim state = %v, want cancelled", st)
		}
		// Exactly one terminal outcome: the census counts the victim once,
		// and a settled run must not flip state afterwards.
		st := rn.Stats()
		if got := st.Done + st.Failed + st.Cancelled + st.Checkpointed; got != 2 {
			t.Fatalf("terminal runs = %d (%+v), want 2", got, st)
		}
		time.Sleep(5 * time.Millisecond) // let any straggling requeue surface
		if st := victim.State(); st != StateCancelled {
			t.Fatalf("victim resurrected to %v after finalizing", st)
		}
		if st := rn.Stats(); st.QueueDepth != 0 || st.Running != 0 {
			t.Fatalf("live work left behind: %+v", st)
		}
		rn.Close()
	}
}

// TestWatchdogReportsStuckRun: a run whose iteration bodies block stops
// advancing the heartbeat; the watchdog must surface a diagnostic that
// includes the executor's scheduling-state dump (Diagnostics is wired
// in automatically), and the run must still complete once unblocked.
func TestWatchdogReportsStuckRun(t *testing.T) {
	var mu sync.Mutex
	var stuckIDs []string
	rn := New(Config{
		MaxConcurrent: 1,
		Watchdog: WatchdogConfig{
			Interval: 60 * time.Millisecond,
			OnStuck: func(id, label, diagnostic string) {
				mu.Lock()
				stuckIDs = append(stuckIDs, id+"/"+label)
				mu.Unlock()
			},
		},
	})
	defer rn.Close()

	gate := make(chan struct{})
	r, err := rn.Submit(Submission{
		Program: gatedProgram(t, 50, gate),
		Options: repro.Options{Procs: 2, Engine: repro.EngineReal},
		Label:   "wedged",
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	for r.Progress().Stuck == "" {
		select {
		case <-deadline:
			t.Fatalf("watchdog never declared the gated run stuck: %+v", r.Progress())
		case <-time.After(5 * time.Millisecond):
		}
	}
	diag := r.Progress().Stuck
	for _, want := range []string{"heartbeat pinned", "core: done=false", "proc 0:", "flight recorder:"} {
		if !strings.Contains(diag, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, diag)
		}
	}
	mu.Lock()
	if len(stuckIDs) == 0 || !strings.Contains(stuckIDs[0], "wedged") {
		t.Errorf("OnStuck calls = %v, want one for the wedged run", stuckIDs)
	}
	mu.Unlock()

	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := r.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 50 {
		t.Errorf("iterations = %d, want 50", res.Stats.Iterations)
	}
}

// TestWatchdogCancelsStuckRun: with CancelStuck the watchdog trips the
// run's interrupt; once the bodies unblock the run drains out as
// cancelled.
func TestWatchdogCancelsStuckRun(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	rn := New(Config{
		MaxConcurrent: 1,
		Watchdog: WatchdogConfig{
			Interval:    60 * time.Millisecond,
			CancelStuck: true,
			// Unblocking on the stuck verdict stands in for an operator
			// clearing the external resource the run was wedged on.
			OnStuck: func(_, _, _ string) { once.Do(func() { close(gate) }) },
		},
	})
	defer rn.Close()

	r, err := rn.Submit(Submission{
		Program: gatedProgram(t, 1<<40, gate),
		Options: repro.Options{Procs: 2, Engine: repro.EngineReal},
		Label:   "doomed",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := r.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := r.State(); st != StateCancelled {
		t.Errorf("state = %v, want cancelled", st)
	}
	if p := r.Progress(); p.Stuck == "" {
		t.Error("terminal progress of a watchdog-cancelled run lost its diagnostic")
	}
}

// TestProgressReportsFailedIterations: quarantined iterations surface
// both in the final Result's failure report and in Progress snapshots.
func TestProgressReportsFailedIterations(t *testing.T) {
	prog := cursedProgram(t)
	rn := New(Config{MaxConcurrent: 1})
	defer rn.Close()
	r, err := rn.Submit(Submission{
		Program: prog,
		Options: repro.Options{Procs: 2, Failure: "isolate"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := r.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 39 || res.Stats.FailedIterations != 1 {
		t.Errorf("iterations = %d failed = %d, want 39/1",
			res.Stats.Iterations, res.Stats.FailedIterations)
	}
	rep := res.Stats.Failures
	if rep == nil || len(rep.Ranges) != 1 || rep.Ranges[0].Lo != 7 || rep.Ranges[0].Hi != 7 {
		t.Fatalf("failure report = %v, want the single quarantined iteration 7", rep)
	}
	if !strings.Contains(rep.Ranges[0].Err, "cursed") {
		t.Errorf("range error %q lost the body's panic value", rep.Ranges[0].Err)
	}
	if p := r.Progress(); p.FailedIterations != 1 {
		t.Errorf("Progress().FailedIterations = %d, want 1", p.FailedIterations)
	}
	// A failure policy the options layer does not know is rejected with
	// the sentinel before anything is enqueued.
	if _, err := rn.Submit(Submission{
		Program: prog,
		Options: repro.Options{Failure: "best-effort"},
	}); !errors.Is(err, repro.ErrBadFailure) {
		t.Errorf("Submit(best-effort) err = %v, want ErrBadFailure", err)
	}
}
