package runmgr

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestLifecycleDone walks a successful job through queued → running →
// done.
func TestLifecycleDone(t *testing.T) {
	m := New(Config{MaxConcurrent: 1})
	r, err := m.Submit(Job{Run: func(ctx context.Context) (any, error) { return 42, nil }})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Wait(context.Background())
	if err != nil || res != 42 {
		t.Fatalf("Wait = %v, %v", res, err)
	}
	if st := r.State(); st != StateDone {
		t.Errorf("state = %v, want done", st)
	}
	sub, started, fin := r.Times()
	if sub.IsZero() || started.IsZero() || fin.IsZero() {
		t.Errorf("times not recorded: %v %v %v", sub, started, fin)
	}
}

// TestWorkerBudget verifies at most MaxConcurrent jobs run at once while
// all eventually complete.
func TestWorkerBudget(t *testing.T) {
	const budget, jobs = 3, 20
	m := New(Config{MaxConcurrent: budget})
	var active, peak, ran atomic.Int64
	var runs []*Run
	for i := 0; i < jobs; i++ {
		r, err := m.Submit(Job{Run: func(ctx context.Context) (any, error) {
			n := active.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			active.Add(-1)
			ran.Add(1)
			return nil, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	for _, r := range runs {
		if _, err := r.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if ran.Load() != jobs {
		t.Errorf("ran %d jobs, want %d", ran.Load(), jobs)
	}
	if p := peak.Load(); p > budget {
		t.Errorf("peak concurrency %d exceeded budget %d", p, budget)
	}
}

// TestCancelQueued verifies a queued run never starts.
func TestCancelQueued(t *testing.T) {
	m := New(Config{MaxConcurrent: 1})
	release := make(chan struct{})
	blocker, _ := m.Submit(Job{Run: func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	}})
	var started atomic.Bool
	queued, _ := m.Submit(Job{Run: func(ctx context.Context) (any, error) {
		started.Store(true)
		return nil, nil
	}})
	if st := queued.State(); st != StateQueued {
		t.Fatalf("state = %v, want queued", st)
	}
	queued.Cancel()
	if _, err := queued.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result err = %v, want context.Canceled", err)
	}
	if st := queued.State(); st != StateCancelled {
		t.Errorf("state = %v, want cancelled", st)
	}
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if started.Load() {
		t.Error("cancelled queued job ran anyway")
	}
}

// TestCancelRunning verifies a running run is cancelled through its
// context and the manager stays usable.
func TestCancelRunning(t *testing.T) {
	m := New(Config{MaxConcurrent: 2})
	r, _ := m.Submit(Job{Run: func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	for r.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	r.Cancel()
	if _, err := r.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := r.State(); st != StateCancelled {
		t.Errorf("state = %v, want cancelled", st)
	}
	// The budget slot must have been returned.
	next, _ := m.Submit(Job{Run: func(ctx context.Context) (any, error) { return "ok", nil }})
	if res, err := next.Wait(context.Background()); err != nil || res != "ok" {
		t.Fatalf("subsequent run = %v, %v", res, err)
	}
}

// TestQueueLimit verifies load shedding with ErrQueueFull.
func TestQueueLimit(t *testing.T) {
	m := New(Config{MaxConcurrent: 1, QueueLimit: 1})
	release := make(chan struct{})
	defer close(release)
	m.Submit(Job{Run: func(ctx context.Context) (any, error) { <-release; return nil, nil }})
	if _, err := m.Submit(Job{Run: func(ctx context.Context) (any, error) { return nil, nil }}); err != nil {
		t.Fatalf("first queued submit failed: %v", err)
	}
	if _, err := m.Submit(Job{Run: func(ctx context.Context) (any, error) { return nil, nil }}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// TestFailedJob verifies a job error lands in StateFailed, and a panic
// is contained as a failure too.
func TestFailedJob(t *testing.T) {
	m := New(Config{MaxConcurrent: 2})
	boom := errors.New("boom")
	r1, _ := m.Submit(Job{Run: func(ctx context.Context) (any, error) { return nil, boom }})
	if _, err := r1.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := r1.State(); st != StateFailed {
		t.Errorf("state = %v, want failed", st)
	}
	r2, _ := m.Submit(Job{Run: func(ctx context.Context) (any, error) { panic("job exploded") }})
	if _, err := r2.Wait(context.Background()); err == nil || r2.State() != StateFailed {
		t.Fatalf("panicking job: err = %v, state = %v", err, r2.State())
	}
}

// TestCloseCancelsEverything verifies Close sheds queued and running
// work and rejects new submissions.
func TestCloseCancelsEverything(t *testing.T) {
	m := New(Config{MaxConcurrent: 1})
	running, _ := m.Submit(Job{Run: func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	queued, _ := m.Submit(Job{Run: func(ctx context.Context) (any, error) { return nil, nil }})
	for running.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := running.State(); st != StateCancelled {
		t.Errorf("running state = %v, want cancelled", st)
	}
	if st := queued.State(); st != StateCancelled {
		t.Errorf("queued state = %v, want cancelled", st)
	}
	if _, err := m.Submit(Job{Run: func(ctx context.Context) (any, error) { return nil, nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
}

// TestIDsAndOrder verifies stable IDs and submission-ordered listing.
func TestIDsAndOrder(t *testing.T) {
	m := New(Config{MaxConcurrent: 4})
	for i := 0; i < 5; i++ {
		label := fmt.Sprintf("job-%d", i)
		if _, err := m.Submit(Job{Label: label, Run: func(ctx context.Context) (any, error) { return nil, nil }}); err != nil {
			t.Fatal(err)
		}
	}
	runs := m.Runs()
	if len(runs) != 5 {
		t.Fatalf("len(Runs) = %d", len(runs))
	}
	for i, r := range runs {
		if r.Label() != fmt.Sprintf("job-%d", i) {
			t.Errorf("run %d label = %q", i, r.Label())
		}
		if got, ok := m.Get(r.ID()); !ok || got != r {
			t.Errorf("Get(%q) = %v, %v", r.ID(), got, ok)
		}
	}
}

// TestStatsCensus verifies the Stats census tracks runs through every
// lifecycle column.
func TestStatsCensus(t *testing.T) {
	m := New(Config{MaxConcurrent: 1})
	if st := m.Stats(); st.Submitted != 0 || st.MaxConcurrent != 1 || st.Closed {
		t.Fatalf("idle stats = %+v", st)
	}

	release := make(chan struct{})
	started := make(chan struct{})
	running, err := m.Submit(Job{Run: func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Job{Run: func(ctx context.Context) (any, error) { return nil, errors.New("boom") }})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if st := m.Stats(); st.Running != 1 || st.QueueDepth != 1 || st.Submitted != 2 {
		t.Fatalf("mid-flight stats = %+v", st)
	}

	close(release)
	if _, err := running.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued.Wait(context.Background())
	st := m.Stats()
	if st.Done != 1 || st.Failed != 1 || st.Running != 0 || st.QueueDepth != 0 {
		t.Fatalf("final stats = %+v", st)
	}

	m.Close()
	if !m.Stats().Closed {
		t.Fatal("Closed not reported after Close")
	}
}

// TestPayloadRoundTrip: the submitter's handle comes back from the run,
// on the event stream and through the registry.
func TestPayloadRoundTrip(t *testing.T) {
	type handle struct{ name string }
	seen := make(chan any, 1)
	m := New(Config{OnEvent: func(ev Event) {
		if ev.Kind == EventSubmitted {
			seen <- ev.Run.Payload()
		}
	}})
	defer m.Close()
	h := &handle{"mine"}
	r, err := m.Submit(Job{Payload: h, Run: func(context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != h {
		t.Errorf("Submitted event payload = %v, want %v", got, h)
	}
	if got, _ := m.Get(r.ID()); got.Payload() != h {
		t.Errorf("registry payload = %v, want %v", got.Payload(), h)
	}
}
