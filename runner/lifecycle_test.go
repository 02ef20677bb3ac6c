package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

// The tests in this file (and the fake-bodied ones in events_test.go,
// sched_test.go and watchdog_test.go) drive the lifecycle machine through
// the run's unexported body seam: a fake body stands in for the program,
// a fakeProbe for the executor's probe.

// body is the signature of Run.body.
type body = func(ctx context.Context) (*repro.Result, error)

// submitBody submits r — label, tenant and id as the test set them — with
// a fake body, through the same rn.submit that Submit uses.
func submitBody(rn *Runner, r *Run, b body) (*Run, error) {
	r.body = b
	if err := rn.submit(r, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// mustSubmit is submitBody for the submissions a test expects to succeed.
func mustSubmit(t *testing.T, rn *Runner, r *Run, b body) *Run {
	t.Helper()
	if _, err := submitBody(rn, r, b); err != nil {
		t.Fatal(err)
	}
	return r
}

func noop(context.Context) (*repro.Result, error) { return nil, nil }

// untilCancelled blocks until its context is cancelled.
func untilCancelled(ctx context.Context) (*repro.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// yielded is what a body returns after a cooperative pause.
func yielded() error { return &repro.CheckpointedError{} }

// classes gives the fake-bodied tests priority classes to submit under:
// tenant "high" outranks the default, "urgent" outranks both.
var classes = map[string]Tenant{"high": {Priority: 5}, "urgent": {Priority: 9}}

// fakeProbe stands in for the executor's probe: a heartbeat the test
// moves, a canned diagnostic dump, and a checkpoint seam that accepts a
// request (and tells the body over yield) only when yield is non-nil.
type fakeProbe struct {
	beat  atomic.Int64
	diag  string
	yield chan struct{}
}

func (p *fakeProbe) LiveStats() core.Snapshot { return core.Snapshot{Chunks: p.beat.Load()} }
func (p *fakeProbe) Completed() bool          { return false }
func (p *fakeProbe) Diagnose() string         { return p.diag }

func (p *fakeProbe) RequestCheckpoint() bool {
	if p.yield == nil {
		return false
	}
	select {
	case p.yield <- struct{}{}:
	default:
	}
	return true
}

// attach publishes p as r's probe, as Options.Observe does for a real run.
func (p *fakeProbe) attach(r *Run) *Run {
	var lv repro.Live = p
	r.probe.Store(&lv)
	return r
}

// attemptsOf reads how many times r has been dispatched.
func attemptsOf(r *Run) int {
	r.rn.mu.Lock()
	defer r.rn.mu.Unlock()
	return r.attempts
}

// yielder returns a probe whose checkpoint seam accepts requests.
func yielder() *fakeProbe { return &fakeProbe{yield: make(chan struct{}, 1)} }

// TestLifecycleDone walks a successful run through queued → running →
// done.
func TestLifecycleDone(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	want := &repro.Result{Makespan: 42}
	r := mustSubmit(t, rn, &Run{}, func(context.Context) (*repro.Result, error) { return want, nil })
	res, err := r.Wait(context.Background())
	if err != nil || res != want {
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

// TestWorkerBudget verifies at most MaxConcurrent runs execute at once
// while all eventually complete.
func TestWorkerBudget(t *testing.T) {
	const budget, jobs = 3, 20
	rn := New(Config{MaxConcurrent: budget})
	var active, peak, ran atomic.Int64
	var runs []*Run
	for i := 0; i < jobs; i++ {
		runs = append(runs, mustSubmit(t, rn, &Run{}, func(context.Context) (*repro.Result, error) {
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
		}))
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
	rn := New(Config{MaxConcurrent: 1})
	release := make(chan struct{})
	blocker := mustSubmit(t, rn, &Run{}, func(context.Context) (*repro.Result, error) {
		<-release
		return nil, nil
	})
	var started atomic.Bool
	queued := mustSubmit(t, rn, &Run{}, func(context.Context) (*repro.Result, error) {
		started.Store(true)
		return nil, nil
	})
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
		t.Error("cancelled queued run ran anyway")
	}
}

// TestCancelRunning verifies a running run is cancelled through its
// context and the Runner stays usable.
func TestCancelRunning(t *testing.T) {
	rn := New(Config{MaxConcurrent: 2})
	r := mustSubmit(t, rn, &Run{}, untilCancelled)
	<-r.Started()
	r.Cancel()
	if _, err := r.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := r.State(); st != StateCancelled {
		t.Errorf("state = %v, want cancelled", st)
	}
	// The budget slot must have been returned.
	next := mustSubmit(t, rn, &Run{}, noop)
	if _, err := next.Wait(context.Background()); err != nil {
		t.Fatalf("subsequent run: %v", err)
	}
}

// TestQueueLimit verifies load shedding with ErrQueueFull.
func TestQueueLimit(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, QueueLimit: 1})
	release := make(chan struct{})
	defer close(release)
	mustSubmit(t, rn, &Run{}, func(context.Context) (*repro.Result, error) { <-release; return nil, nil })
	if _, err := submitBody(rn, &Run{}, noop); err != nil {
		t.Fatalf("first queued submit failed: %v", err)
	}
	if _, err := submitBody(rn, &Run{}, noop); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

// TestFailedJob verifies a body's error lands in StateFailed, and a panic
// is contained as a failure too.
func TestFailedJob(t *testing.T) {
	rn := New(Config{MaxConcurrent: 2})
	boom := errors.New("boom")
	r1 := mustSubmit(t, rn, &Run{}, func(context.Context) (*repro.Result, error) { return nil, boom })
	if _, err := r1.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := r1.State(); st != StateFailed {
		t.Errorf("state = %v, want failed", st)
	}
	r2 := mustSubmit(t, rn, &Run{}, func(context.Context) (*repro.Result, error) { panic("job exploded") })
	if _, err := r2.Wait(context.Background()); err == nil || r2.State() != StateFailed {
		t.Fatalf("panicking body: err = %v, state = %v", err, r2.State())
	}
}

// TestCloseCancelsEverything verifies Close sheds queued and running
// work and rejects new submissions.
func TestCloseCancelsEverything(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	running := mustSubmit(t, rn, &Run{}, untilCancelled)
	queued := mustSubmit(t, rn, &Run{}, noop)
	<-running.Started()
	rn.Close()
	drainRunner(t, rn)
	if st := running.State(); st != StateCancelled {
		t.Errorf("running state = %v, want cancelled", st)
	}
	if st := queued.State(); st != StateCancelled {
		t.Errorf("queued state = %v, want cancelled", st)
	}
	if _, err := submitBody(rn, &Run{}, noop); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
}

// TestIDsAndOrder verifies stable IDs and submission-ordered listing.
func TestIDsAndOrder(t *testing.T) {
	rn := New(Config{MaxConcurrent: 4})
	for i := 0; i < 5; i++ {
		mustSubmit(t, rn, &Run{label: fmt.Sprintf("job-%d", i)}, noop)
	}
	runs := rn.Runs()
	if len(runs) != 5 {
		t.Fatalf("len(Runs) = %d", len(runs))
	}
	for i, r := range runs {
		if r.Label() != fmt.Sprintf("job-%d", i) {
			t.Errorf("run %d label = %q", i, r.Label())
		}
		if got, ok := rn.Get(r.ID()); !ok || got != r {
			t.Errorf("Get(%q) = %v, %v", r.ID(), got, ok)
		}
	}
}

// TestStatsCensus verifies the Stats census tracks runs through every
// lifecycle column.
func TestStatsCensus(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	if st := rn.Stats(); st.Submitted != 0 || st.MaxConcurrent != 1 || st.Closed {
		t.Fatalf("idle stats = %+v", st)
	}

	release := make(chan struct{})
	running := mustSubmit(t, rn, &Run{}, func(ctx context.Context) (*repro.Result, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	queued := mustSubmit(t, rn, &Run{}, func(context.Context) (*repro.Result, error) { return nil, errors.New("boom") })
	<-running.Started()
	if st := rn.Stats(); st.Running != 1 || st.QueueDepth != 1 || st.Submitted != 2 {
		t.Fatalf("mid-flight stats = %+v", st)
	}

	close(release)
	if _, err := running.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued.Wait(context.Background())
	st := rn.Stats()
	if st.Done != 1 || st.Failed != 1 || st.Running != 0 || st.QueueDepth != 0 {
		t.Fatalf("final stats = %+v", st)
	}

	rn.Close()
	if !rn.Stats().Closed {
		t.Fatal("Closed not reported after Close")
	}
}

// TestCheckpointedIsTerminal walks a body that ends with a checkpoint
// into the checkpointed state and verifies the census counts it.
func TestCheckpointedIsTerminal(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	r := mustSubmit(t, rn, &Run{}, func(context.Context) (*repro.Result, error) {
		return nil, fmt.Errorf("paused at chunk 12: %w", yielded())
	})
	if _, err := r.Wait(context.Background()); !errors.Is(err, repro.ErrCheckpointed) {
		t.Fatalf("checkpointed run's error = %v, want the repro chain intact", err)
	}
	if st := r.State(); st != StateCheckpointed {
		t.Fatalf("state = %v, want checkpointed", st)
	}
	if !StateCheckpointed.Terminal() {
		t.Error("StateCheckpointed is not terminal")
	}
	if got := StateCheckpointed.String(); got != "checkpointed" {
		t.Errorf("String() = %q", got)
	}
	st := rn.Stats()
	if st.Checkpointed != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v, want 1 checkpointed, 0 failed", st)
	}
	// The worker slot must be released: a follow-up run executes.
	r2 := mustSubmit(t, rn, &Run{}, noop)
	if _, err := r2.Wait(context.Background()); err != nil {
		t.Fatalf("follow-up: %v", err)
	}
}

// TestSubmitIDPreservesAndBumps verifies journal replay semantics:
// replayed identifiers stick, later runner-assigned ones never collide,
// and duplicates are rejected.
func TestSubmitIDPreservesAndBumps(t *testing.T) {
	rn := New(Config{MaxConcurrent: 4})
	r, err := submitBody(rn, &Run{id: "run-0042"}, noop)
	if err != nil || r.ID() != "run-0042" {
		t.Fatalf("submit with ID = %v, %v", r, err)
	}
	if _, err := submitBody(rn, &Run{id: "run-0042"}, noop); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate ID: err = %v, want ErrDuplicateID", err)
	}
	if fresh := mustSubmit(t, rn, &Run{}, noop); fresh.ID() != "run-0043" {
		t.Errorf("fresh ID = %q, want run-0043 (sequence bumped past replay)", fresh.ID())
	}
	odd, err := submitBody(rn, &Run{id: "imported/weird.id"}, noop)
	if err != nil || odd.ID() != "imported/weird.id" {
		t.Fatalf("non-numeric ID = %v, %v", odd, err)
	}
}

func TestTrailingNumber(t *testing.T) {
	cases := []struct {
		id string
		n  int
		ok bool
	}{
		{"run-0042", 42, true}, {"run-7", 7, true}, {"123", 123, true},
		{"run-", 0, false}, {"", 0, false}, {"abc", 0, false},
		{"run-99999999999999999999", 0, false},
	}
	for _, c := range cases {
		n, ok := trailingNumber(c.id)
		if n != c.n || ok != c.ok {
			t.Errorf("trailingNumber(%q) = %d, %v; want %d, %v", c.id, n, ok, c.n, c.ok)
		}
	}
}

// IDPrefix makes runner-assigned IDs cluster-unique while preserving
// the trailing-number replay contract: a replayed prefixed ID still
// bumps the sequence past itself.
func TestIDPrefix(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, IDPrefix: "n2-"})
	if r1 := mustSubmit(t, rn, &Run{}, noop); r1.ID() != "n2-run-0001" {
		t.Fatalf("ID = %q, want n2-run-0001", r1.ID())
	}
	mustSubmit(t, rn, &Run{id: "n2-run-0007"}, noop)
	if r3 := mustSubmit(t, rn, &Run{}, noop); r3.ID() != "n2-run-0008" {
		t.Fatalf("ID after replaying n2-run-0007 = %q, want n2-run-0008", r3.ID())
	}
}

// TestStartedSignal verifies Started closes exactly when a run begins
// executing, and that queued runs blocked behind the budget have not
// started.
func TestStartedSignal(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	release := make(chan struct{})
	blocker := mustSubmit(t, rn, &Run{}, func(context.Context) (*repro.Result, error) {
		<-release
		return nil, nil
	})
	select {
	case <-blocker.Started():
	case <-time.After(2 * time.Second):
		t.Fatal("first run never started")
	}
	queued := mustSubmit(t, rn, &Run{}, noop)
	select {
	case <-queued.Started():
		t.Fatal("second run started over a full worker budget")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-queued.Started():
	case <-time.After(2 * time.Second):
		t.Fatal("second run never started after the slot freed")
	}
	if _, err := queued.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// offerLog is a preempting scheduler that records what victim was
// offered and always declines.
type offerLog struct {
	fifo
	offers [][]*Run
}

func (o *offerLog) victim(_ *Run, running []*Run) *Run {
	o.offers = append(o.offers, append([]*Run(nil), running...))
	return nil
}

// TestVictimScanIsBounded pins the per-request work of a contended
// submit, of Close and of Drain: after 1 000 runs have come and gone, the
// scheduler is offered exactly the running set, and the Runner's live set
// holds the live runs only.
func TestVictimScanIsBounded(t *testing.T) {
	sched := &offerLog{}
	rn := New(Config{MaxConcurrent: 2})
	rn.sched = sched
	defer rn.Close()
	for i := 0; i < 1000; i++ {
		mustSubmit(t, rn, &Run{}, noop)
	}
	drainRunner(t, rn)
	for _, offer := range sched.offers { // the submits that found both slots busy
		if len(offer) != 2 {
			t.Fatalf("victim was offered %d run(s) with 2 slots", len(offer))
		}
	}
	sched.offers = nil

	holders := []*Run{mustSubmit(t, rn, &Run{}, untilCancelled), mustSubmit(t, rn, &Run{}, untilCancelled)}
	waiting := mustSubmit(t, rn, &Run{}, noop)
	if len(sched.offers) != 1 {
		t.Fatalf("victim consulted %d time(s) by one contended submit, want 1", len(sched.offers))
	}
	offer := sched.offers[0]
	if len(offer) != 2 || !(offer[0] == holders[0] && offer[1] == holders[1] || offer[0] == holders[1] && offer[1] == holders[0]) {
		t.Errorf("victim was offered %d run(s), want exactly the two running ones", len(offer))
	}
	rn.mu.Lock()
	live, running := len(rn.live), len(rn.running)
	rn.mu.Unlock()
	if live != 3 || running != 2 {
		t.Errorf("live set holds %d run(s) and running set %d after 1000 terminal runs, want 3 and 2", live, running)
	}

	// Drain waits on the live runs (and the event pump), not on history.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := rn.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Drain with live runs = %v, want deadline exceeded", err)
	}
	cancel()
	rn.Close()
	drainRunner(t, rn)
	for _, r := range append(holders, waiting) {
		if st := r.State(); st != StateCancelled {
			t.Errorf("run %s is %v after Close, want cancelled", r.ID(), st)
		}
	}
	rn.mu.Lock()
	live, running = len(rn.live), len(rn.running)
	rn.mu.Unlock()
	if live != 0 || running != 0 {
		t.Errorf("after the drain: %d live, %d running, want none", live, running)
	}
}
