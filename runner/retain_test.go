package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro"
)

// gated returns a body that finishes when its gate closes, and the gate.
func gated() (body, chan struct{}) {
	gate := make(chan struct{})
	return func(ctx context.Context) (*repro.Result, error) {
		select {
		case <-gate:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, gate
}

// TestRetainTable walks the run table past its cap: outcomes leave it
// oldest-finished first, live runs never leave it, a released ID reads
// ErrReleased and a never-held one ErrNotFound, and a handle held across
// the release still answers.
func TestRetainTable(t *testing.T) {
	const retain = 3
	rn := New(Config{MaxConcurrent: 8, Retain: retain})
	defer rn.Close()
	live, hold := gated()
	pinned := mustSubmit(t, rn, &Run{}, live) // run-0001, live throughout
	var runs []*Run
	var gates []chan struct{}
	for i := 0; i < 6; i++ { // run-0002 … run-0007
		b, g := gated()
		runs = append(runs, mustSubmit(t, rn, &Run{}, b))
		gates = append(gates, g)
	}
	// Finish in an order unlike submission: 0005, 0003, 0007, 0002, 0006, 0004.
	for _, i := range []int{3, 1, 5, 0, 4, 2} {
		close(gates[i])
		<-runs[i].Done()
	}
	// The three earliest finishers (0005, 0003, 0007) are released.
	for _, c := range []struct {
		id   string
		want error
	}{
		{"run-0001", nil}, // live
		{"run-0002", nil}, {"run-0004", nil}, {"run-0006", nil},
		{"run-0003", ErrReleased}, {"run-0005", ErrReleased}, {"run-0007", ErrReleased},
		{"run-0008", ErrNotFound}, {"run-0000", ErrNotFound}, {"n2-run-0002", ErrNotFound}, {"bogus", ErrNotFound},
	} {
		r, err := rn.Lookup(c.id)
		if !errors.Is(err, c.want) || (err == nil) != (r != nil) {
			t.Errorf("Lookup(%s) = %v, %v; want %v", c.id, r, err, c.want)
		}
		if _, ok := rn.Get(c.id); ok != (c.want == nil) {
			t.Errorf("Get(%s) ok = %v", c.id, ok)
		}
	}
	var ids []string
	for _, r := range rn.Runs() {
		ids = append(ids, r.ID())
	}
	if got, want := fmt.Sprint(ids), "[run-0001 run-0002 run-0004 run-0006]"; got != want {
		t.Errorf("Runs = %s, want %s (live plus retained, in submission order)", got, want)
	}
	if st := rn.Stats(); st.Submitted != 7 || st.Done != 6 || st.Running != 1 {
		t.Errorf("stats = %+v, want 7 submitted, 6 done, 1 running", st)
	}
	// A released run's handle keeps its outcome.
	gone := runs[3] // run-0005
	if _, err := gone.Wait(context.Background()); err != nil {
		t.Errorf("Wait on a released handle: %v", err)
	}
	if _, err := gone.Result(); err != nil || gone.State() != StateDone || gone.Progress().ID != "run-0005" {
		t.Errorf("released handle: err %v, state %v", err, gone.State())
	}
	select {
	case <-gone.Done():
	default:
		t.Error("released handle's Done is open")
	}
	// A fresh ID never repeats a released one, and a caller-chosen one
	// never runs a released run again.
	if r := mustSubmit(t, rn, &Run{}, noop); r.ID() != "run-0008" {
		t.Errorf("fresh ID %s, want run-0008", r.ID())
	}
	if _, err := submitBody(rn, &Run{id: "run-0005"}, noop); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("resubmitting the released run-0005: %v, want ErrDuplicateID", err)
	}
	close(hold)
	<-pinned.Done()
	drainRunner(t, rn)
	if n := len(rn.Runs()); n != retain {
		t.Errorf("%d runs listed once idle, want the cap %d", n, retain)
	}
}

// TestRetainDefault pins the zero value: DefaultRetain outcomes.
func TestRetainDefault(t *testing.T) {
	rn := New(Config{MaxConcurrent: 4})
	defer rn.Close()
	for i := 0; i < DefaultRetain+2; i++ {
		r := mustSubmit(t, rn, &Run{}, noop)
		<-r.Done()
	}
	if n := len(rn.Runs()); n != DefaultRetain {
		t.Errorf("%d runs retained, want %d", n, DefaultRetain)
	}
	if _, err := rn.Lookup("run-0002"); !errors.Is(err, ErrReleased) {
		t.Errorf("Lookup(run-0002) = %v, want ErrReleased", err)
	}
	if _, err := rn.Lookup("run-0003"); err != nil {
		t.Errorf("Lookup(run-0003) = %v", err)
	}
}

// TestReserve pins what journal replay relies on: a reserved ID only
// moves the Runner's own numbering past it — a lookup still reads not
// found, and a submission of it is taken — while a released-marked one
// also reads released and refuses a resubmission. A caller-chosen ID
// never moves the own numbering of another series, and no number is
// released unless it was held: a placer's newer ID says nothing about
// its older ones.
func TestReserve(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, IDPrefix: "n1-"})
	defer rn.Close()
	rn.MarkReleased("n1-run-0001")
	rn.Reserve("n1-run-0003")
	rn.MarkReleased("n1-run-0002")
	rn.MarkReleased("n1-run-a1b2c3d4-0009")
	if r := mustSubmit(t, rn, &Run{}, noop); r.ID() != "n1-run-0004" {
		t.Errorf("fresh ID %s after three taken, want n1-run-0004", r.ID())
	}
	for id, want := range map[string]error{
		"n1-run-0001": ErrReleased, "n1-run-0002": ErrReleased, "n1-run-0003": ErrNotFound, "n1-run-0005": ErrNotFound,
		"n1-run-a1b2c3d4-0009": ErrReleased, "n1-run-a1b2c3d4-0003": ErrNotFound,
		"n1-run-a1b2c3d4-0010": ErrNotFound, "n1-run-ffffffff-0001": ErrNotFound,
	} {
		if _, err := rn.Lookup(id); !errors.Is(err, want) {
			t.Errorf("Lookup(%s) = %v, want %v", id, err, want)
		}
	}
	for id, dup := range map[string]bool{
		"n1-run-0002": true, "n1-run-a1b2c3d4-0009": true,
		"n1-run-0003": false, "n1-run-a1b2c3d4-0003": false,
	} {
		_, err := submitBody(rn, &Run{id: id}, noop)
		if errors.Is(err, ErrDuplicateID) != dup || (!dup && err != nil) {
			t.Errorf("submit of %s: %v, want duplicate %v", id, err, dup)
		}
	}
}

// TestSpans checks the held-number set against a plain map: numbers
// added in any order read back exactly, and the set keeps one range per
// maximal run of consecutive numbers.
func TestSpans(t *testing.T) {
	var s spans
	want := map[int]bool{}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 400; i++ {
		n := 1 + rng.IntN(300)
		s.add(n)
		want[n] = true
	}
	ranges := 0
	for n := 0; n <= 301; n++ {
		if s.has(n) != want[n] {
			t.Fatalf("has(%d) = %v, want %v", n, s.has(n), want[n])
		}
		if want[n] && !want[n-1] {
			ranges++
		}
	}
	if len(s) != ranges {
		t.Errorf("%d ranges for %d runs of consecutive numbers: %v", len(s), ranges, s)
	}
	for i := 1; i < len(s); i++ {
		if s[i].lo <= s[i-1].hi+1 {
			t.Fatalf("ranges %v and %v overlap or touch", s[i-1], s[i])
		}
	}
}

// TestRetainRacesReaders releases runs while other goroutines look them
// up, watch them and wait on them (make verify-gates repeats it under the
// race detector): a lookup finds a run or reads it released, never
// unknown, and every held handle reaches its outcome.
func TestRetainRacesReaders(t *testing.T) {
	const n = 300
	rn := New(Config{MaxConcurrent: 4, Retain: 4})
	defer rn.Close()
	ids := make(chan *Run, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ids {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if _, err := rn.Lookup(r.ID()); err != nil && !errors.Is(err, ErrReleased) {
					t.Errorf("Lookup(%s) = %v", r.ID(), err)
				}
				var last Progress
				for p := range r.Watch(ctx) {
					last = p
				}
				if _, err := r.Wait(ctx); err != nil || last.State != "done" {
					t.Errorf("%s: wait %v, last watched state %q", r.ID(), err, last.State)
				}
				if _, err := rn.Lookup(r.ID()); err != nil && !errors.Is(err, ErrReleased) {
					t.Errorf("Lookup(%s) after done = %v", r.ID(), err)
				}
				cancel()
			}
		}()
	}
	for i := 0; i < n; i++ {
		r, err := rn.Submit(Submission{Program: finiteProgram(t, 8), Options: repro.Options{Procs: 2}})
		if err != nil {
			t.Fatal(err)
		}
		ids <- r
		rn.Runs()
	}
	close(ids)
	wg.Wait()
	drainRunner(t, rn)
	if got := len(rn.Runs()); got != 4 {
		t.Errorf("%d runs retained, want 4", got)
	}
	if st := rn.Stats(); st.Submitted != n || st.Done != n {
		t.Errorf("stats = %+v, want %d submitted and done", st, n)
	}
}

// TestChainStopsAtPause pins how a chain leg's pause ends when something
// else landed on it: a user cancel ends the run cancelled and a deadline
// failed — each with the snapshot parked — while a pause request ends it
// checkpointed and a pause nobody asked about resumes. The leg is a fake
// that pauses on every call; what it does first makes the race
// deterministic.
func TestChainStopsAtPause(t *testing.T) {
	for _, c := range []struct {
		name      string
		timeout   time.Duration
		first     func(r *Run, ctx context.Context)
		state     State
		err       error
		snapshots int64
	}{
		{name: "cancel", first: func(r *Run, _ context.Context) { r.Cancel() },
			state: StateCancelled, err: context.Canceled},
		{name: "deadline", timeout: time.Millisecond, first: func(_ *Run, ctx context.Context) { <-ctx.Done() },
			state: StateFailed, err: context.DeadlineExceeded},
		{name: "yield", first: func(r *Run, _ context.Context) { r.yield.Store(true) },
			state: StateCheckpointed, err: repro.ErrCheckpointed},
		{name: "unasked", first: func(*Run, context.Context) {},
			state: StateDone, snapshots: 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			rn := New(Config{MaxConcurrent: 1})
			defer rn.Close()
			r := &Run{}
			legs := 0
			leg := func(ctx context.Context, _ repro.Options) (*repro.Result, error) {
				if legs++; legs == 1 {
					c.first(r, ctx)
				}
				if legs == 3 {
					return &repro.Result{}, nil
				}
				return nil, &repro.CheckpointedError{Checkpoint: &repro.Checkpoint{Program: fmt.Sprint("leg ", legs)}}
			}
			mustSubmit(t, rn, r, func(ctx context.Context) (*repro.Result, error) {
				if c.timeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, c.timeout)
					defer cancel()
				}
				return r.legs(ctx, repro.Options{}, 1, &repro.Result{}, leg)
			})
			_, err := r.Wait(context.Background())
			if r.State() != c.state || !errors.Is(err, c.err) || (c.err == nil) != (err == nil) {
				t.Fatalf("state %v, err %v; want %v, %v", r.State(), err, c.state, c.err)
			}
			if got := r.Snapshots(); got != c.snapshots {
				t.Errorf("%d snapshots published, want %d", got, c.snapshots)
			}
			if parked := r.Checkpoint() != nil; parked != (c.state != StateDone) {
				t.Errorf("snapshot parked = %v", parked)
			}
		})
	}
}
