package runmgr

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// eventGrammar is the per-run sequence Config.OnEvent promises, one
// letter per kind (S submitted, R started, N snapshot, P preempted, T
// terminal): any number of preempted attempts, at most one attempt that
// was not preempted, exactly one Terminal — which follows a Preempted
// directly when the requeued run is cancelled before it redispatches.
var eventGrammar = regexp.MustCompile(`^S(RN*P)*(RN*)?T$`)

var eventLetters = [...]byte{
	EventSubmitted: 'S', EventStarted: 'R', EventSnapshot: 'N',
	EventPreempted: 'P', EventTerminal: 'T',
}

// eventLog records an event stream as its consumer sees it, and fails
// the test if two deliveries ever overlap.
type eventLog struct {
	t        *testing.T
	inFlight atomic.Int32
	mu       sync.Mutex
	perRun   map[string]*strings.Builder
}

func newEventLog(t *testing.T) *eventLog {
	return &eventLog{t: t, perRun: map[string]*strings.Builder{}}
}

func (l *eventLog) record(ev Event) {
	if l.inFlight.Add(1) != 1 {
		l.t.Error("OnEvent called concurrently")
	}
	defer l.inFlight.Add(-1)
	l.mu.Lock()
	defer l.mu.Unlock()
	id := ev.Run.ID()
	b := l.perRun[id]
	if b == nil {
		b = &strings.Builder{}
		l.perRun[id] = b
	}
	b.WriteByte(eventLetters[ev.Kind])
}

func (l *eventLog) sequence(id string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b := l.perRun[id]; b != nil {
		return b.String()
	}
	return ""
}

// checkAll holds every recorded run to the grammar.
func (l *eventLog) checkAll() {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, b := range l.perRun {
		if !eventGrammar.MatchString(b.String()) {
			l.t.Errorf("run %s: event sequence %q breaks the grammar %s", id, b, eventGrammar)
		}
	}
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestEventGrammar drives one run down every lifecycle path the manager
// owns and pins the exact event sequence each produces.
func TestEventGrammar(t *testing.T) {
	type env struct {
		m   *Manager
		log *eventLog
	}
	// blocker occupies the only worker slot until released.
	blocker := func(e env) (release func()) {
		gate := make(chan struct{})
		r, err := e.m.Submit(Job{Label: "blocker", Run: func(ctx context.Context) (any, error) {
			<-gate
			return nil, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		<-r.Started()
		return func() { close(gate) }
	}
	cases := []struct {
		name string
		// drive submits the run under test, pushes it to its terminal
		// state and returns it.
		drive func(e env) *Run
		want  string
		state State
	}{
		{"done", func(e env) *Run {
			r, _ := e.m.Submit(Job{Run: func(context.Context) (any, error) { return 1, nil }})
			return r
		}, "SRT", StateDone},
		{"failed", func(e env) *Run {
			r, _ := e.m.Submit(Job{Run: func(context.Context) (any, error) { return nil, errors.New("boom") }})
			return r
		}, "SRT", StateFailed},
		{"job panic", func(e env) *Run {
			r, _ := e.m.Submit(Job{Run: func(context.Context) (any, error) { panic("kaboom") }})
			return r
		}, "SRT", StateFailed},
		{"checkpointed outcome", func(e env) *Run {
			r, _ := e.m.Submit(Job{Run: func(context.Context) (any, error) {
				return nil, fmt.Errorf("paused: %w", ErrCheckpointed)
			}})
			return r
		}, "SRT", StateCheckpointed},
		{"snapshots from the job", func(e env) *Run {
			r, _ := e.m.Submit(Job{Run: func(ctx context.Context) (any, error) {
				for i := 0; i < 3; i++ {
					EmitSnapshot(ctx)
				}
				return nil, nil
			}})
			return r
		}, "SRNNNT", StateDone},
		{"cancel while queued", func(e env) *Run {
			release := blocker(e)
			defer release()
			r, _ := e.m.Submit(Job{Run: func(context.Context) (any, error) { return nil, nil }})
			r.Cancel()
			return r
		}, "ST", StateCancelled},
		{"cancel while running", func(e env) *Run {
			r, _ := e.m.Submit(Job{Run: func(ctx context.Context) (any, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}})
			<-r.Started()
			r.Cancel()
			return r
		}, "SRT", StateCancelled},
		{"cooperative preempt, requeue, resume", func(e env) *Run {
			yield := make(chan struct{}, 1)
			var attempts atomic.Int32
			low, _ := e.m.Submit(Job{
				Run: func(ctx context.Context) (any, error) {
					if attempts.Add(1) == 1 {
						<-yield
						return nil, fmt.Errorf("yielding: %w", ErrCheckpointed)
					}
					return "resumed", nil
				},
				Preempt: func() bool { yield <- struct{}{}; return true },
			})
			<-low.Started()
			high, _ := e.m.Submit(Job{Priority: 5, Run: func(context.Context) (any, error) { return nil, nil }})
			high.Wait(context.Background())
			return low
		}, "SRPRT", StateDone},
		{"non-cooperative preempt", func(e env) *Run {
			var attempts atomic.Int32
			low, _ := e.m.Submit(Job{Run: func(ctx context.Context) (any, error) {
				if attempts.Add(1) == 1 {
					<-ctx.Done() // evicted through the attempt context
					return nil, ctx.Err()
				}
				return nil, nil
			}})
			<-low.Started()
			high, _ := e.m.Submit(Job{Priority: 5, Run: func(context.Context) (any, error) { return nil, nil }})
			high.Wait(context.Background())
			return low
		}, "SRPRT", StateDone},
		{"cancel while requeued after a preemption", func(e env) *Run {
			yield := make(chan struct{}, 1)
			hold := make(chan struct{})
			low, _ := e.m.Submit(Job{
				Run: func(ctx context.Context) (any, error) {
					<-yield
					return nil, fmt.Errorf("yielding: %w", ErrCheckpointed)
				},
				Preempt: func() bool { yield <- struct{}{}; return true },
			})
			<-low.Started()
			high, _ := e.m.Submit(Job{Priority: 5, Run: func(context.Context) (any, error) {
				<-hold
				return nil, nil
			}})
			<-high.Started() // low has been requeued behind it
			low.Cancel()
			close(hold)
			return low
		}, "SRPT", StateCancelled},
		{"Close with live runs", func(e env) *Run {
			running, _ := e.m.Submit(Job{Run: func(ctx context.Context) (any, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}})
			<-running.Started()
			queued, _ := e.m.Submit(Job{Run: func(context.Context) (any, error) { return nil, nil }})
			e.m.Close()
			drain(t, e.m)
			if got := e.log.sequence(queued.ID()); got != "ST" {
				t.Errorf("queued run closed with events %q, want ST", got)
			}
			return running
		}, "SRT", StateCancelled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := newEventLog(t)
			m := New(Config{MaxConcurrent: 1, Scheduler: NewWFQ(), OnEvent: log.record})
			defer m.Close()
			r := tc.drive(env{m, log})
			if r == nil {
				t.Fatal("submission failed")
			}
			drain(t, m)
			if got := log.sequence(r.ID()); got != tc.want {
				t.Errorf("events = %q, want %q", got, tc.want)
			}
			if st := r.State(); st != tc.state {
				t.Errorf("state = %v, want %v", st, tc.state)
			}
			log.checkAll()
		})
	}
}

// TestSubmittedDeliveredBeforeSubmitReturns pins the handshake the
// daemon's journal relies on: by the time SubmitID returns, the consumer
// has seen the run's Submitted event — even while it is slow.
func TestSubmittedDeliveredBeforeSubmitReturns(t *testing.T) {
	var seen sync.Map
	m := New(Config{MaxConcurrent: 2, OnEvent: func(ev Event) {
		if ev.Kind == EventSubmitted {
			time.Sleep(time.Millisecond)
			seen.Store(ev.Run.ID(), true)
		}
	}})
	defer m.Close()
	for i := 0; i < 20; i++ {
		r, err := m.Submit(Job{Run: func(context.Context) (any, error) { return nil, nil }})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := seen.Load(r.ID()); !ok {
			t.Fatalf("Submit returned %s before its Submitted event was delivered", r.ID())
		}
	}
	drain(t, m)
}

// recount derives a census from the run handles, the way Stats used to.
func recount(m *Manager) (st Stats, tenants map[string][2]int) {
	tenants = map[string][2]int{}
	for _, r := range m.Runs() {
		st.Submitted++
		s := r.State()
		load := tenants[r.Tenant()]
		switch s {
		case StateQueued:
			st.QueueDepth++
			load[0]++
		case StateRunning:
			st.Running++
			load[1]++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		case StateCheckpointed:
			st.Checkpointed++
		}
		tenants[r.Tenant()] = load
		if _, stuck := r.Stuck(); stuck && !s.Terminal() {
			st.Stalled++
		}
	}
	return st, tenants
}

func checkCensus(t *testing.T, m *Manager, when string) {
	t.Helper()
	want, tenants := recount(m)
	got := m.Stats()
	want.Preempted, want.Scheduler, want.MaxConcurrent, want.Closed =
		got.Preempted, got.Scheduler, got.MaxConcurrent, got.Closed
	if got != want {
		t.Errorf("%s: Stats() = %+v, recount over Runs() = %+v", when, got, want)
	}
	for tenant, load := range tenants {
		if q, r := m.TenantLoad(tenant); q != load[0] || r != load[1] {
			t.Errorf("%s: TenantLoad(%q) = %d queued, %d running; recount %d, %d",
				when, tenant, q, r, load[0], load[1])
		}
	}
}

// TestEventStormKeepsCensusAndGrammar is the randomized storm: several
// goroutines submit, cancel and preempt at once. With the manager
// quiesced mid-flight (every slot held, a backlog queued) and again after
// the drain, the O(1) census equals a recount over the handles, and every
// run's event sequence obeys the grammar.
func TestEventStormKeepsCensusAndGrammar(t *testing.T) {
	log := newEventLog(t)
	m := New(Config{MaxConcurrent: 3, Scheduler: NewWFQ(), OnEvent: log.record})
	defer m.Close()
	tenants := []string{"", "alpha", "beta"}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0x5707))
			var mine []*Run
			for i := 0; i < 60; i++ {
				yield := make(chan struct{}, 1)
				spin := time.Duration(rng.IntN(300)) * time.Microsecond
				fail := rng.IntN(8) == 0
				job := Job{
					Tenant:   tenants[rng.IntN(len(tenants))],
					Priority: rng.IntN(3),
					Run: func(ctx context.Context) (any, error) {
						select {
						case <-yield:
							return nil, fmt.Errorf("yielding: %w", ErrCheckpointed)
						case <-ctx.Done():
							return nil, ctx.Err()
						case <-time.After(spin):
						}
						if fail {
							return nil, errors.New("boom")
						}
						EmitSnapshot(ctx)
						return nil, nil
					},
				}
				if rng.IntN(2) == 0 {
					job.Preempt = func() bool {
						select {
						case yield <- struct{}{}:
						default:
						}
						return true
					}
				}
				r, err := m.Submit(job)
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, r)
				if rng.IntN(4) == 0 {
					mine[rng.IntN(len(mine))].Cancel()
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	drain(t, m)

	// Quiesce with live work: three gated runs hold every slot, five more
	// wait behind them. No transition is in flight while we count.
	gate := make(chan struct{})
	var held []*Run
	for i := 0; i < 8; i++ {
		r, err := m.Submit(Job{Tenant: tenants[i%len(tenants)], Run: func(ctx context.Context) (any, error) {
			select {
			case <-gate:
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, r)
	}
	for _, r := range held[:3] {
		<-r.Started()
	}
	checkCensus(t, m, "quiesced mid-flight")
	if st := m.Stats(); st.Running != 3 || st.QueueDepth != 5 {
		t.Errorf("quiesced stats = %+v, want 3 running and 5 queued", st)
	}
	held[7].Cancel() // one queued cancel, then let the rest through
	close(gate)
	drain(t, m)
	checkCensus(t, m, "after the drain")
	if st := m.Stats(); st.Running != 0 || st.QueueDepth != 0 || st.Submitted != 4*60+8 {
		t.Errorf("final stats = %+v", st)
	}
	log.checkAll()
	log.mu.Lock()
	n := len(log.perRun)
	log.mu.Unlock()
	if n != 4*60+8 {
		t.Errorf("event stream covered %d runs, want %d", n, 4*60+8)
	}
}
