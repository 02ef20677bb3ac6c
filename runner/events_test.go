package runner

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

	"repro"
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

// eventLog records the stream as Config.OnEvent sees it and fails the
// test on overlapping deliveries, a missing handle, or — for a run with a
// real body — a Snapshot with no restore point behind it.
type eventLog struct {
	t        *testing.T
	fakes    bool // the bodies are fakes: their snapshots park nothing
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
	if ev.Run == nil {
		l.t.Errorf("%v event without a run handle", ev.Kind)
		return
	}
	if ev.Kind == EventSnapshot && ev.Run.Checkpoint() == nil && !l.fakes {
		l.t.Errorf("run %s: Snapshot event with no restore point parked", ev.Run.ID())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.perRun[ev.Run.ID()]
	if b == nil {
		b = &strings.Builder{}
		l.perRun[ev.Run.ID()] = b
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

func drainRunner(t *testing.T, rn *Runner) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := rn.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestEventGrammar drives one fake-bodied run down every lifecycle path
// of the machine and pins the exact event sequence each produces;
// TestEventGrammarRunnerPaths does the same for the paths only a real
// program takes.
func TestEventGrammar(t *testing.T) {
	type env struct {
		rn  *Runner
		log *eventLog
	}
	// blocker occupies the only worker slot until released.
	blocker := func(e env) (release func()) {
		gate := make(chan struct{})
		r := mustSubmit(t, e.rn, &Run{label: "blocker"}, func(context.Context) (*repro.Result, error) {
			<-gate
			return nil, nil
		})
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
			return mustSubmit(t, e.rn, &Run{}, noop)
		}, "SRT", StateDone},
		{"failed", func(e env) *Run {
			return mustSubmit(t, e.rn, &Run{}, func(context.Context) (*repro.Result, error) { return nil, errors.New("boom") })
		}, "SRT", StateFailed},
		{"job panic", func(e env) *Run {
			return mustSubmit(t, e.rn, &Run{}, func(context.Context) (*repro.Result, error) { panic("kaboom") })
		}, "SRT", StateFailed},
		{"checkpointed outcome", func(e env) *Run {
			return mustSubmit(t, e.rn, &Run{}, func(context.Context) (*repro.Result, error) {
				return nil, fmt.Errorf("paused: %w", yielded())
			})
		}, "SRT", StateCheckpointed},
		{"snapshots from the job", func(e env) *Run {
			r := &Run{}
			return mustSubmit(t, e.rn, r, func(context.Context) (*repro.Result, error) {
				for i := 0; i < 3; i++ {
					r.emitSnapshot()
				}
				return nil, nil
			})
		}, "SRNNNT", StateDone},
		{"cancel while queued", func(e env) *Run {
			release := blocker(e)
			defer release()
			r := mustSubmit(t, e.rn, &Run{}, noop)
			r.Cancel()
			return r
		}, "ST", StateCancelled},
		{"cancel while running", func(e env) *Run {
			r := mustSubmit(t, e.rn, &Run{}, untilCancelled)
			<-r.Started()
			r.Cancel()
			return r
		}, "SRT", StateCancelled},
		{"cooperative preempt, requeue, resume", func(e env) *Run {
			probe := yielder()
			var attempts atomic.Int32
			low := mustSubmit(t, e.rn, probe.attach(&Run{}), func(context.Context) (*repro.Result, error) {
				if attempts.Add(1) == 1 {
					<-probe.yield
					return nil, fmt.Errorf("yielding: %w", yielded())
				}
				return nil, nil
			})
			<-low.Started()
			high := mustSubmit(t, e.rn, &Run{tenant: "high"}, noop)
			high.Wait(context.Background())
			return low
		}, "SRPRT", StateDone},
		{"non-cooperative preempt", func(e env) *Run {
			var attempts atomic.Int32
			low := mustSubmit(t, e.rn, &Run{}, func(ctx context.Context) (*repro.Result, error) {
				if attempts.Add(1) == 1 {
					return untilCancelled(ctx) // evicted through the attempt context
				}
				return nil, nil
			})
			<-low.Started()
			high := mustSubmit(t, e.rn, &Run{tenant: "high"}, noop)
			high.Wait(context.Background())
			return low
		}, "SRPRT", StateDone},
		{"cancel while requeued after a preemption", func(e env) *Run {
			probe := yielder()
			hold := make(chan struct{})
			low := mustSubmit(t, e.rn, probe.attach(&Run{}), func(context.Context) (*repro.Result, error) {
				<-probe.yield
				return nil, fmt.Errorf("yielding: %w", yielded())
			})
			<-low.Started()
			high := mustSubmit(t, e.rn, &Run{tenant: "high"}, func(context.Context) (*repro.Result, error) {
				<-hold
				return nil, nil
			})
			<-high.Started() // low has been requeued behind it
			low.Cancel()
			close(hold)
			return low
		}, "SRPT", StateCancelled},
		{"Close with live runs", func(e env) *Run {
			running := mustSubmit(t, e.rn, &Run{}, untilCancelled)
			<-running.Started()
			queued := mustSubmit(t, e.rn, &Run{}, noop)
			e.rn.Close()
			drainRunner(t, e.rn)
			if got := e.log.sequence(queued.ID()); got != "ST" {
				t.Errorf("queued run closed with events %q, want ST", got)
			}
			return running
		}, "SRT", StateCancelled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := newEventLog(t)
			log.fakes = true
			rn := New(Config{MaxConcurrent: 1, Scheduler: "wfq", Tenants: classes, OnEvent: log.record})
			defer rn.Close()
			r := tc.drive(env{rn, log})
			drainRunner(t, rn)
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
// daemon's journal relies on: by the time Submit returns, the consumer
// has seen the run's Submitted event — even while it is slow.
func TestSubmittedDeliveredBeforeSubmitReturns(t *testing.T) {
	var seen sync.Map
	rn := New(Config{MaxConcurrent: 2, OnEvent: func(ev Event) {
		if ev.Kind == EventSubmitted {
			time.Sleep(time.Millisecond)
			seen.Store(ev.Run.ID(), true)
		}
	}})
	defer rn.Close()
	for i := 0; i < 20; i++ {
		r := mustSubmit(t, rn, &Run{}, noop)
		if _, ok := seen.Load(r.ID()); !ok {
			t.Fatalf("submit returned %s before its Submitted event was delivered", r.ID())
		}
	}
	drainRunner(t, rn)
}

// checkCensus holds the O(1) censuses to a recount over the run handles:
// Stats() against every run's state, each tenant's queued/running figures
// against its runs'. The caller has quiesced the Runner.
func checkCensus(t *testing.T, rn *Runner, when string) {
	t.Helper()
	var want Stats
	load := map[string][2]int{}
	for _, r := range rn.Runs() {
		want.Submitted++
		name := tenantName(r.Tenant())
		l := load[name]
		switch r.State() {
		case StateQueued:
			want.QueueDepth++
			l[0]++
		case StateRunning:
			want.Running++
			l[1]++
		case StateDone:
			want.Done++
		case StateFailed:
			want.Failed++
		case StateCancelled:
			want.Cancelled++
		case StateCheckpointed:
			want.Checkpointed++
		}
		load[name] = l
	}
	got := rn.Stats()
	want.Preempted, want.Scheduler, want.MaxConcurrent, want.Closed =
		got.Preempted, got.Scheduler, got.MaxConcurrent, got.Closed
	if got != want {
		t.Errorf("%s: Stats() = %+v, recount over Runs() = %+v", when, got, want)
	}
	for _, row := range rn.TenantStats() {
		if l := load[row.Tenant]; row.Queued != l[0] || row.Running != l[1] {
			t.Errorf("%s: tenant %s reports %d queued, %d running; recount %d, %d",
				when, row.Tenant, row.Queued, row.Running, l[0], l[1])
		}
	}
}

// TestEventStormKeepsCensusAndGrammar is the randomized storm over fake
// bodies: several goroutines submit, cancel and preempt at once. With the
// Runner quiesced mid-flight (every slot held, a backlog queued) and again
// after the drain, the O(1) census equals a recount over the handles, and
// every run's event sequence obeys the grammar.
func TestEventStormKeepsCensusAndGrammar(t *testing.T) {
	log := newEventLog(t)
	log.fakes = true
	rn := New(Config{
		MaxConcurrent: 3,
		Scheduler:     "wfq",
		Tenants:       map[string]Tenant{"alpha": {Priority: 1}, "beta": {Priority: 2}, "gamma": {Priority: 2}},
		OnEvent:       log.record,
	})
	defer rn.Close()
	tenants := []string{"", "alpha", "beta", "gamma"}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0x5707))
			var mine []*Run
			for i := 0; i < 60; i++ {
				spin := time.Duration(rng.IntN(300)) * time.Microsecond
				fail := rng.IntN(8) == 0
				r, probe := &Run{tenant: tenants[rng.IntN(len(tenants))]}, &fakeProbe{}
				if rng.IntN(2) == 0 {
					probe = yielder() // this one yields cooperatively
				}
				_, err := submitBody(rn, probe.attach(r), func(ctx context.Context) (*repro.Result, error) {
					select {
					case <-probe.yield: // a nil channel when the seam is off
						return nil, fmt.Errorf("yielding: %w", yielded())
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-time.After(spin):
					}
					if fail {
						return nil, errors.New("boom")
					}
					r.emitSnapshot()
					return nil, nil
				})
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
	drainRunner(t, rn)

	// Quiesce with live work: three gated runs hold every slot, five more
	// wait behind them, all of one priority class — nothing preempts, so
	// no transition is in flight while we count.
	gate := make(chan struct{})
	var held []*Run
	for i := 0; i < 8; i++ {
		held = append(held, mustSubmit(t, rn, &Run{tenant: tenants[2+i%2]}, func(ctx context.Context) (*repro.Result, error) {
			select {
			case <-gate:
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}))
	}
	for _, r := range held[:3] {
		<-r.Started()
	}
	checkCensus(t, rn, "quiesced mid-flight")
	if st := rn.Stats(); st.Running != 3 || st.QueueDepth != 5 {
		t.Errorf("quiesced stats = %+v, want 3 running and 5 queued", st)
	}
	held[7].Cancel() // one queued cancel, then let the rest through
	close(gate)
	drainRunner(t, rn)
	checkCensus(t, rn, "after the drain")
	if st := rn.Stats(); st.Running != 0 || st.QueueDepth != 0 || st.Submitted != 4*60+8 {
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

// TestEventGrammarRunnerPaths covers the lifecycle paths a real program
// adds to TestEventGrammar's: expired timeout, CheckpointAfter pause,
// CheckpointEvery chain, budget exhaustion, and a cooperative preemption
// that resumes from its snapshot.
func TestEventGrammarRunnerPaths(t *testing.T) {
	cases := []struct {
		name  string
		sub   func(t *testing.T) Submission
		want  *regexp.Regexp
		state State
		err   error // the typed cause a failed run must carry
	}{
		{"timeout", func(t *testing.T) Submission {
			return Submission{Program: endlessProgram(t), Options: repro.Options{Procs: 2}, Timeout: 20 * time.Millisecond}
		}, regexp.MustCompile(`^SRT$`), StateFailed, context.DeadlineExceeded},
		{"CheckpointAfter pause", func(t *testing.T) Submission {
			return Submission{Program: finiteProgram(t, 64), Options: repro.Options{Procs: 2, Scheme: "ss", CheckpointAfter: 5}}
		}, regexp.MustCompile(`^SRT$`), StateCheckpointed, nil},
		{"CheckpointEvery chain", func(t *testing.T) Submission {
			return Submission{Program: finiteProgram(t, 64), Options: repro.Options{Procs: 2, Scheme: "ss"}, CheckpointEvery: 8}
		}, regexp.MustCompile(`^SRN+T$`), StateDone, nil},
		{"budget exceeded", func(t *testing.T) Submission {
			return Submission{Program: finiteProgram(t, 64), Options: repro.Options{Procs: 2, BudgetIterations: 20, Checkpointable: true}}
		}, regexp.MustCompile(`^SRT$`), StateFailed, repro.ErrBudgetExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := newEventLog(t)
			rn := New(Config{MaxConcurrent: 1, OnEvent: log.record})
			defer rn.Close()
			r, err := rn.Submit(tc.sub(t))
			if err != nil {
				t.Fatal(err)
			}
			drainRunner(t, rn)
			got := log.sequence(r.ID())
			if !tc.want.MatchString(got) {
				t.Errorf("events = %q, want %s", got, tc.want)
			}
			if n := int64(strings.Count(got, "N")); n != r.Snapshots() {
				t.Errorf("%d Snapshot events, Run.Snapshots() = %d", n, r.Snapshots())
			}
			if st := r.State(); st != tc.state {
				t.Errorf("state = %v, want %v", st, tc.state)
			}
			if _, err := r.Result(); tc.err != nil && !errors.Is(err, tc.err) {
				t.Errorf("result error = %v, want %v", err, tc.err)
			}
			log.checkAll()
		})
	}

	t.Run("cooperative preempt resumes", func(t *testing.T) {
		log := newEventLog(t)
		rn := New(Config{
			MaxConcurrent: 1,
			Scheduler:     "wfq",
			Tenants:       map[string]Tenant{"bulk": {}, "urgent": {Priority: 5}},
			OnEvent:       log.record,
		})
		defer rn.Close()
		started := make(chan struct{})
		var once sync.Once
		low, err := rn.Submit(Submission{
			Program: finiteProgram(t, 600),
			Options: repro.Options{Procs: 2, Scheme: "ss", Checkpointable: true,
				Observe: func(repro.Live) { once.Do(func() { close(started) }) }},
			Tenant: "bulk",
		})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		if _, err := rn.Submit(Submission{Program: finiteProgram(t, 40), Options: repro.Options{Procs: 2}, Tenant: "urgent"}); err != nil {
			t.Fatal(err)
		}
		drainRunner(t, rn)
		got := log.sequence(low.ID())
		// The preemption can lose the race against a short run finishing.
		want := "SRT"
		if rn.Stats().Preempted > 0 {
			want = "SRPRT"
		}
		if got != want {
			t.Errorf("events = %q, want %q", got, want)
		}
		log.checkAll()
	})
}

// TestEventStormTenantCensus is the randomized storm over real programs: four
// goroutines submit for three tenants under wfq (priorities preempt,
// admission caps reject) and cancel at random. Quiesced mid-flight and
// again after the drain, Stats() equals a recount over Runs(), every
// tenant's queued/running figures equal a recount, and every run's
// event sequence obeys the grammar.
func TestEventStormTenantCensus(t *testing.T) {
	log := newEventLog(t)
	rn := New(Config{
		MaxConcurrent: 2,
		Scheduler:     "wfq",
		Tenants: map[string]Tenant{
			"gold":   {Weight: 3, Priority: 2},
			"silver": {Priority: 1, MaxInflight: 6},
			"bronze": {MaxQueued: 4},
		},
		OnEvent: log.record,
	})
	defer rn.Close()
	tenants := []string{"gold", "silver", "bronze", ""}
	short := finiteProgram(t, 48)

	var wg sync.WaitGroup
	var accepted atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xE7E27))
			var mine []*Run
			for i := 0; i < 40; i++ {
				r, err := rn.Submit(Submission{
					Program: short,
					Options: repro.Options{Procs: 2, Scheme: "ss", Checkpointable: rng.IntN(2) == 0},
					Tenant:  tenants[rng.IntN(len(tenants))],
				})
				if errors.Is(err, ErrTenantInflight) || errors.Is(err, ErrTenantQueueFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				accepted.Add(1)
				mine = append(mine, r)
				if rng.IntN(4) == 0 {
					mine[rng.IntN(len(mine))].Cancel()
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	drainRunner(t, rn)

	// Quiesce with live work: two gated runs hold both slots, three more
	// wait behind them. Both tenants are of one priority class, so no
	// submit preempts a holder and nothing moves while we count.
	gate := make(chan struct{})
	var held []*Run
	for i := 0; i < 5; i++ {
		r, err := rn.Submit(Submission{
			Program: gatedProgram(t, 8, gate),
			Options: repro.Options{Procs: 2},
			Tenant:  tenants[2+i%2], // bronze and keyless: priority 0, caps out of reach
		})
		if err != nil {
			t.Fatal(err)
		}
		accepted.Add(1)
		held = append(held, r)
		if i < 2 {
			<-r.Started()
		}
	}
	checkCensus(t, rn, "quiesced mid-flight")
	if st := rn.Stats(); st.Running != 2 || st.QueueDepth != 3 {
		t.Errorf("quiesced stats = %+v, want 2 running and 3 queued", st)
	}
	held[4].Cancel()
	close(gate)
	drainRunner(t, rn)
	checkCensus(t, rn, "after the drain")
	if st := rn.Stats(); st.Running != 0 || st.QueueDepth != 0 || int64(st.Submitted) != accepted.Load() {
		t.Errorf("final stats = %+v, accepted %d", st, accepted.Load())
	}
	log.checkAll()
	log.mu.Lock()
	n := len(log.perRun)
	log.mu.Unlock()
	if int64(n) != accepted.Load() {
		t.Errorf("event stream covered %d runs, want %d", n, accepted.Load())
	}
	// Lifetime tallies fold from the same stream: every accepted run was
	// counted submitted and, by now, finished one way or the other.
	var submitted, finished int64
	for _, row := range rn.TenantStats() {
		submitted += row.Submitted
		finished += row.Done + row.Failed
	}
	if submitted != accepted.Load() || finished != accepted.Load() {
		t.Errorf("tenant tallies: %d submitted, %d finished, want %d each", submitted, finished, accepted.Load())
	}
}
