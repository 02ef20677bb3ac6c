package runner

import (
	"context"
	"errors"
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
// terminal); internal/runmgr pins the same expression one layer down.
var eventGrammar = regexp.MustCompile(`^S(RN*P)*(RN*)?T$`)

var eventLetters = [...]byte{
	EventSubmitted: 'S', EventStarted: 'R', EventSnapshot: 'N',
	EventPreempted: 'P', EventTerminal: 'T',
}

// eventLog records the stream as Config.OnEvent sees it and fails the
// test on overlapping deliveries, a missing handle, or a Snapshot with no
// restore point behind it.
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
	if ev.Run == nil {
		l.t.Errorf("%v event without a run handle", ev.Kind)
		return
	}
	if ev.Kind == EventSnapshot && ev.Run.Checkpoint() == nil {
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

// TestEventGrammarRunnerPaths covers the lifecycle paths the Runner adds
// on top of the manager's (internal/runmgr TestEventGrammar): expired
// timeout, CheckpointAfter pause, CheckpointEvery chain, budget
// exhaustion, and a cooperative preemption that resumes from its
// snapshot.
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

// TestEventStormTenantCensus is the randomized storm one layer up: four
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

	check := func(when string) {
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
			t.Errorf("%s: Stats() = %+v, recount = %+v", when, got, want)
		}
		for _, row := range rn.TenantStats() {
			if l := load[row.Tenant]; row.Queued != l[0] || row.Running != l[1] {
				t.Errorf("%s: tenant %s reports %d queued, %d running; recount %d, %d",
					when, row.Tenant, row.Queued, row.Running, l[0], l[1])
			}
		}
	}

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
	// wait behind them; nothing moves while we count.
	gate := make(chan struct{})
	var held []*Run
	for i := 0; i < 5; i++ {
		r, err := rn.Submit(Submission{
			Program: gatedProgram(t, 8, gate),
			Options: repro.Options{Procs: 2},
			Tenant:  tenants[i%2], // gold and silver: no queue cap in the way
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
	check("quiesced mid-flight")
	if st := rn.Stats(); st.Running != 2 || st.QueueDepth != 3 {
		t.Errorf("quiesced stats = %+v, want 2 running and 3 queued", st)
	}
	held[4].Cancel()
	close(gate)
	drainRunner(t, rn)
	check("after the drain")
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
