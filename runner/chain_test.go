package runner

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro"
)

// TestCheckpointEveryChainCompletes pins the chained-checkpoint
// contract: a CheckpointEvery run finishes with exactly the same final
// statistics as an uninterrupted run, having parked a durable snapshot
// at every k-claim boundary along the way.
func TestCheckpointEveryChainCompletes(t *testing.T) {
	var mu sync.Mutex
	var seen []*repro.Checkpoint
	rn := New(Config{MaxConcurrent: 2, OnEvent: func(ev Event) {
		if ev.Kind == EventSnapshot {
			mu.Lock()
			seen = append(seen, ev.Run.Checkpoint())
			mu.Unlock()
		}
	}})
	defer rn.Close()
	prog := finiteProgram(t, 64)

	ref, err := rn.Submit(Submission{Program: prog, Options: repro.Options{Procs: 4, Scheme: "gss"}})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	r, err := rn.Submit(Submission{
		Program:         prog,
		Options:         repro.Options{Procs: 4, Scheme: "gss"},
		CheckpointEvery: 4,
		Label:           "chained",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Wait(context.Background())
	if err != nil {
		t.Fatalf("chained run: %v", err)
	}
	if st := r.State(); st != StateDone {
		t.Fatalf("state = %v, want done", st)
	}
	// The periodic snapshots are restore points of a live run: a chain
	// that finished has nothing to resume, and must not pin (or report,
	// or journal) its last leg's.
	if ck := r.Checkpoint(); ck != nil {
		t.Errorf("done chain still parks a checkpoint (%d snapshots taken)", r.Snapshots())
	}
	f, g := refRes.Stats, got.Stats
	if g.Iterations != f.Iterations || g.Chunks != f.Chunks || g.Instances != f.Instances ||
		g.Exits != f.Exits {
		t.Errorf("chained stats %+v\nuninterrupted %+v", g, f)
	}
	mu.Lock()
	n := len(seen)
	mu.Unlock()
	if n == 0 {
		t.Fatal("chain parked no periodic snapshots")
	}
	if int64(n) != r.Snapshots() {
		t.Errorf("Snapshot events fired %d times, Snapshots() = %d", n, r.Snapshots())
	}
	for i, ck := range seen {
		if ck == nil || ck.Snapshot == nil || len(ck.Snapshot.ICBs) == 0 {
			t.Fatalf("snapshot %d is not resumable: %+v", i, ck)
		}
	}

	// Every intermediate snapshot is independently resumable: restoring
	// the last one completes with the reference totals.
	res, err := rn.Submit(Submission{
		Program: prog,
		Options: repro.Options{Procs: 4, Scheme: "gss", Resume: seen[n-1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := res.Wait(context.Background())
	if err != nil {
		t.Fatalf("resume from chain snapshot: %v", err)
	}
	if rres.Stats.Iterations != f.Iterations || rres.Stats.Chunks != f.Chunks {
		t.Errorf("resume from chain snapshot: %+v, want %+v", rres.Stats, f)
	}
}

// TestCheckpointEveryYieldsToPauseRequest: a RequestCheckpoint on a
// chained run must stop the chain (state checkpointed, snapshot
// parked), not be swallowed as a periodic checkpoint.
func TestCheckpointEveryYieldsToPauseRequest(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	defer rn.Close()
	started := make(chan struct{})
	var once sync.Once
	r, err := rn.Submit(Submission{
		Program: finiteProgram(t, 1<<30),
		Options: repro.Options{
			Procs: 4, Engine: repro.EngineReal,
			Observe: func(repro.Live) { once.Do(func() { close(started) }) },
		},
		CheckpointEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("run never started")
	}
	for !r.RequestCheckpoint() {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("chained run did not yield to the pause request")
	}
	if st := r.State(); st != StateCheckpointed {
		t.Fatalf("state = %v, want checkpointed", st)
	}
	if ck := r.Checkpoint(); ck == nil || ck.Snapshot == nil {
		t.Fatal("paused chain has no snapshot")
	}
}

// TestCheckpointEveryPreemption: a chained run evicted by a
// higher-priority submission yields through a snapshot, requeues, and
// still finishes with uninterrupted totals.
func TestCheckpointEveryPreemption(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, Tenants: map[string]Tenant{
		"gold": {Priority: 10},
	}})
	defer rn.Close()
	const bound = 600

	started := make(chan struct{})
	var once sync.Once
	low, err := rn.Submit(Submission{
		Program: finiteProgram(t, bound),
		Options: repro.Options{
			Procs: 2, Scheme: "ss",
			Observe: func(repro.Live) { once.Do(func() { close(started) }) },
		},
		CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	high, err := rn.Submit(Submission{
		Program: finiteProgram(t, 40),
		Options: repro.Options{Procs: 2},
		Tenant:  "gold",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := high.Wait(ctx); err != nil {
		t.Fatalf("preemptor: %v", err)
	}
	got, err := low.Wait(ctx)
	if err != nil {
		t.Fatalf("preempted chain: %v", err)
	}
	if got.Stats.Iterations != bound {
		t.Errorf("preempted chain executed %d iterations, want exactly %d", got.Stats.Iterations, bound)
	}
	// The resumed attempt's Result also counts the legs run before the
	// preemption: every iteration's 20 units of work, once.
	var busy int64
	for _, b := range got.Busy {
		busy += b
	}
	if busy != bound*20 {
		t.Errorf("preempted chain's busy %v sums to %d, want %d", got.Busy, busy, bound*20)
	}
	if low.Checkpoint() != nil {
		t.Error("done preempted chain still parks a checkpoint")
	}
	if st := rn.Stats(); st.Preempted > 0 {
		// Preemption landed (it can race a fast chain's completion; the
		// exactness above must hold either way).
		if got := attemptsOf(low); got < 2 {
			t.Errorf("preempted chain has %d attempt(s), want >= 2", got)
		}
	}
}

// TestCheckpointEveryRefusesUnresumable: Submit refuses a chain on a run
// the runner does not resume (Resumable): a Verify run, whose resumed
// legs the trace could not observe, and a Doacross run, which cannot
// pause. Both match repro.ErrNotCheckpointable and enqueue nothing.
func TestCheckpointEveryRefusesUnresumable(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	defer rn.Close()
	doacross := repro.MustBuild(func(b *repro.B) {
		b.DoacrossLeaf("W", repro.Const(16), 1, func(e repro.Env, iv repro.IVec, j int64) { e.Work(1) })
	})
	dprog, err := repro.Compile(doacross)
	if err != nil {
		t.Fatal(err)
	}
	for name, sub := range map[string]Submission{
		"verify":   {Program: finiteProgram(t, 64), Options: repro.Options{Procs: 4, Scheme: "ss", Verify: true}},
		"doacross": {Program: dprog, Options: repro.Options{Procs: 4}},
	} {
		sub.CheckpointEvery = 4
		if _, err := rn.Submit(sub); !errors.Is(err, repro.ErrNotCheckpointable) {
			t.Errorf("%s: Submit = %v, want ErrNotCheckpointable", name, err)
		}
	}
	if n := rn.Stats().Submitted; n != 0 {
		t.Errorf("%d run(s) accepted, want none", n)
	}
}

// TestCheckpointEverySumsLegs: a chained run's Result covers every leg,
// not its last: its busy time equals the unchained run's (work
// conservation on the virtual engine) and its utilization is
// ΣBusy / (P · Makespan) over the whole chain.
func TestCheckpointEverySumsLegs(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1})
	defer rn.Close()
	prog := finiteProgram(t, 64)
	opts := repro.Options{Procs: 4, Scheme: "ss"}
	wait := func(every int64) *repro.Result {
		t.Helper()
		r, err := rn.Submit(Submission{Program: prog, Options: opts, CheckpointEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sum := func(xs []int64) (s int64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	plain, chained := wait(0), wait(4)
	if got, want := sum(chained.Busy), sum(plain.Busy); got != want || want != 64*20 {
		t.Errorf("chained busy %v sums to %d, unchained %v to %d; want both %d",
			chained.Busy, got, plain.Busy, want, 64*20)
	}
	if chained.Makespan < plain.Makespan {
		t.Errorf("chained makespan %d below the unchained %d", chained.Makespan, plain.Makespan)
	}
	want := float64(sum(chained.Busy)) / (float64(opts.Procs) * float64(chained.Makespan))
	if chained.Utilization != want {
		t.Errorf("chained utilization %v, want ΣBusy/(P·Makespan) = %v", chained.Utilization, want)
	}
	if len(chained.Accesses) != opts.Procs || sum(chained.Accesses) < sum(plain.Accesses) {
		t.Errorf("chained accesses %v, unchained %v", chained.Accesses, plain.Accesses)
	}
}
