package des

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestSingleProcess(t *testing.T) {
	s := New()
	var trace []Time
	s.Spawn(0, 0, func(p *Process) {
		trace = append(trace, p.Now())
		p.Advance(10)
		trace = append(trace, p.Now())
		p.Advance(5)
		trace = append(trace, p.Now())
	})
	end := s.Run()
	if end != 15 {
		t.Errorf("makespan = %d, want 15", end)
	}
	want := []Time{0, 10, 15}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestInterleavingOrder(t *testing.T) {
	// Two processes with different step sizes must interleave in virtual
	// time order.
	s := New()
	var order []string
	step := func(id int, d Time, n int) func(*Process) {
		return func(p *Process) {
			for i := 0; i < n; i++ {
				p.Advance(d)
				order = append(order, fmt.Sprintf("p%d@%d", id, p.Now()))
			}
		}
	}
	s.Spawn(0, 0, step(0, 3, 3)) // wakes at 3, 6, 9
	s.Spawn(1, 0, step(1, 4, 2)) // wakes at 4, 8
	end := s.Run()
	if end != 9 {
		t.Errorf("makespan = %d, want 9", end)
	}
	want := []string{"p0@3", "p1@4", "p0@6", "p1@8", "p0@9"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	// Processes waking at the same instant run in the order they were
	// scheduled (FIFO by sequence number).
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn(i, 0, func(p *Process) {
			p.Advance(7)
			order = append(order, i)
		})
	}
	s.Run()
	for i, id := range order {
		if id != i {
			t.Fatalf("order = %v, want FIFO 0..4", order)
		}
	}
}

func TestAdvanceToPast(t *testing.T) {
	s := New()
	s.Spawn(0, 0, func(p *Process) {
		p.Advance(10)
		p.AdvanceTo(3) // in the past: no-op in time
		if p.Now() != 10 {
			t.Errorf("Now = %d, want 10", p.Now())
		}
	})
	if end := s.Run(); end != 10 {
		t.Errorf("makespan = %d, want 10", end)
	}
}

func TestStartOffset(t *testing.T) {
	s := New()
	var at Time
	s.Spawn(0, 100, func(p *Process) {
		at = p.Now()
	})
	end := s.Run()
	if at != 100 || end != 100 {
		t.Errorf("start=%d end=%d, want 100, 100", at, end)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	s := New()
	panicked := false
	s.Spawn(0, 0, func(p *Process) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Advance(-1)
	})
	s.Run()
	if !panicked {
		t.Error("Advance(-1) did not panic")
	}
}

func TestSharedStateSequential(t *testing.T) {
	// Because execution is sequential, unsynchronized shared state is safe
	// and updates are totally ordered by virtual time.
	s := New()
	counter := 0
	const P, steps = 8, 100
	for i := 0; i < P; i++ {
		s.Spawn(i, 0, func(p *Process) {
			for k := 0; k < steps; k++ {
				counter++
				p.Advance(1)
			}
		})
	}
	s.Run()
	if counter != P*steps {
		t.Errorf("counter = %d, want %d", counter, P*steps)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		s := New()
		var log []string
		for i := 0; i < 6; i++ {
			i := i
			s.Spawn(i, 0, func(p *Process) {
				for k := 0; k < 20; k++ {
					p.Advance(Time(1 + (i*7+k*3)%5))
					log = append(log, fmt.Sprintf("%d@%d", i, p.Now()))
				}
			})
		}
		s.Run()
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("two identical runs produced different event orders")
	}
}

func TestQuickMakespanIsMaxFinish(t *testing.T) {
	// Property: makespan equals the maximum total advance of any process.
	f := func(steps [][]uint8) bool {
		if len(steps) == 0 || len(steps) > 16 {
			return true
		}
		s := New()
		var wantMax Time
		for i, ss := range steps {
			total := Time(0)
			for _, d := range ss {
				total += Time(d)
			}
			if total > wantMax {
				wantMax = total
			}
			ss := ss
			s.Spawn(i, 0, func(p *Process) {
				for _, d := range ss {
					p.Advance(Time(d))
				}
			})
		}
		return s.Run() == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRunTwicePanics(t *testing.T) {
	s := New()
	s.Spawn(0, 0, func(p *Process) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	s.Run()
}

func TestSpawnAfterRunPanics(t *testing.T) {
	s := New()
	s.Spawn(0, 0, func(p *Process) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("Spawn after Run did not panic")
		}
	}()
	s.Spawn(1, 0, func(p *Process) {})
}

// A script is one process of the order-equivalence property: where it
// starts and the AdvanceTo targets it issues, relative (Advance) or
// absolute, before returning.
type script struct {
	start Time
	ops   []scriptOp
}

type scriptOp struct {
	abs bool
	t   Time
}

type resume struct {
	id  int
	now Time
}

// reference is the sequential model Sim must be indistinguishable from:
// every wake-up is an (at, seq) entry, and the smallest runs next.
func reference(scripts []script) (trace []resume, makespan Time) {
	type entry struct {
		at  Time
		seq int
		id  int
	}
	var pending []entry
	seq := 0
	for id, sc := range scripts {
		seq++
		pending = append(pending, entry{sc.start, seq, id})
	}
	pc := make([]int, len(scripts))
	for len(pending) > 0 {
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].at != pending[j].at {
				return pending[i].at < pending[j].at
			}
			return pending[i].seq < pending[j].seq
		})
		e := pending[0]
		pending = pending[1:]
		trace = append(trace, resume{e.id, e.at})
		makespan = max(makespan, e.at)
		if ops := scripts[e.id].ops; pc[e.id] < len(ops) {
			op := ops[pc[e.id]]
			pc[e.id]++
			t := op.t
			if !op.abs {
				t += e.at
			}
			seq++
			pending = append(pending, entry{max(t, e.at), seq, e.id})
		}
	}
	return trace, makespan
}

func simulate(scripts []script) (trace []resume, makespan Time) {
	s := New()
	for id, sc := range scripts {
		s.Spawn(id, sc.start, func(p *Process) {
			trace = append(trace, resume{p.ID(), p.Now()})
			for _, op := range sc.ops {
				if op.abs {
					p.AdvanceTo(op.t)
				} else {
					p.Advance(op.t)
				}
				trace = append(trace, resume{p.ID(), p.Now()})
			}
		})
	}
	return trace, s.Run()
}

func TestOrderMatchesReferenceModel(t *testing.T) {
	// The case the no-switch path must not take: process 1 advances to
	// exactly the queue's minimum (process 0 at 5), and the older entry
	// runs first.
	tie := []script{
		{0, []scriptOp{{false, 5}}},
		{0, []scriptOp{{true, 5}}},
	}
	want := []resume{{0, 0}, {1, 0}, {0, 5}, {1, 5}}
	if got, _ := simulate(tie); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tie with the queue minimum: trace = %v, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(19))
	for n := 0; n < 2000; n++ {
		// Small values everywhere, so that equal wake times, zero
		// advances and targets in the past are the common case.
		scripts := make([]script, 1+rng.Intn(8))
		for i := range scripts {
			scripts[i].start = Time(rng.Intn(4))
			scripts[i].ops = make([]scriptOp, rng.Intn(10)) // 0: returns at once
			for k := range scripts[i].ops {
				if rng.Intn(3) == 0 {
					scripts[i].ops[k] = scriptOp{true, Time(rng.Intn(24))}
				} else {
					scripts[i].ops[k] = scriptOp{false, Time(rng.Intn(4))}
				}
			}
		}
		wantTrace, wantEnd := reference(scripts)
		gotTrace, gotEnd := simulate(scripts)
		if gotEnd != wantEnd || fmt.Sprint(gotTrace) != fmt.Sprint(wantTrace) {
			t.Fatalf("script %d %+v:\n got %v end %d\nwant %v end %d",
				n, scripts, gotTrace, gotEnd, wantTrace, wantEnd)
		}
	}
}

// TestPanicReraisedByRun pins the panic contract: the value reaches Run's
// caller, the other processes are unwound without executing further, and
// no coroutine is left behind.
func TestPanicReraisedByRun(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	unwound, ranOn := 0, 0
	for i := 0; i < 4; i++ {
		s.Spawn(i, 0, func(p *Process) {
			defer func() { unwound++ }()
			p.Advance(10)
			if p.ID() == 2 {
				p.Advance(-1)
			}
			p.Advance(10)
			ranOn++
		})
	}
	s.Spawn(4, 100, func(p *Process) { ranOn++ }) // never started
	func() {
		defer func() {
			if r := recover(); r != "des: negative advance -1" {
				t.Errorf("Run panicked with %v, want the process's panic value", r)
			}
		}()
		s.Run()
		t.Error("Run returned after a process panicked")
	}()
	// When 2 panics at time 10, 0 and 1 are suspended in their second
	// Advance and 3 in its first; none may reach the line after it.
	if unwound != 4 || ranOn != 0 {
		t.Errorf("unwound = %d, ran on = %d; want 4 processes unwound and none run on", unwound, ranOn)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before Run, %d after the panic", before, after)
	}
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct{ procs, steps int }{
		{1, 50}, {4, 50}, {64, 50},
		{64, 0}, // every process finishes at once
	} {
		before := runtime.NumGoroutine()
		s := New()
		for i := 0; i < tc.procs; i++ {
			s.Spawn(i, 0, func(p *Process) {
				for k := 0; k < tc.steps; k++ {
					p.Advance(Time(1 + (p.ID()+k)%3))
				}
			})
		}
		s.Run()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d processes x %d steps: %d goroutines before Run, %d after",
				tc.procs, tc.steps, before, after)
		}
	}
}

func BenchmarkAdvance(b *testing.B) {
	b.ReportAllocs()
	s := New()
	s.Spawn(0, 0, func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	b.ResetTimer()
	s.Run()
}

func BenchmarkEightProcessInterleave(b *testing.B) {
	b.ReportAllocs()
	s := New()
	for i := 0; i < 8; i++ {
		i := i
		s.Spawn(i, 0, func(p *Process) {
			for k := 0; k < b.N; k++ {
				p.Advance(Time(1 + i%3))
			}
		})
	}
	b.ResetTimer()
	s.Run()
}
