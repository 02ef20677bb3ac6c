package vmachine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/pool"
)

var _ machine.Engine = (*Engine)(nil)

func TestWorkAdvancesClock(t *testing.T) {
	e := New(Config{P: 1, AccessCost: 10})
	rep := e.Run(func(p machine.Proc) {
		if p.Now() != 0 {
			t.Errorf("start Now = %d, want 0", p.Now())
		}
		p.Work(100)
		if p.Now() != 100 {
			t.Errorf("Now after Work(100) = %d, want 100", p.Now())
		}
	})
	if rep.Makespan != 100 {
		t.Errorf("makespan = %d, want 100", rep.Makespan)
	}
	if rep.Busy[0] != 100 {
		t.Errorf("busy = %d, want 100", rep.Busy[0])
	}
	if rep.Utilization() != 1.0 {
		t.Errorf("utilization = %v, want 1.0", rep.Utilization())
	}
}

func TestParallelWorkPerfectSpeedup(t *testing.T) {
	for _, P := range []int{1, 2, 4, 8} {
		e := New(Config{P: P})
		rep := e.Run(func(p machine.Proc) {
			p.Work(1000)
		})
		if rep.Makespan != 1000 {
			t.Errorf("P=%d: makespan = %d, want 1000 (perfect overlap)", P, rep.Makespan)
		}
		if got := rep.Utilization(); got != 1.0 {
			t.Errorf("P=%d: utilization = %v, want 1.0", P, got)
		}
	}
}

func TestAccessSerializesOnHotVariable(t *testing.T) {
	// P processors each access the same variable once at t=0; without
	// combining the module serializes them: makespan = P * AccessCost.
	const P, cost = 8, 10
	e := New(Config{P: P, AccessCost: cost})
	v := machine.NewSyncVar("hot", 0)
	rep := e.Run(func(p machine.Proc) {
		v.FetchInc(p)
	})
	if rep.Makespan != P*cost {
		t.Errorf("makespan = %d, want %d (serialized)", rep.Makespan, P*cost)
	}
	if v.Peek() != P {
		t.Errorf("counter = %d, want %d", v.Peek(), P)
	}
}

func TestCombiningRemovesSerialization(t *testing.T) {
	const P, cost = 8, 10
	e := New(Config{P: P, AccessCost: cost, Combining: CombineAll})
	v := machine.NewSyncVar("hot", 0)
	rep := e.Run(func(p machine.Proc) {
		v.FetchInc(p)
	})
	if rep.Makespan != cost {
		t.Errorf("makespan = %d, want %d (combined)", rep.Makespan, cost)
	}
	if v.Peek() != P {
		t.Errorf("counter = %d, want %d", v.Peek(), P)
	}
}

// TestCombiningPolicy: two processors access one word of an ICB at t=0,
// so the second arrives inside the first's module window. Only
// CombineClaims on a claim word (index, which the pool marks combinable)
// joins the window (one Combined access, no wait); only CombineAll
// pipelines an unmarked word (pcount); everything else serializes.
func TestCombiningPolicy(t *testing.T) {
	const cost = 10
	index := func(b *pool.ICB) *machine.SyncVar { return &b.Index }
	pcount := func(b *pool.ICB) *machine.SyncVar { return &b.PCount }
	for _, tc := range []struct {
		name     string
		policy   Combining
		word     func(*pool.ICB) *machine.SyncVar
		makespan machine.Time
		wait     machine.Time
		combined int64
	}{
		{"claims/index", CombineClaims, index, cost, 0, 1},
		{"claims/pcount", CombineClaims, pcount, 2 * cost, cost, 0},
		{"all/index", CombineAll, index, cost, 0, 0},
		{"all/pcount", CombineAll, pcount, cost, 0, 0},
		{"none/index", CombineNone, index, 2 * cost, cost, 0},
		{"none/pcount", CombineNone, pcount, 2 * cost, cost, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{P: 2, AccessCost: cost, Combining: tc.policy})
			v := tc.word(pool.NewICB(1, 8, nil))
			before := v.Peek()
			rep := e.Run(func(p machine.Proc) { v.FetchInc(p) })
			if rep.Makespan != tc.makespan {
				t.Errorf("makespan = %d, want %d", rep.Makespan, tc.makespan)
			}
			if got := v.Peek() - before; got != 2 {
				t.Errorf("counter moved by %d, want 2", got)
			}
			hs := e.HotSpots(1)
			if len(hs) != 1 || hs[0].Accesses != 2 || hs[0].Wait != tc.wait || hs[0].Combined != tc.combined {
				t.Errorf("hot spots = %+v, want 2 accesses, wait %d, combined %d", hs, tc.wait, tc.combined)
			}
		})
	}
}

func TestDistinctVariablesDoNotSerialize(t *testing.T) {
	const P, cost = 4, 10
	e := New(Config{P: P, AccessCost: cost})
	vars := make([]*machine.SyncVar, P)
	for i := range vars {
		vars[i] = machine.NewSyncVar(fmt.Sprintf("v%d", i), 0)
	}
	rep := e.Run(func(p machine.Proc) {
		vars[p.ID()].FetchInc(p)
	})
	if rep.Makespan != cost {
		t.Errorf("makespan = %d, want %d (independent modules)", rep.Makespan, cost)
	}
}

// TestSpinCostsTime: a busy-wait retry re-reads the variable, so one
// spin costs one access.
func TestSpinCostsTime(t *testing.T) {
	e := New(Config{P: 1, AccessCost: 10})
	rep := e.Run(func(p machine.Proc) {
		p.Spin()
		p.Spin()
	})
	if rep.Makespan != 20 {
		t.Errorf("makespan = %d, want 20 (two spins of one access each)", rep.Makespan)
	}
	if rep.Spins[0] != 2 {
		t.Errorf("spins = %d, want 2", rep.Spins[0])
	}
}

func TestSemaphoreUnderVirtualTime(t *testing.T) {
	// A binary semaphore protecting a critical section of length W:
	// P processors serialized through it need at least P*W time.
	const P, W = 4, 100
	e := New(Config{P: P, AccessCost: 1})
	sem := machine.NewSemaphore("S", 1)
	inCS := 0
	e.Run(func(p machine.Proc) {
		sem.P(p)
		inCS++
		if inCS != 1 {
			t.Errorf("two processors in critical section")
		}
		p.Work(W)
		inCS--
		sem.V(p)
	})
	// (makespan check is loose: lock handoff adds overhead)
}

func TestSemaphoreSerializesWork(t *testing.T) {
	const P, W = 4, 100
	e := New(Config{P: P, AccessCost: 1})
	sem := machine.NewSemaphore("S", 1)
	rep := e.Run(func(p machine.Proc) {
		sem.P(p)
		p.Work(W)
		sem.V(p)
	})
	if rep.Makespan < P*W {
		t.Errorf("makespan = %d, want >= %d (critical sections serialize)", rep.Makespan, P*W)
	}
	if got := rep.TotalBusy(); got != P*W {
		t.Errorf("total busy = %d, want %d", got, P*W)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (machine.Time, int64, float64) {
		e := New(Config{P: 8, AccessCost: 5})
		ctr := machine.NewSyncVar("ctr", 0)
		lock := machine.NewSpinLock("L")
		e2 := e.Run(func(p machine.Proc) {
			for i := 0; i < 50; i++ {
				lock.Lock(p)
				p.Work(machine.Time(1 + (p.ID()+i)%7))
				lock.Unlock(p)
				ctr.FetchInc(p)
			}
		})
		return e2.Makespan, e2.TotalAccesses(), e2.Utilization()
	}
	m1, a1, u1 := run()
	m2, a2, u2 := run()
	if m1 != m2 || a1 != a2 || u1 != u2 {
		t.Errorf("nondeterministic: (%d,%d,%v) vs (%d,%d,%v)", m1, a1, u1, m2, a2, u2)
	}
}

func TestUtilizationDropsWithOverhead(t *testing.T) {
	// Self-scheduling a loop whose every iteration needs one access to a
	// shared index: utilization must fall as grain shrinks.
	util := func(grain machine.Time) float64 {
		e := New(Config{P: 4, AccessCost: 10})
		idx := machine.NewSyncVar("index", 1)
		const iters = 400
		rep := e.Run(func(p machine.Proc) {
			for {
				j, ok := idx.Exec(p, machine.Instr{Test: machine.TestLE, TestVal: iters, Op: machine.OpInc})
				if !ok {
					return
				}
				_ = j
				p.Work(grain)
			}
		})
		return rep.Utilization()
	}
	coarse, fine := util(1000), util(10)
	if coarse <= fine {
		t.Errorf("utilization coarse=%v should exceed fine=%v", coarse, fine)
	}
	if coarse < 0.9 {
		t.Errorf("coarse-grain utilization = %v, want >= 0.9", coarse)
	}
}

func TestHotSpots(t *testing.T) {
	e := New(Config{P: 8, AccessCost: 10})
	hot := machine.NewSyncVar("hot", 0)
	cold := machine.NewSyncVar("cold", 0)
	e.Run(func(p machine.Proc) {
		for i := 0; i < 10; i++ {
			hot.FetchInc(p)
		}
		if p.ID() == 0 {
			cold.FetchInc(p)
		}
	})
	hs := e.HotSpots(2)
	if len(hs) != 2 {
		t.Fatalf("HotSpots = %v", hs)
	}
	if hs[0].Name != "hot" || hs[0].Accesses != 80 {
		t.Errorf("top hot spot = %+v, want hot with 80 accesses", hs[0])
	}
	if hs[0].Wait == 0 {
		t.Error("hot variable should have accumulated queueing time")
	}
	if hs[1].Name != "cold" || hs[1].Wait != 0 {
		t.Errorf("second = %+v, want uncontended cold", hs[1])
	}
	if got := e.HotSpots(0); len(got) != 2 {
		t.Errorf("HotSpots(0) should return all, got %d", len(got))
	}
}

func TestHotSpotsCombiningNoWait(t *testing.T) {
	e := New(Config{P: 8, AccessCost: 10, Combining: CombineAll})
	hot := machine.NewSyncVar("hot", 0)
	e.Run(func(p machine.Proc) {
		hot.FetchInc(p)
	})
	hs := e.HotSpots(1)
	if len(hs) != 1 || hs[0].Wait != 0 {
		t.Errorf("combining should eliminate queueing: %+v", hs)
	}
}

func TestRemotePenalty(t *testing.T) {
	// Proc 0 homes the variable by first touch; proc 1's later access
	// pays the penalty.
	e := New(Config{P: 2, AccessCost: 10, RemotePenalty: 40})
	v := machine.NewSyncVar("x", 0)
	rep := e.Run(func(p machine.Proc) {
		if p.ID() == 0 {
			v.FetchInc(p) // at t=0: homes x, costs 10
		} else {
			p.Work(100) // wait out proc 0's access
			v.FetchInc(p)
		}
	})
	// Proc 1 finishes at 100 (work) + 10 + 40 = 150.
	if rep.Makespan != 150 {
		t.Errorf("makespan = %d, want 150 (remote access pays the penalty)", rep.Makespan)
	}
}

func TestRemotePenaltyLocalFree(t *testing.T) {
	e := New(Config{P: 2, AccessCost: 10, RemotePenalty: 40})
	vs := []*machine.SyncVar{machine.NewSyncVar("a", 0), machine.NewSyncVar("b", 0)}
	rep := e.Run(func(p machine.Proc) {
		for i := 0; i < 5; i++ {
			vs[p.ID()].FetchInc(p) // strictly local after first touch
		}
	})
	if rep.Makespan != 50 {
		t.Errorf("makespan = %d, want 50 (local accesses pay no penalty)", rep.Makespan)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for P=0")
		}
	}()
	New(Config{P: 0})
}

func TestDefaults(t *testing.T) {
	cfg := Config{P: 2}.withDefaults()
	if cfg.AccessCost != 10 || cfg.Combining != CombineNone {
		t.Errorf("defaults = %+v", cfg)
	}
}

// TestWorkerPanicReraisedByRun: a panic on one processor reaches the
// caller of Engine.Run (des.Sim.Run's contract), and the processors
// queued on the hot variable behind it are torn down with it.
func TestWorkerPanicReraisedByRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(Config{P: 8, AccessCost: 10})
	v := machine.NewSyncVar("hot", 0)
	func() {
		defer func() {
			if r := recover(); r != "vmachine: negative work cost -1" {
				t.Errorf("Run panicked with %v, want the processor's panic value", r)
			}
		}()
		e.Run(func(p machine.Proc) {
			v.FetchInc(p)
			if p.ID() == 3 {
				p.Work(-1)
			}
			v.FetchInc(p)
		})
		t.Error("Run returned after a processor panicked")
	}()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before Run, %d after the panic", before, after)
	}
}

// TestInterruptedRunLeavesNoGoroutines: an interrupt tripped mid-run
// stops Work from costing time, and the cooperative drain — every
// processor leaves at its next look at the interrupt — still ends every
// processor.
func TestInterruptedRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	intr := machine.NewInterrupt()
	e := New(Config{P: 8, AccessCost: 10, Interrupt: intr})
	v := machine.NewSyncVar("hot", 0)
	rep := e.Run(func(p machine.Proc) {
		for !intr.Tripped() {
			if v.FetchInc(p) == 100 {
				intr.Trip(errors.New("stop"))
			}
			p.Work(50)
		}
	})
	if rep.TotalAccesses() < 100 || rep.TotalAccesses() > 108 {
		t.Errorf("accesses = %d, want the 100 before the trip and at most one more per processor", rep.TotalAccesses())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before Run, %d after the interrupted run", before, after)
	}
}

// BenchmarkVirtualFetchInc: b.N accesses to one hot variable, dealt
// round-robin to eight processors.
func BenchmarkVirtualFetchInc(b *testing.B) {
	b.ReportAllocs()
	const P = 8
	e := New(Config{P: P, AccessCost: 10})
	v := machine.NewSyncVar("v", 0)
	n := b.N
	b.ResetTimer()
	e.Run(func(p machine.Proc) {
		for i := p.ID(); i < n; i += P {
			v.FetchInc(p)
		}
	})
}
