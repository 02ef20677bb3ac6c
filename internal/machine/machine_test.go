package machine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// testProc is a minimal Proc for exercising SyncVar logic single-threaded.
type testProc struct {
	id, n    int
	accesses int64
	spins    int64
}

func (p *testProc) ID() int         { return p.id }
func (p *testProc) NumProcs() int   { return p.n }
func (p *testProc) Now() Time       { return 0 }
func (p *testProc) Work(Time)       {}
func (p *testProc) Idle(Time)       {}
func (p *testProc) Access(*SyncVar) { p.accesses++ }
func (p *testProc) Spin()           { p.spins++ }

func TestTestEval(t *testing.T) {
	cases := []struct {
		test Test
		v, c int64
		want bool
	}{
		{TestNone, 5, 0, true},
		{TestLT, 4, 5, true},
		{TestLT, 5, 5, false},
		{TestLE, 5, 5, true},
		{TestLE, 6, 5, false},
		{TestGT, 6, 5, true},
		{TestGT, 5, 5, false},
		{TestGE, 5, 5, true},
		{TestGE, 4, 5, false},
		{TestEQ, 5, 5, true},
		{TestEQ, 4, 5, false},
		{TestNE, 4, 5, true},
		{TestNE, 5, 5, false},
	}
	for _, c := range cases {
		if got := c.test.Eval(c.v, c.c); got != c.want {
			t.Errorf("(%d %v %d) = %v, want %v", c.v, c.test, c.c, got, c.want)
		}
	}
}

func TestOpApply(t *testing.T) {
	cases := []struct {
		op       OpKind
		v, k, nv int64
	}{
		{OpFetch, 7, 99, 7},
		{OpStore, 7, 99, 99},
		{OpInc, 7, 0, 8},
		{OpDec, 7, 0, 6},
		{OpFetchAdd, 7, 3, 10},
		{OpFetchAdd, 7, -3, 4},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.v, c.k); got != c.nv {
			t.Errorf("%v(%d) on %d = %d, want %d", c.op, c.k, c.v, got, c.nv)
		}
	}
}

func TestSyncVarExecPaperExample(t *testing.T) {
	// The paper's {A < 100; Fetch(a)&add(3)}.
	p := &testProc{}
	a := NewSyncVar("A", 98)
	in := Instr{Test: TestLT, TestVal: 100, Op: OpFetchAdd, Operand: 3}

	old, ok := a.Exec(p, in)
	if !ok || old != 98 || a.Peek() != 101 {
		t.Fatalf("first exec: old=%d ok=%v val=%d, want 98 true 101", old, ok, a.Peek())
	}
	old, ok = a.Exec(p, in)
	if ok || old != 101 || a.Peek() != 101 {
		t.Fatalf("second exec: old=%d ok=%v val=%d, want 101 false 101 (test failed, op not executed)", old, ok, a.Peek())
	}
	if p.accesses != 2 {
		t.Errorf("accesses = %d, want 2", p.accesses)
	}
}

func TestSyncVarHelpers(t *testing.T) {
	p := &testProc{}
	v := NewSyncVar("v", 10)
	if got := v.Fetch(p); got != 10 {
		t.Errorf("Fetch = %d, want 10", got)
	}
	if got := v.FetchInc(p); got != 10 || v.Peek() != 11 {
		t.Errorf("FetchInc old=%d new=%d, want 10, 11", got, v.Peek())
	}
	if got := v.FetchDec(p); got != 11 || v.Peek() != 10 {
		t.Errorf("FetchDec old=%d new=%d, want 11, 10", got, v.Peek())
	}
	if got := v.FetchAdd(p, 5); got != 10 || v.Peek() != 15 {
		t.Errorf("FetchAdd old=%d new=%d, want 10, 15", got, v.Peek())
	}
	v.Store(p, -2)
	if v.Peek() != -2 {
		t.Errorf("Store: val=%d, want -2", v.Peek())
	}
	if v.Name() != "v" {
		t.Errorf("Name = %q", v.Name())
	}
}

// TestSyncVarNamesAreInterned: a variable is three words because its
// label is an index into a shared table; variables created concurrently,
// with known and new labels alike, must each read their own label back.
func TestSyncVarNamesAreInterned(t *testing.T) {
	if sz := unsafe.Sizeof(SyncVar{}); sz != 24 {
		t.Errorf("SyncVar is %d bytes, want 24", sz)
	}
	var zero SyncVar
	if zero.Name() != "" {
		t.Errorf("zero SyncVar is named %q", zero.Name())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, label := range []string{"index", fmt.Sprintf("L(%d).next", i%17), fmt.Sprintf("g%d/%d", g, i)} {
					if got := NewSyncVar(label, 0).Name(); got != label {
						t.Errorf("variable labelled %q reads back %q", label, got)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSyncVarQuickSemantics property-tests Exec against a sequential model.
func TestSyncVarQuickSemantics(t *testing.T) {
	p := &testProc{}
	f := func(init int64, instrs []struct {
		T  uint8
		TV int64
		O  uint8
		K  int64
	}) bool {
		v := NewSyncVar("q", init)
		model := init
		for _, raw := range instrs {
			in := Instr{
				Test:    Test(raw.T % 7),
				TestVal: raw.TV,
				Op:      OpKind(raw.O % 5),
				Operand: raw.K,
			}
			old, ok := v.Exec(p, in)
			wantOK := in.Test.Eval(model, in.TestVal)
			if old != model || ok != wantOK {
				return false
			}
			if wantOK {
				model = in.Op.Apply(model, in.Operand)
			}
			if v.Peek() != model {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	// Every Test x Op over small values, so the null-test adds (one atomic
	// add) and everything else (the CAS loop) are both held to the model:
	// Fetch&Add(0), and conditional adds — which must still take the test,
	// including always-true ones that differ from a null test only in form.
	vals := []int64{-3, -1, 0, 1, 4}
	for tst := TestNone; tst <= TestNE; tst++ {
		for op := OpFetch; op <= OpFetchAdd; op++ {
			for _, init := range vals {
				for _, tv := range vals {
					for _, k := range vals {
						in := Instr{Test: tst, TestVal: tv, Op: op, Operand: k}
						v := NewSyncVar("x", init)
						old, ok := v.Exec(p, in)
						wantOK := tst.Eval(init, tv)
						want := init
						if wantOK {
							want = op.Apply(init, k)
						}
						if old != init || ok != wantOK || v.Peek() != want {
							t.Fatalf("%v on %d: got (old %d, ok %v) -> %d, want (old %d, ok %v) -> %d",
								in, init, old, ok, v.Peek(), init, wantOK, want)
						}
					}
				}
			}
		}
	}
}

// checkAtomicAdds has 8 processors apply add — a null-test add of step —
// perProc times each to one variable and checks indivisibility: every
// intermediate value 0, step, 2*step, ... is returned as the old value
// exactly once and the variable ends at the exact sum.
func checkAtomicAdds(t *testing.T, step int64, add func(*SyncVar, Proc) int64) {
	t.Helper()
	const perProc = 2000
	eng := NewReal(RealConfig{P: 8})
	v := NewSyncVar("ctr", 0)
	seen := make([][]int64, eng.NumProcs())
	rep := eng.Run(func(p Proc) {
		local := make([]int64, 0, perProc)
		for i := 0; i < perProc; i++ {
			local = append(local, add(v, p))
		}
		seen[p.ID()] = local
	})
	if v.Peek() != 8*perProc*step {
		t.Fatalf("counter = %d, want %d", v.Peek(), 8*perProc*step)
	}
	got := map[int64]bool{}
	for _, s := range seen {
		for _, x := range s {
			if x%step != 0 || x/step < 0 || x/step >= 8*perProc {
				t.Fatalf("fetched %d, not a multiple of %d below the final sum", x, step)
			}
			if got[x] {
				t.Fatalf("value %d fetched twice", x)
			}
			got[x] = true
		}
	}
	if len(got) != 8*perProc {
		t.Fatalf("fetched %d distinct values, want %d", len(got), 8*perProc)
	}
	if rep.TotalAccesses() != 8*perProc {
		t.Errorf("accesses = %d, want %d", rep.TotalAccesses(), 8*perProc)
	}
}

func TestRealEngineFetchIncIsAtomic(t *testing.T) {
	checkAtomicAdds(t, 1, (*SyncVar).FetchInc)
}

// TestRealEngineFetchAddIsAtomic covers the other null-test adds, which
// execute as one atomic add, and their mix with conditional instructions
// on the compare-and-swap path against the same variable.
func TestRealEngineFetchAddIsAtomic(t *testing.T) {
	t.Run("FetchDec", func(t *testing.T) { checkAtomicAdds(t, -1, (*SyncVar).FetchDec) })
	t.Run("FetchAdd(3)", func(t *testing.T) {
		checkAtomicAdds(t, 3, func(v *SyncVar, p Proc) int64 { return v.FetchAdd(p, 3) })
	})
	t.Run("FetchAdd(-5)", func(t *testing.T) {
		checkAtomicAdds(t, -5, func(v *SyncVar, p Proc) int64 { return v.FetchAdd(p, -5) })
	})
	t.Run("mixed with CAS path", func(t *testing.T) {
		// Odd processors add 2 by the always-true conditional {x != -1;
		// Fetch&Add(2)}, which must take the CAS loop; even ones by the
		// null-test instruction. Neither may lose the other's update.
		cond := Instr{Test: TestNE, TestVal: -1, Op: OpFetchAdd, Operand: 2}
		checkAtomicAdds(t, 2, func(v *SyncVar, p Proc) int64 {
			if p.ID()%2 == 1 {
				old, ok := v.Exec(p, cond)
				if !ok {
					t.Errorf("{x != -1} failed at %d", old)
				}
				return old
			}
			return v.FetchAdd(p, 2)
		})
	})
}

func TestRealEngineConditionalExec(t *testing.T) {
	// {v < limit; Increment} from many goroutines must stop exactly at limit.
	const limit = 5000
	eng := NewReal(RealConfig{P: 8})
	v := NewSyncVar("v", 0)
	in := Instr{Test: TestLT, TestVal: limit, Op: OpInc}
	var succ atomic64
	eng.Run(func(p Proc) {
		for {
			if _, ok := v.Exec(p, in); !ok {
				return
			}
			succ.add(1)
		}
	})
	if v.Peek() != limit {
		t.Errorf("v = %d, want %d", v.Peek(), limit)
	}
	if succ.load() != limit {
		t.Errorf("successes = %d, want %d", succ.load(), limit)
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	eng := NewReal(RealConfig{P: 8})
	sem := NewSemaphore("S", 1)
	counter := 0 // unsynchronized; protected by sem
	const perProc = 500
	eng.Run(func(p Proc) {
		for i := 0; i < perProc; i++ {
			sem.P(p)
			counter++
			sem.V(p)
		}
	})
	if counter != 8*perProc {
		t.Errorf("counter = %d, want %d (mutual exclusion violated)", counter, 8*perProc)
	}
	if sem.Value() != 1 {
		t.Errorf("final semaphore value = %d, want 1", sem.Value())
	}
}

func TestSemaphoreCounting(t *testing.T) {
	eng := NewReal(RealConfig{P: 6})
	sem := NewSemaphore("S", 3)
	var inside, maxInside atomic64
	var mu sync.Mutex
	eng.Run(func(p Proc) {
		for i := 0; i < 200; i++ {
			sem.P(p)
			n := inside.add(1)
			mu.Lock()
			if n > maxInside.load() {
				maxInside.store(n)
			}
			mu.Unlock()
			inside.add(-1)
			sem.V(p)
		}
	})
	if maxInside.load() > 3 {
		t.Errorf("max concurrent holders = %d, want <= 3", maxInside.load())
	}
	if sem.Value() != 3 {
		t.Errorf("final value = %d, want 3", sem.Value())
	}
}

func TestTryP(t *testing.T) {
	p := &testProc{}
	sem := NewSemaphore("S", 1)
	if !sem.TryP(p) {
		t.Error("TryP on available semaphore failed")
	}
	if sem.TryP(p) {
		t.Error("TryP on drained semaphore succeeded")
	}
	sem.V(p)
	if !sem.TryP(p) {
		t.Error("TryP after V failed")
	}
}

func TestSpinLock(t *testing.T) {
	eng := NewReal(RealConfig{P: 8})
	l := NewSpinLock("L")
	counter := 0
	const perProc = 500
	eng.Run(func(p Proc) {
		for i := 0; i < perProc; i++ {
			l.Lock(p)
			counter++
			l.Unlock(p)
		}
	})
	if counter != 8*perProc {
		t.Errorf("counter = %d, want %d", counter, 8*perProc)
	}
	if l.Locked() {
		t.Error("lock still held after run")
	}
}

func TestTryLock(t *testing.T) {
	p := &testProc{}
	l := NewSpinLock("L")
	if !l.TryLock(p) {
		t.Error("TryLock on free lock failed")
	}
	if l.TryLock(p) {
		t.Error("TryLock on held lock succeeded")
	}
	l.Unlock(p)
	if !l.TryLock(p) {
		t.Error("TryLock after Unlock failed")
	}
}

func TestBarrier(t *testing.T) {
	const P = 6
	eng := NewReal(RealConfig{P: P})
	b := NewBarrier("bar", P)
	var before, after atomic64
	eng.Run(func(p Proc) {
		before.add(1)
		b.Await(p)
		// Everyone must have arrived before anyone proceeds.
		if before.load() != P {
			t.Errorf("proc %d passed barrier with only %d arrivals", p.ID(), before.load())
		}
		after.add(1)
	})
	if after.load() != P {
		t.Errorf("after = %d, want %d", after.load(), P)
	}
	if b.Arrived() != P {
		t.Errorf("Arrived = %d, want %d", b.Arrived(), P)
	}
}

func TestRunReportUtilization(t *testing.T) {
	r := RunReport{Makespan: 100, Busy: []Time{50, 100, 50, 0}}
	if got, want := r.Utilization(), 0.5; got != want {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
	if got := (RunReport{}).Utilization(); got != 0 {
		t.Errorf("empty Utilization = %v, want 0", got)
	}
	if r.TotalBusy() != 200 {
		t.Errorf("TotalBusy = %d, want 200", r.TotalBusy())
	}
}

func TestWorkCountAccumulates(t *testing.T) {
	eng := NewReal(RealConfig{P: 3})
	rep := eng.Run(func(p Proc) {
		p.Work(10)
		p.Work(5)
	})
	for i, b := range rep.Busy {
		if b != 15 {
			t.Errorf("proc %d busy = %d, want 15", i, b)
		}
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Test: TestLT, TestVal: 100, Op: OpFetchAdd, Operand: 3}
	if got := in.String(); got != "{x < 100; Fetch&Add(3)}" {
		t.Errorf("String = %q", got)
	}
	in2 := Instr{Op: OpInc}
	if got := in2.String(); got != "{Increment(0)}" {
		t.Errorf("String = %q", got)
	}
}

// atomic64 is a tiny helper avoiding importing sync/atomic repeatedly in
// test bodies.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.v += d
	return a.v
}
func (a *atomic64) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}
func (a *atomic64) store(v int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.v = v
}

func BenchmarkFetchIncUncontended(b *testing.B) {
	p := &testProc{}
	v := NewSyncVar("v", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.FetchInc(p)
	}
}

func BenchmarkFetchIncContended(b *testing.B) {
	v := NewSyncVar("v", 0)
	b.RunParallel(func(pb *testing.PB) {
		p := &testProc{}
		for pb.Next() {
			v.FetchInc(p)
		}
	})
}

func BenchmarkFetchAddContended(b *testing.B) {
	v := NewSyncVar("v", 0)
	b.RunParallel(func(pb *testing.PB) {
		p := &testProc{}
		for pb.Next() {
			v.FetchAdd(p, 3)
		}
	})
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]int64{10, 10, 10}); got != 1 {
		t.Errorf("balanced = %v", got)
	}
	if got := Imbalance([]int64{30, 0, 0}); got != 3 {
		t.Errorf("imbalanced = %v", got)
	}
	if Imbalance(nil) != 0 || Imbalance([]int64{0, 0}) != 0 {
		t.Error("degenerate imbalance not 0")
	}
}

// TestInternIsStable: a label interned once names every variable it
// initializes, and interning a known name again returns the same label.
func TestInternIsStable(t *testing.T) {
	l := Intern("interned-once")
	if Intern("interned-once") != l || l.String() != "interned-once" {
		t.Fatalf("label %d reads %q, re-interned as %d", l, l.String(), Intern("interned-once"))
	}
	var v SyncVar
	v.Init(l, 7)
	if v.Name() != "interned-once" || v.Peek() != 7 {
		t.Errorf("Init(label, 7) reads back %q = %d", v.Name(), v.Peek())
	}
	if Label(0).String() != "" {
		t.Errorf("label 0 is %q, want the empty name", Label(0).String())
	}
}

// TestSpinLockLayout pins a lock's line: both ticket words share one
// 64-byte object, a size class whose blocks start on a line boundary, so
// no two locks share a line.
func TestSpinLockLayout(t *testing.T) {
	const line = 64
	if sz := unsafe.Sizeof(SpinLock{}); sz != line {
		t.Fatalf("SpinLock is %d bytes, want %d", sz, line)
	}
	keep := make([]*SpinLock, 0, 64)
	for i := 0; i < cap(keep); i++ {
		l := NewSpinLock(fmt.Sprintf("L(%d)", i))
		if a := uintptr(unsafe.Pointer(l)); a%line != 0 {
			t.Fatalf("fresh lock %d at %#x is not %d-byte aligned", i, a, line)
		}
		if got := l.serving.Name(); got != fmt.Sprintf("L(%d).serving", i) {
			t.Fatalf("fresh lock %d's serving word is named %q", i, got)
		}
		keep = append(keep, l)
	}
	runtime.KeepAlive(keep)
}
