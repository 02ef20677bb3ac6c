package pool

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/loopir"
	"repro/internal/machine"
)

// tp is a minimal Proc for single-threaded pool tests.
type tp struct{ accesses, spins int64 }

func (p *tp) ID() int                 { return 0 }
func (p *tp) NumProcs() int           { return 1 }
func (p *tp) Now() int64              { return 0 }
func (p *tp) Work(int64)              {}
func (p *tp) Idle(int64)              {}
func (p *tp) Access(*machine.SyncVar) { p.accesses++ }
func (p *tp) Spin()                   { p.spins++ }

func never() bool { return false }

// sweeper is the primitive surface the core kernel drives. The tests
// re-create the kernel's SEARCH loop over it so the pool protocol can be
// exercised standalone.
type sweeper interface {
	First(machine.Proc) int
	Next(machine.Proc, int) int
	TryAdopt(machine.Proc, int, func(*ICB) bool, bool, *SearchStats) *ICB
}

func searchWhere(pl sweeper, pr machine.Proc, stop func() bool, needs func(*ICB) bool, st *SearchStats) *ICB {
	fruitless := 0
	for {
		if stop() {
			return nil
		}
		st.Sweeps++
		i := pl.First(pr)
		if i == 0 {
			pr.Spin()
			continue
		}
		block := fruitless > 4
		for i != 0 {
			if icb := pl.TryAdopt(pr, i, needs, block, st); icb != nil {
				return icb
			}
			i = pl.Next(pr, i)
		}
		fruitless++
		pr.Spin()
	}
}

func search(pl sweeper, pr machine.Proc, stop func() bool, st *SearchStats) *ICB {
	return searchWhere(pl, pr, stop, nil, st)
}

// adoptCount is SchedState scaffolding for the stress tests: a per-ICB
// adoption counter.
type adoptCount struct{ atomic.Int64 }

func (*adoptCount) SchemeName() string { return "adopt-count" }

func listLabels(pl *Pool, loop int) []string {
	var out []string
	for icb := pl.lists[pl.loopList(loop)].head; icb != nil; icb = icb.right {
		out = append(out, fmt.Sprintf("%d%v", icb.Loop, icb.IVec))
	}
	return out
}

func TestNewICBInitialState(t *testing.T) {
	icb := NewICB(3, 7, loopir.IVec{1, 2})
	if icb.Index.Peek() != 1 || icb.ICount.Peek() != 0 || icb.PCount.Peek() != 0 {
		t.Errorf("initial state wrong: %v", icb)
	}
	if icb.Loop != 3 || icb.Bound != 7 {
		t.Errorf("fields wrong: %v", icb)
	}
	// IVec must be a copy.
	src := loopir.IVec{5}
	icb2 := NewICB(1, 1, src)
	src[0] = 9
	if icb2.IVec[0] != 5 {
		t.Error("NewICB aliases caller's ivec")
	}
}

func TestReinitStartsFreshLifetime(t *testing.T) {
	p := &tp{}
	icb := NewICB(2, 9, loopir.IVec{4, 5})
	icb.Index.FetchAdd(p, 9)
	icb.ICount.FetchAdd(p, 9)
	icb.PCount.FetchInc(p)
	icb.Sched = new(adoptCount)
	icb.Bar = new(int)
	gen := icb.Index.Generation()

	icb.Reinit(1, 3, loopir.IVec{7})
	if icb.Index.Peek() != 1 || icb.ICount.Peek() != 0 || icb.PCount.Peek() != 0 {
		t.Errorf("reinit state wrong: %v", icb)
	}
	if icb.Loop != 1 || icb.Bound != 3 {
		t.Errorf("reinit fields wrong: %v", icb)
	}
	if got := fmt.Sprint(icb.IVec); got != "(7)" {
		t.Errorf("reinit ivec = %s, want (7)", got)
	}
	if icb.Sched == nil {
		t.Error("reinit must retain typed state attachments for in-place reuse")
	}
	if icb.Bar != nil {
		t.Error("reinit kept the previous instance's barrier block")
	}
	// The variables must start a new lifetime so identity-keyed engine
	// state (vmachine avail/home/stats) treats them as fresh.
	if icb.Index.Generation() == gen {
		t.Error("reinit did not advance the sync variables' generation")
	}
	// Reinit must not alias the caller's ivec.
	src := loopir.IVec{5}
	icb.Reinit(1, 1, src)
	src[0] = 9
	if icb.IVec[0] != 5 {
		t.Error("Reinit aliases caller's ivec")
	}

	listed := NewICB(1, 1, nil)
	pl := New(1)
	pl.Append(p, listed)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on reinit of listed ICB")
		}
	}()
	listed.Reinit(1, 1, nil)
}

func TestAppendDeleteOrder(t *testing.T) {
	p := &tp{}
	pl := New(2)
	a := NewICB(1, 5, loopir.IVec{1})
	b := NewICB(1, 5, loopir.IVec{2})
	c := NewICB(1, 5, loopir.IVec{3})
	pl.Append(p, a)
	pl.Append(p, b)
	pl.Append(p, c)
	if got := fmt.Sprint(listLabels(pl, 1)); got != "[1(1) 1(2) 1(3)]" {
		t.Errorf("list = %s", got)
	}
	if pl.SWString() != "10" {
		t.Errorf("SW = %s, want 10", pl.SWString())
	}

	// Delete from the middle, head, then tail.
	pl.Delete(p, b)
	if got := fmt.Sprint(listLabels(pl, 1)); got != "[1(1) 1(3)]" {
		t.Errorf("after middle delete: %s", got)
	}
	pl.Delete(p, a)
	if got := fmt.Sprint(listLabels(pl, 1)); got != "[1(3)]" {
		t.Errorf("after head delete: %s", got)
	}
	if pl.SWString() != "10" {
		t.Errorf("SW after partial deletes = %s, want 10", pl.SWString())
	}
	pl.Delete(p, c)
	if len(pl.Blocks()) != 0 {
		t.Error("list not empty after deleting all")
	}
	if pl.SWString() != "00" {
		t.Errorf("SW after emptying = %s, want 00 (bit stays clear)", pl.SWString())
	}
	if !pl.Empty() {
		t.Error("Empty() = false on empty pool")
	}
}

func TestSearchAdoptsAndCountsPCount(t *testing.T) {
	p := &tp{}
	pl := New(1)
	icb := NewICB(1, 2, nil)
	pl.Append(p, icb)
	var st SearchStats
	got := search(pl, p, never, &st)
	if got != icb {
		t.Fatalf("Search returned %v", got)
	}
	if icb.PCount.Peek() != 1 {
		t.Errorf("pcount = %d, want 1", icb.PCount.Peek())
	}
	// Second adoption (bound 2 allows two processors).
	if search(pl, p, never, &st) != icb {
		t.Fatal("second Search failed")
	}
	if icb.PCount.Peek() != 2 {
		t.Errorf("pcount = %d, want 2", icb.PCount.Peek())
	}
	if st.Walked < 2 {
		t.Errorf("stats walked = %d, want >= 2", st.Walked)
	}
}

func TestSearchSkipsSaturatedICB(t *testing.T) {
	p := &tp{}
	pl := New(1)
	full := NewICB(1, 1, loopir.IVec{1})
	free := NewICB(1, 1, loopir.IVec{2})
	pl.Append(p, full)
	pl.Append(p, free)
	var st SearchStats
	if got := search(pl, p, never, &st); got != full {
		t.Fatalf("first adoption should saturate the first ICB")
	}
	if got := search(pl, p, never, &st); got != free {
		t.Fatalf("Search did not skip the saturated ICB, got %v", got)
	}
}

func TestSearchStopsWhenTold(t *testing.T) {
	p := &tp{}
	pl := New(3)
	calls := 0
	stop := func() bool { calls++; return calls > 2 }
	var st SearchStats
	if got := search(pl, p, stop, &st); got != nil {
		t.Errorf("Search on empty pool = %v, want nil", got)
	}
	if p.spins == 0 {
		t.Error("Search on empty pool should have spun")
	}
}

func TestSearchPrefersLowestList(t *testing.T) {
	p := &tp{}
	pl := New(4)
	hi := NewICB(4, 3, nil)
	lo := NewICB(2, 3, nil)
	pl.Append(p, hi)
	pl.Append(p, lo)
	var st SearchStats
	if got := search(pl, p, never, &st); got != lo {
		t.Errorf("leading-one-detection should find list 2 first, got loop %d", got.Loop)
	}
}

func TestSearchMovesToNextListWhenSaturated(t *testing.T) {
	p := &tp{}
	pl := New(3)
	sat := NewICB(1, 1, nil)
	pl.Append(p, sat)
	var st SearchStats
	if search(pl, p, never, &st) != sat {
		t.Fatal("setup adoption failed")
	}
	free := NewICB(3, 2, nil)
	pl.Append(p, free)
	if got := search(pl, p, never, &st); got != free {
		t.Fatalf("Search stuck on saturated list 1, got %v", got)
	}
	if st.Saturated == 0 {
		t.Error("stats should count the saturated list")
	}
}

func TestSingleListPool(t *testing.T) {
	p := &tp{}
	pl := NewSingleList(5)
	if pl.NumLists() != 1 {
		t.Fatalf("NumLists = %d, want 1", pl.NumLists())
	}
	for loop := 1; loop <= 5; loop++ {
		pl.Append(p, NewICB(loop, 1, nil))
	}
	if got := len(listLabels(pl, 3)); got != 5 {
		t.Errorf("shared list has %d entries, want 5", got)
	}
	seen := map[int]bool{}
	var st SearchStats
	for k := 0; k < 5; k++ {
		icb := search(pl, p, never, &st)
		if icb == nil {
			t.Fatal("Search failed")
		}
		seen[icb.Loop] = true
	}
	if len(seen) != 5 {
		t.Errorf("adopted loops = %v, want all five", seen)
	}
}

func TestSearchWhereFilter(t *testing.T) {
	p := &tp{}
	pl := New(2)
	a := NewICB(1, 3, loopir.IVec{1})
	b := NewICB(2, 3, loopir.IVec{2})
	pl.Append(p, a)
	pl.Append(p, b)
	var st SearchStats
	onlyLoop2 := func(icb *ICB) bool { return icb.Loop == 2 }
	if got := searchWhere(pl, p, never, onlyLoop2, &st); got != b {
		t.Fatalf("filter ignored: got %v", got)
	}
	if a.PCount.Peek() != 0 {
		t.Error("filtered ICB's pcount was touched")
	}
	// A filter rejecting everything keeps searching until stop().
	calls := 0
	stop := func() bool { calls++; return calls > 3 }
	if got := searchWhere(pl, p, stop, func(*ICB) bool { return false }, &st); got != nil {
		t.Errorf("all-rejecting filter returned %v", got)
	}
}

func TestDistributedSearchWhereFilter(t *testing.T) {
	d := NewDistributed(2, 2)
	p0 := &dtp{id: 0, n: 2}
	a := NewICB(1, 3, nil)
	b := NewICB(2, 3, nil)
	d.Append(p0, a)
	d.Append(p0, b)
	var st SearchStats
	if got := searchWhere(d, p0, never, func(icb *ICB) bool { return icb.Loop == 2 }, &st); got != b {
		t.Fatalf("distributed filter ignored: got %v", got)
	}
}

func TestPoolPanicsOnBadSizes(t *testing.T) {
	for _, f := range []func(){
		func() { New(0) },
		func() { NewSingleList(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for invalid pool size")
				}
			}()
			f()
		}()
	}
	p := &tp{}
	pl := New(2)
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range loop")
		}
	}()
	pl.Append(p, NewICB(3, 1, nil))
}

// TestConcurrentAppendSearchDelete stress-tests the pool protocol on the
// real engine: producers append ICBs, consumers adopt each ICB exactly
// bound times, and the ICB is deleted after its last adoption.
func TestConcurrentAppendSearchDelete(t *testing.T) {
	const (
		P       = 8
		perLoop = 60
		m       = 4
		bound   = 3
	)
	eng := machine.NewReal(machine.RealConfig{P: P})
	pl := New(m)
	var produced, adoptions atomic.Int64
	var done atomic.Bool
	total := int64(m * perLoop)

	eng.Run(func(pr machine.Proc) {
		var st SearchStats
		if pr.ID() < m { // producers (one per loop)
			loop := pr.ID() + 1
			for k := 0; k < perLoop; k++ {
				icb := NewICB(loop, bound, loopir.IVec{int64(k)})
				icb.Sched = new(adoptCount) // per-ICB adoption counter
				pl.Append(pr, icb)
				produced.Add(1)
			}
		}
		// Everyone consumes.
		for {
			icb := search(pl, pr, func() bool { return done.Load() }, &st)
			if icb == nil {
				return
			}
			n := adoptions.Add(1)
			// The bound-th adopter deletes the ICB (mimicking the
			// last-iteration DELETE of Algorithm 3); the per-ICB counter
			// makes the trigger exactly-once.
			if icb.Sched.(*adoptCount).Add(1) == bound {
				pl.Delete(pr, icb)
			}
			if n == total*bound {
				done.Store(true)
			}
		}
	})
	if adoptions.Load() != total*bound {
		t.Errorf("adoptions = %d, want %d", adoptions.Load(), total*bound)
	}
	if !pl.Empty() {
		t.Error("pool not empty after run")
	}
}

// TestConcurrentPCountNeverExceedsBound verifies the adoption gate.
func TestConcurrentPCountNeverExceedsBound(t *testing.T) {
	const P, bound = 8, 3
	eng := machine.NewReal(machine.RealConfig{P: P})
	pl := New(1)
	icb := NewICB(1, bound, nil)
	var adopted atomic.Int64
	setup := &tp{}
	pl.Append(setup, icb)
	eng.Run(func(pr machine.Proc) {
		var st SearchStats
		got := search(pl, pr, func() bool { return adopted.Load() >= bound }, &st)
		if got != nil {
			adopted.Add(1)
		}
	})
	if adopted.Load() != bound {
		t.Errorf("adopted = %d, want exactly %d", adopted.Load(), bound)
	}
	if icb.PCount.Peek() != bound {
		t.Errorf("pcount = %d, want %d", icb.PCount.Peek(), bound)
	}
}

func BenchmarkAppendDelete(b *testing.B) {
	p := &tp{}
	pl := New(1)
	icb := NewICB(1, 10, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.Append(p, icb)
		pl.Delete(p, icb)
	}
}

func BenchmarkSearchAdopt(b *testing.B) {
	p := &tp{}
	pl := New(8)
	icb := NewICB(5, int64(b.N)+1, nil)
	pl.Append(p, icb)
	var st SearchStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if search(pl, p, never, &st) == nil {
			b.Fatal("search failed")
		}
	}
}

// TestRetiredIsLIFO: the retired stack hands blocks back newest first,
// leaves no link behind on a popped block, and refuses a listed one.
func TestRetiredIsLIFO(t *testing.T) {
	var r Retired
	a, b := NewICB(1, 4, nil), NewICB(1, 4, nil)
	r.Push(a)
	r.Push(b)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := r.Pop(); got != b || got.right != nil {
		t.Errorf("first Pop = %p (right %p), want %p unlinked", got, got.right, b)
	}
	if got := r.Pop(); got != a || r.Pop() != nil || r.Len() != 0 {
		t.Errorf("second Pop = %p, want %p and then an empty stack", got, a)
	}
	p := New(1)
	p.Append(&tp{}, a)
	defer func() {
		if recover() == nil {
			t.Error("pushing a listed block did not panic")
		}
	}()
	r.Push(a)
}
