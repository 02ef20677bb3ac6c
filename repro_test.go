package repro

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func quickNest() *Nest {
	return MustBuild(func(b *B) {
		b.Doall("I", Const(3), func(b *B) {
			b.DoallLeaf("A", Const(10), func(e Env, iv IVec, j int64) {
				e.Work(100)
			})
		})
	})
}

func TestExecuteVirtual(t *testing.T) {
	res, err := Execute(quickNest(), Options{Procs: 4, Scheme: "gss"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 30 {
		t.Errorf("iterations = %d, want 30", res.Stats.Iterations)
	}
	if res.SchemeName != "GSS" || res.Procs != 4 {
		t.Errorf("scheme=%q procs=%d", res.SchemeName, res.Procs)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization = %v", res.Utilization)
	}
	if res.Makespan <= 0 || len(res.Busy) != 4 {
		t.Errorf("makespan=%d busy=%v", res.Makespan, res.Busy)
	}
}

func TestExecuteRealEngines(t *testing.T) {
	for _, eng := range []EngineKind{EngineReal, EngineRealSpin} {
		res, err := Execute(quickNest(), Options{Procs: 2, Engine: eng})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if res.Stats.Iterations != 30 {
			t.Errorf("%s: iterations = %d", eng, res.Stats.Iterations)
		}
	}
}

func TestRunWithVerify(t *testing.T) {
	prog, err := Compile(quickNest())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(Options{Procs: 8, Scheme: "css:4", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Error("Verify should populate the trace")
	}
}

func TestCompileWithCoalescing(t *testing.T) {
	prog, err := Compile(quickNest(), WithCoalescing())
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumLoops() != 1 {
		t.Errorf("coalesced NumLoops = %d, want 1", prog.NumLoops())
	}
	if !strings.Contains(prog.String(), "I*A") {
		t.Errorf("coalesced program:\n%s", prog)
	}
	res, err := prog.Run(Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 30 || res.Stats.Instances != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestProgramTables(t *testing.T) {
	prog, err := Compile(quickNest())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.DepthBoundTable(), "DEPTH") {
		t.Error("DepthBoundTable missing header")
	}
	if !strings.Contains(prog.DescriptorTable(), "DESCRPT_A") {
		t.Error("DescriptorTable missing records")
	}
	if !strings.Contains(prog.GraphDOT(), "digraph") {
		t.Error("GraphDOT not DOT")
	}
	if prog.Internal() == nil || prog.StdNest() == nil {
		t.Error("accessors returned nil")
	}
}

func TestOptionErrors(t *testing.T) {
	if _, err := Execute(quickNest(), Options{Engine: "warp"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := Execute(quickNest(), Options{Scheme: "bogus"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := Build(func(b *B) {}); err == nil {
		t.Error("empty nest accepted")
	}
}

func TestDoacrossThroughPublicAPI(t *testing.T) {
	order := make(chan int64, 64)
	nest := MustBuild(func(b *B) {
		b.DoacrossLeaf("W", Const(20), 1, func(e Env, iv IVec, j int64) {
			e.Work(10)
			order <- j
		})
	})
	res, err := Execute(nest, Options{Procs: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	// Verification re-runs the body sequentially; drain and count.
	close(order)
	n := 0
	for range order {
		n++
	}
	if n != 40 { // 20 parallel + 20 verification re-run
		t.Errorf("body executions = %d, want 40", n)
	}
	if res.Stats.Iterations != 20 {
		t.Errorf("iterations = %d", res.Stats.Iterations)
	}
}

func TestSingleListAndDispatchOptions(t *testing.T) {
	res, err := Execute(quickNest(), Options{Procs: 4, Pool: "single-list", DispatchCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DispatchTime == 0 {
		t.Error("dispatch cost not applied")
	}
}

// TestResultWithoutTraceReleasesProgram: GanttChart is the only reader
// of a Result's Program, and it needs a trace — so a Result kept without
// one (every served run's) must not keep the compiled program alive.
func TestResultWithoutTraceReleasesProgram(t *testing.T) {
	var freed atomic.Bool
	run := func(opts Options) *Result {
		prog, err := Compile(quickNest())
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(prog, func(*Program) { freed.Store(true) })
		res, err := prog.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	collected := func() bool {
		for i := 0; i < 100 && !freed.Load(); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		return freed.Load()
	}
	res := run(Options{Procs: 2})
	if !collected() {
		t.Error("a Result without a trace keeps its Program alive")
	}
	runtime.KeepAlive(res)

	freed.Store(false)
	traced := run(Options{Procs: 2, CollectTrace: true})
	if collected() {
		t.Error("a traced Result's Program was collected while the Result is held")
	}
	if traced.GanttChart(40) == "" {
		t.Error("GanttChart of a traced Result is empty")
	}
}

func TestGanttChartAndHotSpots(t *testing.T) {
	res, err := Execute(quickNest(), Options{Procs: 4, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g := res.GanttChart(40)
	if !strings.Contains(g, "P0 ") || !strings.Contains(g, "A") {
		t.Errorf("gantt chart:\n%s", g)
	}
	if len(res.HotSpots) == 0 {
		t.Fatal("no hot spots reported on the virtual engine")
	}
	names := map[string]bool{}
	for _, h := range res.HotSpots {
		names[h.Name] = true
	}
	if !names["index"] && !names["SW"] {
		t.Errorf("hot spots missing scheduler variables: %+v", res.HotSpots)
	}
	// Without a trace, the chart is empty.
	res2, err := Execute(quickNest(), Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.GanttChart(10) != "" {
		t.Error("GanttChart without trace should be empty")
	}
	// Real engine reports no hot spots.
	res3, err := Execute(quickNest(), Options{Procs: 2, Engine: EngineReal})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.HotSpots) != 0 {
		t.Error("real engine should not report hot spots")
	}
}

func TestSectionsThroughPublicAPI(t *testing.T) {
	nest := MustBuild(func(b *B) {
		b.Sections("PAR",
			func(b *B) { b.DoallLeaf("S1", Const(5), func(e Env, iv IVec, j int64) { e.Work(10) }) },
			func(b *B) { b.DoallLeaf("S2", Const(5), func(e Env, iv IVec, j int64) { e.Work(10) }) },
		)
	})
	res, err := Execute(nest, Options{Procs: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 10 {
		t.Errorf("iterations = %d, want 10", res.Stats.Iterations)
	}
}

func TestPoolOption(t *testing.T) {
	for _, pool := range []string{"", "per-loop", "single", "distributed"} {
		res, err := Execute(quickNest(), Options{Procs: 4, Pool: pool, Verify: true})
		if err != nil {
			t.Fatalf("pool %q: %v", pool, err)
		}
		if res.Stats.Iterations != 30 {
			t.Errorf("pool %q: iterations = %d", pool, res.Stats.Iterations)
		}
	}
	if _, err := Execute(quickNest(), Options{Pool: "bogus"}); err == nil {
		t.Error("unknown pool accepted")
	}
}

func TestRemotePenaltyOption(t *testing.T) {
	run := func(pen int64) int64 {
		res, err := Execute(MustBuild(func(b *B) {
			b.DoallLeaf("A", Const(200), func(e Env, iv IVec, j int64) { e.Work(5) })
		}), Options{Procs: 4, AccessCost: 10, RemotePenalty: pen})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if flat, numa := run(0), run(50); numa <= flat {
		t.Errorf("remote penalty should lengthen the run: %d vs %d", numa, flat)
	}
}

func TestCombiningOption(t *testing.T) {
	run := func(comb bool) int64 {
		res, err := Execute(MustBuild(func(b *B) {
			b.DoallLeaf("A", Const(400), func(e Env, iv IVec, j int64) { e.Work(1) })
		}), Options{Procs: 8, AccessCost: 20, Combining: comb})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if c, s := run(true), run(false); c >= s {
		t.Errorf("combining (%d) should beat serialized (%d) on a hot index", c, s)
	}
}

// unprintable is a panic value no recover-and-format can contain: its
// Error method panics with itself, and fmt gives up on the second
// failure and re-panics inside the recovering function.
type unprintable struct{}

func (u unprintable) Error() string { panic(u) }

// TestEscapedPanicSurfacesOnCaller pins des.Sim.Run's panic contract
// through the public API. The body's panic defeats both of the kernel's
// containment layers (each formats the recovered value), so it leaves
// the processor's function — on the virtual engine that used to be a
// bare goroutine, and the process died. Now Run re-raises it here, where
// a caller such as runner can turn it into a failed run, and the other
// three processors are gone by the time it does.
func TestEscapedPanicSurfacesOnCaller(t *testing.T) {
	nest := MustBuild(func(b *B) {
		b.DoallLeaf("L", Const(40), func(e Env, iv IVec, j int64) {
			e.Work(10)
			if j == 17 {
				panic(unprintable{})
			}
		})
	})
	prog, err := Compile(nest)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != (unprintable{}) {
				t.Errorf("Run panicked with a %T, want the body's panic value", r)
			}
		}()
		res, err := prog.Run(Options{Procs: 4})
		t.Errorf("Run returned (%v, %v) after a panic escaped a processor", res, err)
	}()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before Run, %d after the panic", before, after)
	}
}
