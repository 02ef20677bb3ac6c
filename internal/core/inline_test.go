package core_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/enginetest"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/trace"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// inlineEngine gives the virtual engine the real engine's clock stride
// and, when inline is set, its leave to run tiny instances inline, so the
// inline rule runs where every figure is deterministic. With inline unset
// it is the non-inlining run at the same stride.
type inlineEngine struct {
	core.Engine
	inline bool
}

func (inlineEngine) ClockStride() int        { return 16 }
func (e inlineEngine) InlineInstances() bool { return e.inline }

func newInlineEngine(p int, inline bool) core.Engine {
	return inlineEngine{vmachine.New(vmachine.Config{P: p, AccessCost: 5}), inline}
}

// compile standardizes and compiles nest.
func compile(t *testing.T, nest *loopir.Nest) *descr.Program {
	t.Helper()
	std, err := nest.Standardize()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := descr.Compile(std)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// plan compiles nest and returns its program, plan and oracle.
func plan(t *testing.T, nest *loopir.Nest) (*descr.Program, *core.Plan, *refexec.Result) {
	t.Helper()
	prog := compile(t, nest)
	pl, err := core.NewPlan(prog)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refexec.Run(prog.Nest)
	if err != nil {
		t.Fatal(err)
	}
	return prog, pl, ref
}

// serialOf is `serial K = 1..l { doall Z = 1..n { work 1 } }` whose
// bound and body call probe: the zero-trip program at n = 0, its inline
// twin at n = 1.
func serialOf(l, n int64, probe func()) *loopir.Nest {
	return loopir.MustBuild(func(b *loopir.B) {
		b.Serial("K", loopir.Const(l), func(b *loopir.B) {
			b.DoallLeaf("Z", loopir.BoundFn(func(loopir.IVec) int64 { probe(); return n }),
				func(e loopir.Env, _ loopir.IVec, _ int64) { probe(); e.Work(1) })
		})
	})
}

// stackEngines are the engines a serial chain runs on: both engines, and
// the virtual one with the inline leave.
var stackEngines = []struct {
	name string
	new  func(p int) core.Engine
}{
	{"virtual", func(p int) core.Engine { return vmachine.New(vmachine.Config{P: p, AccessCost: 5}) }},
	{"real", func(p int) core.Engine { return machine.NewReal(machine.RealConfig{P: p}) }},
	{"virtual-inline", func(p int) core.Engine { return newInlineEngine(p, true) }},
}

// TestEnterExitStackDepth measures the deepest stack a serial chain of
// vacuous completions (the zero-trip program) and of inline instances
// (its twin) reaches from a bound or a body: ENTER and EXIT are one loop,
// so it does not grow with the chain's length.
func TestEnterExitStackDepth(t *testing.T) {
	pcs := make([]uintptr, 1<<16)
	for _, n := range []int64{0, 1} {
		for _, eng := range stackEngines {
			if eng.name == "real" && n == 1 {
				// Which instances the real engine runs inline depends on
				// timing, and an inline body runs deeper than a published
				// one; TestSerialChainsDoNotOverflow bounds that path.
				continue
			}
			var frames [2]int
			for i, l := range []int64{1_000, 10_000} {
				probe := func() { frames[i] = max(frames[i], runtime.Callers(0, pcs)) }
				if _, err := core.Run(compile(t, serialOf(l, n, probe)), core.Config{Engine: eng.new(1)}); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%s, doall Z = 1..%d: %d frames at L = 1000, %d at L = 10000", eng.name, n, frames[0], frames[1])
			if frames[0] != frames[1] {
				t.Errorf("%s, doall Z = 1..%d: the stack grew from %d to %d frames with the serial loop's trip count",
					eng.name, n, frames[0], frames[1])
			}
		}
	}
}

// TestSerialChainsDoNotOverflow runs the zero-trip program, and its
// inline twin, for 2×10⁵ serial iterations under a 64 MB stack limit —
// which a recursive ENTER/EXIT overflows, a fatal error no recover
// catches. On the deterministic inline engine the twin must run inline.
func TestSerialChainsDoNotOverflow(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	const l = 200_000
	for _, n := range []int64{0, 1} {
		for _, eng := range stackEngines {
			rep, err := core.Run(compile(t, serialOf(l, n, func() {})), core.Config{Engine: eng.new(2)})
			if err != nil {
				t.Fatalf("%s, doall Z = 1..%d: %v", eng.name, n, err)
			}
			st := rep.Stats
			t.Logf("%s, doall Z = 1..%d: %d instances, %d searches, %d zero-trips", eng.name, n, st.Instances, st.Searches, st.ZeroTrips)
			if st.Iterations != n*l || st.ZeroTrips != (1-n)*l {
				t.Errorf("%s, doall Z = 1..%d: %d iterations and %d zero-trips", eng.name, n, st.Iterations, st.ZeroTrips)
			}
			if eng.name == "virtual-inline" && n == 1 && st.Searches > l/100 {
				t.Errorf("inline twin: %d searches for %d instances, want nearly all inline", st.Searches, st.Instances)
			}
		}
	}
}

// TestEndlessZeroTripChainCancels cancels a serial loop of 2^40
// iterations around a doall of none: the chain of vacuous completions
// never claims or searches, and the EXIT walk is where it drains.
func TestEndlessZeroTripChainCancels(t *testing.T) {
	prog := compile(t, serialOf(1<<40, 0, func() {}))
	for _, eng := range stackEngines {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := core.RunContext(ctx, prog, core.Config{Engine: eng.new(2)})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: run returned %v, want the deadline", eng.name, err)
		}
	}
}

// inlinedOf returns the first enclosing index of every instance the ring
// saw run inline: on one processor, its activation directly followed by
// one claim of all its iterations, the chunk and the completion.
func inlinedOf(r *trace.Ring) []int64 {
	byProc := map[int32][]trace.Event{}
	for _, e := range r.Tail(0) {
		byProc[e.Proc] = append(byProc[e.Proc], e)
	}
	var out []int64
	for _, evs := range byProc {
		slices.SortFunc(evs, func(a, b trace.Event) int { return int(a.Seq - b.Seq) })
		for i := 0; i+3 < len(evs); i++ {
			act, cl, ch, done := evs[i], evs[i+1], evs[i+2], evs[i+3]
			if act.Kind == trace.EvActivated && cl.Kind == trace.EvClaim && ch.Kind == trace.EvChunk &&
				done.Kind == trace.EvCompleted && cl.Loop == act.Loop && ch.Loop == act.Loop &&
				done.Loop == act.Loop && cl.A == 1 && cl.B == act.A && ch.A == 1 && ch.B == act.A &&
				done.B == act.B {
				out = append(out, act.B)
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestInlineKeepsCounts runs a fan-out of 640 four-iteration instances
// with and without the inline leave: the instance, EXIT, ENTER and
// iteration counts agree, every activation is a fresh or a recycled
// block, each inline instance's four events are in the flight recorder,
// and it claimed one chunk where a published instance claims four.
func TestInlineKeepsCounts(t *testing.T) {
	pl, err := core.NewPlan(compile(t, workload.ManyInstances(8, 640, 4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	run := func(inline bool) (core.Snapshot, []int64) {
		ring := trace.NewRing(p, 1<<14)
		rep, err := core.RunPlan(pl, core.Config{Engine: newInlineEngine(p, inline), Scheme: lowsched.SS{}, Sink: ring})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats, inlinedOf(ring)
	}
	base, none := run(false)
	got, inlined := run(true)
	k := int64(len(inlined))
	t.Logf("%d of %d instances inline: %d chunks (%d without), %d searches (%d without)",
		k, got.Instances, got.Chunks, base.Chunks, got.Searches, base.Searches)
	if len(none) != 0 {
		t.Errorf("the non-inlining run ran %d instances inline", len(none))
	}
	if got.Instances != base.Instances || got.Exits != base.Exits || got.Enters != base.Enters || got.Iterations != base.Iterations {
		t.Errorf("counts diverge:\ninline    %+v\npublished %+v", got, base)
	}
	if k < got.Instances/2 {
		t.Errorf("%d of %d instances ran inline, want most", k, got.Instances)
	}
	if want := 4*(got.Instances-k) + k; got.Chunks != want {
		t.Errorf("%d chunks, want %d: four per published instance and one per inline one", got.Chunks, want)
	}
	if got.ICBAllocs+got.ICBReuses != got.Instances {
		t.Errorf("%d fresh + %d recycled blocks, want %d instances", got.ICBAllocs, got.ICBReuses, got.Instances)
	}
}

// ladder is a fan-out of inst instances through an IF ladder to one of m
// leaves of iters iterations each, whose bodies record into bl.
func ladder(bl *enginetest.BodyLog, m, inst, iters int64) *loopir.Nest {
	return loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(inst), func(b *loopir.B) {
			var rung func(b *loopir.B, k int64)
			rung = func(b *loopir.B, k int64) {
				name := fmt.Sprintf("W%d", k)
				leaf := func(b *loopir.B) { b.DoallLeaf(name, loopir.Const(iters), bl.Body(name, 1)) }
				if k == m-1 {
					leaf(b)
					return
				}
				b.If(name+"?", func(iv loopir.IVec) bool { return iv[0]%m == k }, leaf,
					func(b *loopir.B) { rung(b, k+1) })
			}
			rung(b, 0)
		})
	})
}

// TestInlineVerifies holds inline instances to exactly-once and to the
// macro-dataflow precedence, through a BodyLog.
func TestInlineVerifies(t *testing.T) {
	bl := enginetest.NewBodyLog()
	prog, pl, ref := plan(t, ladder(bl, 8, 640, 4))
	for _, p := range []int{1, 4} {
		log := bl.Begin(prog)
		if _, err := core.RunPlan(pl, core.Config{Engine: newInlineEngine(p, true), Sink: bl}); err != nil {
			t.Fatal(err)
		}
		t.Logf("P=%d: %d instances inline", p, bl.Inlined())
		if bl.Inlined() == 0 {
			t.Errorf("P=%d: no instance ran inline", p)
		}
		if err := log.VerifyExactlyOnceIn(prog, ref, refexec.Context{Nest: "ladder", Engine: "virtual-inline"}); err != nil {
			t.Error(err)
		}
		if err := log.VerifyPrecedence(prog, descr.BuildGraph(prog)); err != nil {
			t.Error(err)
		}
	}
}

// TestInlineStopsWhenTheBodyGrows runs 1600 four-iteration instances
// whose body costs 1 up to instance 1280 and then one more per instance:
// the exact inline reads restart the leaf's body mean, so a worker stops
// inlining within about s inline instances of the body outgrowing
// publication. A mean kept since the start of the run, or a τ̂ that only
// published holds refresh, lets 223 and 288 instances of the grown body
// run inline here, up to instance 1561 and 1600.
func TestInlineStopsWhenTheBodyGrows(t *testing.T) {
	const cheap = 1280
	cost := func(i int64) int64 { return 1 + max(i-cheap, 0) }
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(1600), func(b *loopir.B) {
			b.DoallLeaf("Z", loopir.Const(4), func(e loopir.Env, iv loopir.IVec, _ int64) { e.Work(cost(iv[0])) })
		})
	})
	const p, s = 4, 16
	ring := trace.NewRing(p, 1<<15)
	if _, err := core.Run(compile(t, nest), core.Config{Engine: newInlineEngine(p, true), Sink: ring}); err != nil {
		t.Fatal(err)
	}
	inlined := inlinedOf(ring)
	grown := slices.DeleteFunc(slices.Clone(inlined), func(i int64) bool { return i <= cheap })
	last := inlined[len(inlined)-1]
	t.Logf("%d instances inline, %d after the growth; the last at I = %d (body %d per iteration)",
		len(inlined), len(grown), last, cost(last))
	if n := len(inlined) - len(grown); n < cheap/2 {
		t.Errorf("%d of the %d cheap instances ran inline, want most", n, cheap)
	}
	if len(grown) > 2*p*s {
		t.Errorf("%d instances ran inline after the body grew, want at most %d", len(grown), 2*p*s)
	}
	if last > 1520 {
		t.Errorf("instance %d (body %d per iteration) ran inline", last, cost(last))
	}
}

// TestInlineBudget gives a run of four-iteration instances a budget that
// is not a multiple of four: an inline instance is charged whole or
// published, so the run stops at exactly the budget, with the instance
// the budget cuts published and paused mid-way.
func TestInlineBudget(t *testing.T) {
	const budget = 4*250 + 2
	ring := trace.NewRing(4, 1<<14)
	_, err := core.Run(compile(t, workload.ManyInstances(8, 640, 4, 1)), core.Config{
		Engine: newInlineEngine(4, true), Scheme: lowsched.SS{}, Sink: ring,
		Budget: &core.Budget{Iterations: budget}, Checkpoint: &core.CheckpointConfig{},
	})
	var be *core.BudgetExceededError
	if !errors.As(err, &be) || be.Snapshot == nil {
		t.Fatalf("run returned %v, want a budget pause with a snapshot", err)
	}
	cut := 0
	for _, icb := range be.Snapshot.ICBs {
		if icb.Done > 0 {
			cut++
		}
	}
	t.Logf("%d iterations, %d instances inline, %d live instances (%d cut)", be.Iterations, len(inlinedOf(ring)), len(be.Snapshot.ICBs), cut)
	if be.Iterations != budget {
		t.Errorf("paused after %d iterations, want %d", be.Iterations, budget)
	}
	if len(inlinedOf(ring)) == 0 || cut == 0 {
		t.Errorf("want inline instances before the pause and a published instance the budget cut")
	}
}

// TestInlineCheckpointMidFanOut pauses a fan-out of tiny instances at a
// claim-k checkpoint while its fan-out block is half claimed, and resumes
// it on the inline engine: the two parts execute exactly the
// uninterrupted run's iterations once and land on its totals.
func TestInlineCheckpointMidFanOut(t *testing.T) {
	bl := enginetest.NewBodyLog()
	prog, pl, ref := plan(t, ladder(bl, 4, 400, 4))
	const p = 4
	leg := func(ck *core.CheckpointConfig) (*core.Report, *trace.Log, error) {
		log := bl.Begin(prog)
		rep, err := core.RunPlan(pl, core.Config{Engine: newInlineEngine(p, true), Sink: bl, Checkpoint: ck})
		return rep, log, err
	}
	full, fullLog, err := leg(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := refexec.Context{Nest: "ladder-resume", Engine: "virtual-inline"}
	if err := fullLog.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
		t.Fatal(err)
	}
	_, partLog, pause := leg(&core.CheckpointConfig{AfterChunks: 400})
	inlined := bl.Inlined()
	var cke *core.CheckpointedError
	if !errors.As(pause, &cke) {
		t.Fatalf("checkpoint run returned %v, want CheckpointedError", pause)
	}
	snap := cke.Snapshot
	t.Logf("paused after %d inline instances: %d live instances, %d fan-outs", inlined, len(snap.ICBs), len(snap.FanOuts))
	if inlined == 0 || len(snap.FanOuts) == 0 {
		t.Fatalf("want the pause among inline instances with the fan-out in flight")
	}
	rest, restLog, err := leg(&core.CheckpointConfig{Restore: snap})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	got := iterations(partLog)
	for key, n := range iterations(restLog) {
		got[key] += n
	}
	if want := iterations(fullLog); !maps.Equal(got, want) {
		t.Errorf("the parts executed %d distinct iterations, the uninterrupted run %d (or counts differ)", len(got), len(want))
	}
	fs, gs := full.Stats, rest.Stats
	if gs.Iterations != fs.Iterations || gs.Instances != fs.Instances || gs.Exits != fs.Exits || gs.Enters != fs.Enters {
		t.Errorf("resumed totals diverge:\nresumed       %+v\nuninterrupted %+v", gs, fs)
	}
}

// iterations folds a log into iteration-execution counts.
func iterations(l *trace.Log) map[string]int {
	m := map[string]int{}
	for _, e := range l.Events() {
		if e.Kind == trace.EvIterStart {
			m[fmt.Sprintf("%d%v#%d", e.Loop, e.IVec, e.A)]++
		}
	}
	return m
}

// TestInlineIsolate quarantines a failing iteration of an inline
// instance: Isolate runs the instance as one chunk, and the run completes
// with that iteration, and only it, in the failure report.
func TestInlineIsolate(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(640), func(b *loopir.B) {
			b.DoallLeaf("Z", loopir.Const(4), func(e loopir.Env, _ loopir.IVec, _ int64) { e.Work(1) })
		})
	})
	const p, bad = 4, 600
	ring := trace.NewRing(p, 1<<14)
	rep, err := core.Run(compile(t, nest), core.Config{
		Engine: newInlineEngine(p, true), Sink: ring, Failure: core.Isolate,
		Inject: fault.New(0).At(1, []int64{bad}, 3, fault.Fault{Kind: fault.Error}, fault.Forever),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(inlinedOf(ring), bad) {
		t.Fatalf("instance %d did not run inline", bad)
	}
	f := rep.Stats.Failures
	if rep.Stats.Iterations != 640*4-1 || f == nil || len(f.Ranges) != 1 {
		t.Fatalf("%d iterations, failures %+v; want one quarantined iteration", rep.Stats.Iterations, f)
	}
	if r := f.Ranges[0]; r.Loop != 1 || !slices.Equal(r.IVec, []int64{bad}) || r.Lo != 3 || r.Hi != 3 {
		t.Errorf("quarantined %+v, want loop 1, ivec [%d], iteration 3", r, bad)
	}
}

// TestBaselinesPublish: the baselines that price every instance as a task
// — a static pre-assignment and an OS dispatch per adoption — publish
// every instance even where the engine allows inlining.
func TestBaselinesPublish(t *testing.T) {
	prog := compile(t, workload.ManyInstances(4, 200, 4, 1))
	for name, cfg := range map[string]core.Config{
		"static-block": {Scheme: lowsched.StaticBlock{}},
		"dispatch":     {DispatchCost: 50},
	} {
		ring := trace.NewRing(4, 1<<13)
		cfg.Engine, cfg.Sink = newInlineEngine(4, true), ring
		if _, err := core.Run(prog, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k := len(inlinedOf(ring)); k != 0 {
			t.Errorf("%s: %d instances ran inline", name, k)
		}
	}
}
