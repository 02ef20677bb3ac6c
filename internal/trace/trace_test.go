package trace_test

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/refexec"
	"repro/internal/trace"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

func runTraced(t *testing.T, nest *loopir.Nest, p int) (*descr.Program, *refexec.Result, *trace.Log) {
	t.Helper()
	std, err := nest.Standardize()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := descr.Compile(std)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refexec.Run(std)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	if _, err := core.Run(prog, core.Config{
		Engine: vmachine.New(vmachine.Config{P: p, AccessCost: 4}),
		Scheme: lowsched.GSS{},
		Sink:   log,
	}); err != nil {
		t.Fatal(err)
	}
	return prog, ref, log
}

func TestFig1TraceVerifies(t *testing.T) {
	prog, ref, log := runTraced(t, workload.Fig1(workload.DefaultFig1()), 4)
	if err := log.VerifyExactlyOnce(prog, ref); err != nil {
		t.Errorf("exactly-once: %v", err)
	}
	g := descr.BuildGraph(prog)
	if err := log.VerifyPrecedence(prog, g); err != nil {
		t.Errorf("precedence: %v", err)
	}
	if log.Len() == 0 {
		t.Error("empty log")
	}
}

func TestRandomProgramsTraceVerify(t *testing.T) {
	n := int64(120)
	if testing.Short() {
		n = 25
	}
	for seed := int64(0); seed < n; seed++ {
		nest := workload.Random(seed, workload.DefaultRandConfig())
		prog, ref, log := runTraced(t, nest, int(seed%7)+1)
		if err := log.VerifyExactlyOnce(prog, ref); err != nil {
			t.Fatalf("seed %d exactly-once: %v", seed, err)
		}
		g := descr.BuildGraph(prog)
		if err := log.VerifyPrecedence(prog, g); err != nil {
			t.Fatalf("seed %d precedence: %v", seed, err)
		}
	}
}

func TestVerifyDetectsMissingInstance(t *testing.T) {
	prog, ref, _ := runTraced(t, workload.Fig1(workload.DefaultFig1()), 2)
	empty := trace.New()
	err := empty.VerifyExactlyOnce(prog, ref)
	if err == nil || !strings.Contains(err.Error(), "never executed") {
		t.Errorf("empty log passed verification: %v", err)
	}
}

func TestVerifyDetectsDuplicateIteration(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
	})
	prog, ref, log := runTraced(t, nest, 1)
	// Re-inject a duplicate iteration end.
	log.Record(trace.Event{Kind: trace.EvIterEnd, Loop: 1, A: 1, At: 99})
	err := log.VerifyExactlyOnce(prog, ref)
	if err == nil || !strings.Contains(err.Error(), "executed 2 times") {
		t.Errorf("duplicate iteration not detected: %v", err)
	}
}

func TestVerifyDetectsPrecedenceViolation(t *testing.T) {
	// Build a fake log where B starts before A completes, for A ; B.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(1), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
		b.DoallLeaf("B", loopir.Const(1), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
	})
	std, _ := nest.Standardize()
	prog, _ := descr.Compile(std)
	g := descr.BuildGraph(prog)
	log := trace.New()
	for _, e := range []trace.Event{
		{Kind: trace.EvActivated, Loop: 1, A: 1},
		{Kind: trace.EvIterStart, Loop: 1, A: 1, At: 10},
		{Kind: trace.EvIterEnd, Loop: 1, A: 1, At: 20},
		{Kind: trace.EvCompleted, Loop: 1, At: 20},
		{Kind: trace.EvActivated, Loop: 2, A: 1, At: 5},
		{Kind: trace.EvIterStart, Loop: 2, A: 1, Proc: 1, At: 5}, // starts before A completes
		{Kind: trace.EvIterEnd, Loop: 2, A: 1, Proc: 1, At: 8},
		{Kind: trace.EvCompleted, Loop: 2, At: 8},
	} {
		log.Record(e)
	}
	err := log.VerifyPrecedence(prog, g)
	if err == nil || !strings.Contains(err.Error(), "precedence violated") {
		t.Errorf("violation not detected: %v", err)
	}
}

func TestVerifyProjectsThroughCondNodes(t *testing.T) {
	// A ; if c { F } ; H with c false (empty else): H's predecessor
	// projects through the diamond to A.
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(10) })
		b.If("c", func(loopir.IVec) bool { return false }, func(b *loopir.B) {
			b.DoallLeaf("F", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(10) })
		}, nil)
		b.DoallLeaf("H", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(10) })
	})
	prog, ref, log := runTraced(t, nest, 3)
	if err := log.VerifyExactlyOnce(prog, ref); err != nil {
		t.Error(err)
	}
	g := descr.BuildGraph(prog)
	if err := log.VerifyPrecedence(prog, g); err != nil {
		t.Error(err)
	}
}

func TestEventAccessors(t *testing.T) {
	log := trace.New()
	log.Record(trace.Event{Kind: trace.EvIterStart, Loop: 3, IVec: loopir.IVec{1, 2}, A: 7, Proc: 1, At: 42})
	evs := log.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	e := evs[0]
	if e.Kind.String() != "iter-start" || e.Key() != "3(1,2)" || e.Seq != 1 {
		t.Errorf("event = %+v", e)
	}
}

// TestLogKeepsVerificationKinds: the Log drops the scheduling kinds and
// keeps of the rest what it has always kept — the JSONL golden and the
// memory a Verify run holds depend on it.
func TestLogKeepsVerificationKinds(t *testing.T) {
	log := trace.New()
	for _, k := range []trace.Kind{trace.EvClaim, trace.EvChunk, trace.EvPost, trace.EvSwitch, trace.EvBarrier} {
		log.Record(trace.Event{Kind: k, Loop: 1, A: 1, B: 2})
	}
	if n := log.Len(); n != 0 {
		t.Fatalf("log kept %d scheduling event(s)", n)
	}
	log.Record(trace.Event{Kind: trace.EvCompleted, Loop: 1, IVec: loopir.IVec{2}, A: 9, B: 2, Proc: 1, At: 7})
	want := trace.Event{Kind: trace.EvCompleted, Loop: 1, IVec: loopir.IVec{2}, At: 7, Seq: 1}
	if got := log.Events()[0]; got.Key() != want.Key() || got.A != 0 || got.B != 0 || got.Proc != 0 || got.At != 7 || got.Seq != 1 {
		t.Errorf("completed event kept as %+v, want %+v", got, want)
	}
	if size := unsafe.Sizeof(trace.Event{}); size > 72 {
		t.Errorf("trace.Event is %d bytes, want at most 72", size)
	}
}
