package trace_test

import (
	"strings"
	"testing"

	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/trace"
)

// TestVerifyDetectsViolationThroughCondNode: A ; if c { F } ; H with c
// false, where H starts before A completes. The edge between them runs
// through the condition node and the unexecuted F, so the precedence pass
// must carry A's completion across both to flag H.
func TestVerifyDetectsViolationThroughCondNode(t *testing.T) {
	leaf := func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) }
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(1), leaf)
		b.If("c", func(loopir.IVec) bool { return false }, func(b *loopir.B) {
			b.DoallLeaf("F", loopir.Const(1), leaf)
		}, nil)
		b.DoallLeaf("H", loopir.Const(1), leaf)
	})
	std, _ := nest.Standardize()
	prog, _ := descr.Compile(std)
	log := trace.New()
	for _, e := range []trace.Event{
		{Kind: trace.EvActivated, Loop: 1, A: 1},
		{Kind: trace.EvIterStart, Loop: 1, A: 1, At: 10},
		{Kind: trace.EvIterEnd, Loop: 1, A: 1, At: 20},
		{Kind: trace.EvCompleted, Loop: 1, At: 20},
		{Kind: trace.EvActivated, Loop: 3, A: 1, At: 5},
		{Kind: trace.EvIterStart, Loop: 3, A: 1, Proc: 1, At: 5},
		{Kind: trace.EvIterEnd, Loop: 3, A: 1, Proc: 1, At: 8},
		{Kind: trace.EvCompleted, Loop: 3, At: 8},
	} {
		log.Record(e)
	}
	err := log.VerifyPrecedence(prog, descr.BuildGraph(prog))
	if err == nil || !strings.Contains(err.Error(), "1() completed at 20 after 3() started at 5") {
		t.Errorf("violation through the condition node not detected: %v", err)
	}
}
