package core

import (
	"repro/internal/descr"
	"repro/internal/lowsched"
	"repro/internal/pool"
	"repro/internal/trace"
)

// This file is the inline instance (DESIGN §2): on an engine that allows
// it, an instance whose body costs less than publishing it runs where it
// is activated — work-first — instead of being appended for SEARCH to
// find. Eq. (1) charges every published instance O2/n + O3 and low-level
// chunking cannot shrink that for a small n; running the instance on the
// activating worker pays neither SEARCH nor adoption, nor its claims'
// synchronization, nor its icount posts and pcount release.

// inlines reports whether the instance of leaf num (plan lp) with n
// iterations that this worker is activating runs inline: the run allows
// it (executor.inline); the instance is not Doacross, whose iterations
// wait on each other; no pause is pending, so a snapshot never misses an
// inline instance in flight; the meter's model test n·τ̂ < Ô2 + Ô3 passes
// (cheaper); the engine-time budget is not due; and the iteration budget
// covers all n iterations, charged here whole (an instance the budget
// would cut is published, and the claim path cuts it).
func (w *worker) inlines(num int, lp *leafPlan, n int64) bool {
	return w.ex.inline && !lp.doacross && !w.ex.ckptReq.Load() && w.cheaper(num, n) &&
		!w.pauseDue() && (!w.ex.budMeter || w.budgetTake(n))
}

// runInline runs the instance of leaf with enclosing indexes loc[2..Depth]
// and n iterations on this worker at once, then its EXIT, and returns
// where ENTER goes on. The instance lives in the worker's scratch block:
// it never touches the pool, index, icount, pcount or live. It is one
// claim and one chunk, [1, n], with no SEARCH (O2 = 0) and no O1; it
// counts as an activation, an EXIT and an ENTER, as a published instance
// does, and its activated, claim, chunk and completed events are recorded.
// It runs under the run's failure policy as one chunk, between the
// meter's inline boundaries (startInline, endInline).
func (w *worker) runInline(leaf *descr.LeafInfo, loc []int64, n int64) (int, int) {
	ivec := userIVec(loc, leaf.Depth)
	icb := w.scratch
	if icb != nil {
		icb.Retarget(leaf.Num, n, ivec)
		w.shard.Inc(cICBReuses)
	} else {
		icb = pool.NewICB(leaf.Num, n, ivec)
		w.scratch = icb
		w.shard.Inc(cICBAllocs)
	}
	a := lowsched.Assignment{Lo: 1, Hi: n}
	w.shard.Inc(cInstances)
	w.countClaim(1)
	if w.sink != nil {
		at := w.pr.Now()
		w.sink.Record(w.event(at, trace.EvActivated, leaf.Num, icb.IVec, n, 0))
		w.sink.Record(w.event(at, trace.EvClaim, leaf.Num, icb.IVec, a.Lo, a.Hi))
	}
	exact := w.startInline(leaf.Num)
	cont := w.execChunk(icb, a)
	w.endInline(n, exact)
	if !cont {
		return 0, 0 // the run is draining
	}
	if w.sink != nil {
		at := w.pr.Now()
		w.sink.Record(w.event(at, trace.EvChunk, leaf.Num, icb.IVec, a.Lo, a.Hi))
		w.sink.Record(w.event(at, trace.EvCompleted, leaf.Num, icb.IVec, n, 0))
	}
	w.posted.Add(n)
	w.shard.Inc(cExits)
	w.shard.Inc(cEnters)
	return w.exit(leaf.Num, leaf.Depth, loc)
}
