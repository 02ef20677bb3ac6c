package core

import (
	"repro/internal/descr"
	"repro/internal/lowsched"
	"repro/internal/machine"
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
// iterations that this worker is activating runs inline. Every condition
// must hold:
//
//   - the run allows it (executor.inline: the engine declares it, the
//     per-leaf means exist, no sink records iterations, and the scheme
//     and the dispatch cost price no instance as a task of its own);
//   - the instance is not Doacross, whose iterations wait on each other;
//   - no pause is pending, so a snapshot never misses an inline instance
//     in flight: once ckptReq is set every instance is published;
//   - the model test n·τ̂ < Ô2 + Ô3 passes: τ̂ is the leaf's body mean on
//     this worker, Ô2 the worker's mean SEARCH and Ô3 its mean O3 time per
//     published instance. A worker with no exact body interval for the
//     leaf, or no published instance yet, publishes;
//   - the engine-time budget is not due, and the iteration budget covers
//     all n iterations (it is charged here, whole): an instance the budget
//     would cut is published, and the claim path cuts it.
func (w *worker) inlines(num int, lp *leafPlan, n int64) bool {
	ex := w.ex
	if !ex.inline || lp.doacross || w.o2.n == 0 || w.o3.n == 0 || ex.ckptReq.Load() {
		return false
	}
	m := &ex.means[w.meanOff+num]
	if m.bodyN == 0 {
		return false
	}
	pub := float64(w.o2.sum)/float64(w.o2.n) + float64(w.o3.sum)/float64(w.o3.n)
	if float64(n)*float64(m.bodySum) >= pub*float64(m.bodyN) {
		return false
	}
	if ex.budTime > 0 && ex.budgetDue(w.pr) {
		return false
	}
	return !ex.budMeter || ex.budgetTake(n)
}

// runInline runs the instance of leaf with enclosing indexes loc[2..Depth]
// and n iterations on this worker at once, then its EXIT, and returns
// where ENTER goes on. The instance lives in the worker's scratch block:
// it never touches the pool, index, icount, pcount or live. It is one
// claim and one chunk, [1, n], with no SEARCH (O2 = 0) and no O1; it
// counts as an activation, an EXIT and an ENTER, as a published instance
// does, and its activated, claim, chunk and completed events are recorded.
// It runs under the run's failure policy as one chunk.
//
// One inline instance in every s — sharing the countdown of the periodic
// exact hold — reads its body exactly and restarts the leaf's body mean,
// so a leaf whose body grows stops inlining. Any other leaves n·τ̂ of body
// time unread in the open O3 window, and the reading that closes it
// charges that much to the body (tick).
func (w *worker) runInline(leaf *descr.LeafInfo, loc []int64, n int64) (int, int) {
	ex := w.ex
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
	w.shard.Inc(cChunks)
	if w.sink != nil {
		at := w.pr.Now()
		w.sink.Record(w.event(at, trace.EvActivated, leaf.Num, icb.IVec, n, 0))
		w.sink.Record(w.event(at, trace.EvClaim, leaf.Num, icb.IVec, a.Lo, a.Hi))
	}
	if ex.ckptAfter > 0 && ex.claims.Add(1) == ex.ckptAfter {
		// The claim-k trigger counts the inline claim; the instance still
		// runs, and the pause falls after it.
		ex.ckptReq.Store(true)
	}
	m := &ex.means[w.meanOff+leaf.Num]
	w.holds--
	exact := w.holds <= 0
	if exact {
		w.holds = w.stride
		w.endO3()
	}
	cont := w.execChunk(icb, a)
	if exact {
		m.bodySum, m.bodyN = 0, 0
		held := w.held
		w.held, w.iters = m, n
		w.tick(cBodyTime)
		w.held = held
		w.lastClaim.Store(w.now)
	} else {
		w.pred += machine.Time(float64(n)*float64(m.bodySum)/float64(m.bodyN) + 0.5)
	}
	w.inlined++
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
