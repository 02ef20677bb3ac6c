package core

import (
	"repro/internal/descr"
	"repro/internal/lowsched"
	"repro/internal/pool"
	"repro/internal/trace"
)

// exitFrom is Algorithm 5 (EXIT) generalized with an explicit starting
// level: the construct chain containing leaf cur, sitting directly within
// the body of the enclosing loop at level lvl, has just completed for the
// current iteration of that loop. It returns the level whose Next leaf
// must be activated, or 0 if nothing is to be activated (an incomplete
// barrier, or program completion). loc may be mutated (serial index
// advance), exactly like the paper's loc_indexes.
func (w *worker) exitFrom(cur, lvl int, loc []int64) int {
	ex := w.ex
	leaf := ex.plan.leaf(cur)
	for {
		d := &leaf.Levels[lvl]
		if !d.Last {
			// A successor construct exists at this level.
			return lvl
		}
		// cur's chain was the last construct of the level-lvl loop body:
		// one full iteration of that loop has completed.
		bound := d.Bound.Eval(userIVec(loc, lvl-1))
		if d.Parallel {
			if !ex.barInc(w.pr, &w.barBuf, d.LoopID, loc, lvl, bound) {
				// Other iterations of the parallel loop are still
				// running; their last completer will carry on.
				return 0
			}
			// Barrier complete: the whole parallel loop finished.
			if w.sink != nil {
				w.sink.Record(w.event(w.pr.Now(), trace.EvBarrier, d.LoopID, userIVec(loc, lvl-1), bound, 0))
			}
		} else {
			if loc[lvl] < bound {
				// Advance the serial loop to its next iteration; the
				// successor is the first construct of the loop body
				// (the wrap-around Next pointer).
				loc[lvl]++
				return lvl
			}
			// Serial loop exhausted.
		}
		lvl--
		if lvl == 0 {
			// Climbed past the virtual root: the program is complete.
			ex.done.Store(true)
			return 0
		}
	}
}

// enter is Algorithm 6 (ENTER): activate instances of innermost parallel
// loop cur at the given level, where loc[1..level] identify the current
// iteration context. It evaluates the IF guards at this level, fans out
// over deeper enclosing parallel loops, and appends one ICB per activated
// instance. loc may be mutated during the descent.
func (w *worker) enter(cur, level int, loc []int64) {
	ex := w.ex
	leaf := ex.plan.leaf(cur)

	// Guard processing: walk the IF chain at this level. A failed guard
	// either redirects to the FALSE branch's entry leaf (altern) or, when
	// the FALSE branch is empty, skips the construct entirely — which
	// completes it at this level (EXIT semantics).
guards:
	for {
		for _, g := range leaf.Levels[level].Guards {
			if g.Cond(userIVec(loc, level)) {
				continue
			}
			w.shard.Inc(cGuardsFalse)
			if g.Altern != 0 {
				cur = g.Altern
				leaf = ex.plan.leaf(cur)
				continue guards
			}
			// Empty FALSE branch: the construct completes vacuously.
			if nl := w.exitFrom(cur, level, loc); nl != 0 {
				next := ex.plan.leaf(cur).Levels[nl].Next
				cur, level = next, nl
				leaf = ex.plan.leaf(cur)
				continue guards
			}
			return
		}
		break
	}

	if level == leaf.Depth {
		w.activate(leaf, loc)
		return
	}

	// Descend one level (Fig. 8): a deeper enclosing parallel loop fans
	// out into one activation per iteration; a serial loop activates only
	// its first iteration (completions drive the rest).
	level++
	d := &leaf.Levels[level]
	bound := d.Bound.Eval(userIVec(loc, level-1))
	if bound == 0 {
		// Zero-trip structural loop: the construct completes vacuously at
		// the level above.
		w.shard.Inc(cZeroTrips)
		if nl := w.exitFrom(cur, level-1, loc); nl != 0 {
			w.enter(leaf.Levels[nl].Next, nl, loc)
		}
		return
	}
	if d.Parallel {
		for k := int64(1); k <= bound; k++ {
			loc[level] = k
			w.enter(cur, level, loc)
		}
	} else {
		loc[level] = 1
		w.enter(cur, level, loc)
	}
}

// activate creates, initializes and publishes the ICB for one instance of
// leaf with enclosing indexes loc[2..Depth] (the paper's "create a new
// ICB; copy the index vector; APPEND"). Retired blocks from this worker's
// freelist are recycled first — the reuse the paper's pcount release
// protocol exists to make safe.
func (w *worker) activate(leaf *descr.LeafInfo, loc []int64) {
	ex := w.ex
	ivec := userIVec(loc, leaf.Depth)
	bound := leaf.Node.Bound.Eval(ivec)
	if bound == 0 {
		// Zero-trip instance: no iterations, complete immediately.
		w.shard.Inc(cZeroTrips)
		if nl := w.exitFrom(leaf.Num, leaf.Depth, loc); nl != 0 {
			w.enter(leaf.Levels[nl].Next, nl, loc)
		}
		return
	}
	var icb *pool.ICB
	if n := len(w.free); n > 0 {
		icb = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		icb.Reinit(leaf.Num, bound, ivec)
		w.shard.Inc(cICBReuses)
	} else {
		icb = pool.NewICB(leaf.Num, bound, ivec)
		w.shard.Inc(cICBAllocs)
		if ex.combine {
			// The claim-path hot spots ride the combining network; the
			// pcount release protocol does not (its {pcount = 1; Dec}
			// test must observe every holder individually). The flags
			// survive freelist recycling, so only fresh blocks pay the
			// stores.
			icb.Index.SetCombining(true)
			icb.ICount.SetCombining(true)
		}
	}
	ex.policy.Init(w.pr, icb)
	lp := &ex.plan.leaves[leaf.Num]
	if lp.doacross {
		// A recycled block may carry the previous instance's dependence
		// state; matching shapes are reset in place.
		prev, _ := icb.Sync.(*lowsched.Doacross)
		icb.Sync = lowsched.ReuseDoacross(prev, bound, lp.dist)
	} else {
		// Reinit retains typed attachments for reuse; a non-Doacross
		// instance must not inherit one (Ctx.bind keys off icb.Sync).
		icb.Sync = nil
	}
	ex.live.Add(1)
	w.shard.Inc(cInstances)
	if w.sink != nil {
		w.sink.Record(w.event(w.pr.Now(), trace.EvActivated, leaf.Num, icb.IVec, bound, 0))
	}
	// Register before Append: once published, any processor may claim,
	// complete and release the block.
	ex.trackICB(icb)
	ex.pool.Append(w.pr, icb)
}

// completeInstance is the completion path of Algorithm 3: the processor
// whose post completed the instance computes the exit level and activates
// the successors. The completion event precedes the EXIT walk, so the
// barrier and activations the walk produces follow it.
func (w *worker) completeInstance(icb *pool.ICB) {
	ex, loc := w.ex, w.loc
	loc[1] = 1
	copy(loc[2:], icb.IVec)
	leaf := ex.plan.leaf(icb.Loop)
	if w.sink != nil {
		w.sink.Record(w.event(w.pr.Now(), trace.EvCompleted, icb.Loop, icb.IVec, icb.Bound, 0))
	}
	if nl := w.exitFrom(icb.Loop, leaf.Depth, loc); nl != 0 {
		targ := leaf.Levels[nl].Next
		w.enter(targ, nl, loc)
	}
	ex.live.Add(-1)
}
