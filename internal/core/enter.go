package core

import (
	"fmt"

	"repro/internal/descr"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/trace"
)

// barrier is the BAR_COUNT of one instance of a structural parallel loop
// at level (Algorithms 5–6): ENTER creates it when it fans out over the
// loop, and every block activated beneath it points at its innermost
// barrier (pool.ICB.Bar). EXIT counts the loop's completed iterations on
// it and, once they reach bound, climbs to up, the next parallel loop's.
type barrier struct {
	count machine.SyncVar
	up    *barrier
	bound int64
	level int
}

var labelBar = machine.Intern("BAR_COUNT")

// openBarrier creates the barrier of the structural parallel loop at
// level with the given bound, inside barrier up.
func (w *worker) openBarrier(up *barrier, level int, bound int64) *barrier {
	b := &barrier{up: up, bound: bound, level: level}
	b.count.Init(labelBar, 0)
	w.barsOpen++
	return b
}

// exitFrom is Algorithm 5 (EXIT) generalized with an explicit starting
// level: the construct chain containing leaf cur, sitting directly within
// the body of the enclosing loop at level lvl, has just completed for the
// current iteration of that loop. It returns the level whose Next leaf
// must be activated, or 0 if nothing is to be activated (an incomplete
// barrier, or program completion). loc may be mutated (serial index
// advance), exactly like the paper's loc_indexes, and w.bar climbs with
// the walk: past each barrier the walk completes.
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
		if d.Parallel {
			b := w.bar
			n := b.count.FetchInc(w.pr) + 1
			if n > b.bound {
				panic(fmt.Sprintf("core: BAR_COUNT of loop %d %v exceeded bound %d", d.LoopID, userIVec(loc, lvl-1), b.bound))
			}
			if n < b.bound {
				// Other iterations of the parallel loop are still
				// running; their last completer will carry on.
				return 0
			}
			// Barrier complete: the whole parallel loop finished.
			w.barsOpen--
			w.bar = b.up
			if w.sink != nil {
				w.sink.Record(w.event(w.pr.Now(), trace.EvBarrier, d.LoopID, userIVec(loc, lvl-1), b.bound, 0))
			}
		} else {
			if loc[lvl] < d.Bound.Eval(userIVec(loc, lvl-1)) {
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
// iteration context and w.bar its innermost barrier. It evaluates the IF
// guards at this level, fans out over deeper enclosing parallel loops —
// each fan-out opens the loop's barrier — and appends one ICB per
// activated instance. loc and w.bar may be mutated during the descent.
//
// ENTER and EXIT are one loop per worker (DESIGN §8): a construct that
// completes at once — a failed guard with an empty FALSE branch, a
// zero-trip loop or instance, an instance run inline — runs its EXIT walk
// (exit), and the walk's successor is the loop's next (cur, level), not a
// call. Only an inline fan-out recurses, once per iteration but its last,
// so the stack is bounded by the nest's depth, not by any trip count.
func (w *worker) enter(cur, level int, loc []int64) {
	ex := w.ex
next:
	for cur != 0 {
		leaf := ex.plan.leaf(cur)
		// Guard processing: walk the IF chain at this level. A failed guard
		// either redirects to the FALSE branch's entry leaf (altern) or, when
		// the FALSE branch is empty, skips the construct entirely — which
		// completes it at this level (EXIT semantics).
		for _, g := range leaf.Levels[level].Guards {
			if g.Cond(userIVec(loc, level)) {
				continue
			}
			w.shard.Inc(cGuardsFalse)
			if g.Altern != 0 {
				cur = g.Altern
			} else {
				// Empty FALSE branch: the construct completes vacuously.
				cur, level = w.exit(cur, level, loc)
			}
			continue next
		}

		if level == leaf.Depth {
			cur, level = w.activate(leaf, loc)
			continue
		}

		// Descend one level (Fig. 8): a deeper enclosing parallel loop fans
		// out into one activation per iteration — inline when one claim
		// would take the whole fan-out, else through a fan-out block that
		// processors claim in chunks (fanout.go); a serial loop activates
		// only its first iteration (completions drive the rest).
		level++
		d := &leaf.Levels[level]
		bound := d.Bound.Eval(userIVec(loc, level-1))
		switch {
		case bound == 0:
			// Zero-trip structural loop: the construct completes vacuously
			// at the level above.
			w.shard.Inc(cZeroTrips)
			cur, level = w.exit(cur, level-1, loc)
		case d.Parallel && bound > fanChunk:
			w.publishFanOut(cur, level, loc, bound)
			return
		case d.Parallel:
			// Until the last iteration is entered the loop's barrier cannot
			// complete, so each of the others returns with loc[2..level]
			// as it found them; the last one goes on with the loop. Each
			// starts inside the barrier, wherever the one before left w.bar.
			b := w.openBarrier(w.bar, level, bound)
			for k := int64(1); k < bound; k++ {
				loc[level] = k
				w.bar = b
				w.enter(cur, level, loc)
			}
			loc[level] = bound
			w.bar = b
		default:
			loc[level] = 1
		}
	}
}

// exit completes the construct chain containing leaf cur at level lvl
// (exitFrom) and returns where ENTER goes on: the successor construct's
// entry leaf and level, or 0 when there is nothing to activate — or when
// the run is draining, since a chain of vacuous completions has no other
// preemption point.
func (w *worker) exit(cur, lvl int, loc []int64) (int, int) {
	nl := w.exitFrom(cur, lvl, loc)
	if nl == 0 || w.ex.aborted() {
		return 0, 0
	}
	return w.ex.plan.leaf(cur).Levels[nl].Next, nl
}

// activate creates, initializes and publishes the ICB for one instance of
// leaf with enclosing indexes loc[2..Depth] (the paper's "create a new
// ICB; copy the index vector; APPEND"). A block this worker retired is
// recycled first: the reuse the paper's pcount release protocol exists to
// make safe. An instance that completes here — a zero-trip one, or one
// run inline — returns where ENTER goes on after its EXIT, as exit does.
func (w *worker) activate(leaf *descr.LeafInfo, loc []int64) (int, int) {
	ex := w.ex
	ivec := userIVec(loc, leaf.Depth)
	bound := leaf.Node.Bound.Eval(ivec)
	if bound == 0 {
		// Zero-trip instance: no iterations, complete immediately.
		w.shard.Inc(cZeroTrips)
		return w.exit(leaf.Num, leaf.Depth, loc)
	}
	lp := &ex.plan.leaves[leaf.Num]
	if w.inlines(leaf.Num, lp, bound) {
		return w.runInline(leaf, loc, bound)
	}
	icb := w.free.Pop()
	if icb != nil {
		icb.Reinit(leaf.Num, bound, ivec)
		w.shard.Inc(cICBReuses)
	} else {
		icb = pool.NewICB(leaf.Num, bound, ivec)
		w.shard.Inc(cICBAllocs)
	}
	icb.Bar = w.bar
	ex.policy.Init(w.pr, icb)
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
	w.published()
	if w.sink != nil {
		w.sink.Record(w.event(w.pr.Now(), trace.EvActivated, leaf.Num, icb.IVec, bound, 0))
	}
	// Register before Append: once published, any processor may claim,
	// complete and release the block.
	ex.trackICB(icb)
	ex.pool.Append(w.pr, icb)
	return 0, 0
}

// completeInstance is the completion path of Algorithm 3: the processor
// whose post completed the instance computes the exit level and activates
// the successors, from the instance's context — its index vector and its
// innermost barrier. The completion event precedes the EXIT walk, so the
// barrier and activations the walk produces follow it.
func (w *worker) completeInstance(icb *pool.ICB) {
	ex, loc := w.ex, w.loc
	loc[1] = 1
	copy(loc[2:], icb.IVec)
	w.bar, _ = icb.Bar.(*barrier)
	leaf := ex.plan.leaf(icb.Loop)
	if w.sink != nil {
		w.sink.Record(w.event(w.pr.Now(), trace.EvCompleted, icb.Loop, icb.IVec, icb.Bound, 0))
	}
	next, nl := w.exit(icb.Loop, leaf.Depth, loc)
	w.enter(next, nl, loc)
	ex.live.Add(-1)
}
