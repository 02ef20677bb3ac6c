package core

import "repro/internal/pool"

// fanChunk is B, the number of a structural parallel loop's activations
// one claim on its fan-out block takes. A fan-out of at most B iterations
// runs inline in ENTER, as Fig. 8 writes it: its one claim would take all
// of it. Above B, ENTER publishes a fan-out block instead, and processors
// claim B activations at a time with one fetch-and-add on its index, so a
// run's live instances are bounded by about P·B rather than by the
// fan-out (DESIGN §2).
const fanChunk = 32

// publishFanOut is ENTER's descent into a structural parallel loop at
// level whose bound is above one chunk: one fan-out block carries the
// leaf cur whose chain each iteration activates, the bound, and the
// enclosing indexes loc[2..level-1]; its index is the next iteration to
// activate. The block is not an instance: it posts no icount, and it
// counts in no instance, allocation or reuse figure.
func (w *worker) publishFanOut(cur, level int, loc []int64, bound int64) {
	ivec := userIVec(loc, level-1)
	icb := w.free.Pop()
	if icb != nil {
		icb.Reinit(cur, bound, ivec)
	} else {
		icb = pool.NewICB(cur, bound, ivec)
	}
	icb.MarkFanOut()
	// Register before Append, as an activation does: once published, any
	// processor may claim and release the block.
	w.ex.trackICB(icb)
	w.ex.pool.Append(w.pr, icb)
}

// claimFanOut is one adoption of a fan-out block: it claims up to B
// activations with one fetch-and-add on the block's index, runs ENTER for
// each, and lets the block go — so a processor returns to SEARCH, where
// the leaf lists come first, after every chunk. The claim, the ENTERs and
// the release are O3 time; the adoption was O2.
//
// A claimer copies the enclosing indexes out and drops its hold before it
// activates anything, so the block's release waits only on claims in
// flight. The processor whose claim takes the last chunk DELETEs the
// block and releases it, like an instance's completer, through the
// {pcount = 1; Decrement} protocol, after its own activations. A pause is
// taken before the claim, keeping the hold, as at an instance's claim
// boundary: every claimed iteration has been activated by the time the
// run has drained. cont=false means the worker must drain out.
func (w *worker) claimFanOut(icb *pool.ICB) (cont bool) {
	ex, pr := w.ex, w.pr
	if ex.ckptReq.Load() || (ex.budTime > 0 && ex.budgetDue(pr)) {
		return false
	}
	lo := icb.Index.FetchAdd(pr, fanChunk)
	if lo > icb.Bound {
		// Every activation was claimed elsewhere.
		icb.PCount.FetchDec(pr)
		w.endO3()
		return true
	}
	hi := min(lo+fanChunk-1, icb.Bound)
	cur, level, last := icb.Loop, len(icb.IVec)+2, hi == icb.Bound
	loc := w.loc
	loc[1] = 1
	copy(loc[2:], icb.IVec)
	if last {
		ex.pool.Delete(pr, icb)
	} else {
		icb.PCount.FetchDec(pr)
	}
	// ENTER at level leaves loc[2..level-1] as it found them until the
	// loop's barrier completes, which needs every iteration activated.
	for k := lo; k <= hi; k++ {
		loc[level] = k
		w.enter(cur, level, loc)
	}
	if last && !w.release(icb) {
		return false
	}
	w.endO3()
	return true
}
