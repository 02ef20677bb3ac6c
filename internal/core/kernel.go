package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/trace"
)

// This file is the execution kernel: the one copy of the paper's drive
// loop — Algorithm 3's low-level self-scheduling, the SEARCH sweep of
// Algorithm 4, the completion path into EXIT/ENTER (enter.go) and the
// claims on fan-out blocks (fanout.go) — that every engine runs. The
// kernel is parameterized along two seams:
//
//   - Engine (engine.go) supplies the processors; the kernel never asks
//     which machine it is on.
//   - lowsched.Policy supplies the iteration-claiming rule; the kernel
//     never knows a scheme's chunk formula.
//
// The loop has one claim site. A lease (Config.ClaimBatch) is a claim the
// worker keeps: the claim site takes the next slice from worker.lease
// before it performs another synchronization operation, so pause, budget
// meter, body and post are the same code at every batch factor.
//
// No SEARCH, EXIT or ENTER control flow exists outside this package.

// worker is the worker layer: one processor's private scratch for the
// run, allocated once in the executor's workers slice and reused for the
// processor's whole lifetime. Everything on it is single-writer — the
// owning processor — so the scheduling hot path touches no shared
// mutable cache lines except the costed synchronization variables the
// paper's algorithms require.
type worker struct {
	ex *executor
	pr machine.Proc
	// shard is this processor's slice of the stats spine.
	shard *obs.Shard
	// needs is the static-scheme adoption veto (lowsched.Needer), bound
	// to this processor.
	needs func(*pool.ICB) bool
	// stop is ex.stop bound once — a method value built at a call site
	// allocates a closure per call, which would put one heap allocation
	// on every SEARCH.
	stop func() bool
	// loc is the paper's loc_indexes vector, sized by the plan's maximum
	// depth.
	loc []int64
	// ctx is the iteration environment handed to bodies, rebound per
	// instance and iteration (no allocation in the iteration path).
	ctx Ctx
	// sst accumulates SEARCH work between flushes into the shard.
	sst pool.SearchStats
	// free holds the blocks this worker retired through the pcount release
	// protocol, single-owner, for its next activations and fan-outs: every
	// processor activates (fan-out claims) and completes, so a worker's own
	// freelist serves it.
	free pool.Retired
	// barBuf is scratch for rendering BAR_COUNT keys.
	barBuf []byte
	// now is the worker's latest clock reading. The drive loop reads the
	// clock at phase boundaries (tick, mark): the reading that closes one
	// accounted interval opens the next. On the virtual engine no machine
	// time passes between one phase's end and the next one's start, so
	// chaining them changes no figure there. The O1 interval opens at a
	// body's end and stays open into the next claim (across the icount
	// post, when there is one), and every way out of the drive loop
	// closes the open interval before leaving.
	now machine.Time
	// claims and iters are the open window: the O1 phases (one per
	// synchronization claim, one for the phase that ends a hold) and the
	// body iterations since now that no reading closed. With a clock
	// stride of 1 every boundary reads and the window holds at most the
	// phase its reading closes; above 1 an exact hold reads only at its
	// edges, its first claim, its tail chunks and one sampled chunk in
	// every stride, any other hold at its edges alone, and the reading
	// that closes a mixed window splits it (split, meter.go).
	claims, iters int64
	// all totals the exact intervals the worker has read, and held points
	// at the same totals for the held instance's leaf: its entry in the
	// worker's carve of ex.means, which starts at meanOff (nil at stride
	// 1, where no window is ever split).
	all     means
	held    *means
	meanOff int
	// stride is the engine's clock stride s (Engine's optional
	// ClockStride; 1 when the engine has none); left counts down the
	// chunks to the next sample and holds the holds to the next exact
	// hold, both across holds. exact is set while the held instance reads
	// inside the hold (adopt); readClaim makes the next claim read the
	// clock (an exact hold's first, or a sample's), armed the next body
	// end (a sample's); at stride 1 all three stay set.
	stride, left, holds     int
	exact, readClaim, armed bool
	// unposted counts the iterations this processor has executed on the
	// instance it holds and not yet added to the instance's icount. Only
	// the claim has to be serialized at the shared word; the completion
	// count is posted with one fetch-and-add when the worker stops
	// claiming from the instance (post). It is zero whenever the worker
	// holds no instance, and no worker leaves the drive loop with a
	// nonzero count unless the run is aborting.
	unposted int64
	// posted totals the iterations this processor has posted, host-side:
	// Diagnose derives the executed-unposted count from it and the shard's
	// iteration counters, so the hot path publishes nothing extra.
	posted atomic.Int64
	// lastClaim is the engine time of this processor's latest timed claim
	// — a claim whose boundary read the clock — or, above stride 1, of its
	// latest adoption if that came later (-1 before the first); stored
	// host-side for the stuck-run watchdog's per-processor diagnostics, it
	// charges no machine time.
	lastClaim atomic.Int64
	// sink is Config.Sink, and iter the same sink unless it keeps
	// scheduling kinds only: every event site pays exactly one nil test
	// when there is none, and the iteration sites when it is a Ring.
	sink, iter trace.Sink
	// lease is the unconsumed part of the worker's last batched claim, zero
	// when there is none. It is consumed, or recorded as pending by a pause,
	// before the worker lets go of the instance.
	lease lowsched.Lease
	// scratch is the block the worker's inline instances run in (inline.go),
	// never published; nil until the first. pred is the body time inline
	// instances left unread in the open window, n·τ̂ each; pubs and inlined
	// count the instances the open O3 phase published and ran inline; o2
	// and o3 are Ô2 and Ô3 of the inline rule (endSearch, endO3).
	scratch       *pool.ICB
	pred          machine.Time
	pubs, inlined int64
	o2, o3        overhead
	// pad keeps adjacent workers in the executor's slice from sharing a
	// cache line (the shard and freelist headers above are written on
	// every scheduling decision).
	_ [64]byte
}

// init binds the worker to its processor and the run.
func (w *worker) init(ex *executor, pr machine.Proc) {
	w.ex = ex
	w.pr = pr
	w.shard = ex.stats.shard(pr.ID())
	w.lastClaim.Store(-1)
	// The first chunk the worker runs is a sample, so both means exist
	// before any window needs splitting.
	w.stride, w.left, w.holds = ex.stride, ex.stride, ex.stride
	w.exact, w.armed = true, true
	off := pr.ID() * ex.locStride
	w.loc = ex.locs[off : off+ex.plan.maxDepth+1 : off+ex.locStride]
	w.meanOff = pr.ID() * ex.meanStride
	// barBuf stays nil until the first barrier completion grows it —
	// programs without structural parallel loops never pay for it.
	w.ctx = Ctx{pr: pr, abort: ex.abortFn, shard: w.shard}
	w.stop = ex.stopFn
	w.sink, w.iter = ex.cfg.Sink, ex.cfg.Sink
	if _, ok := w.sink.(trace.SchedulingOnly); ok {
		w.iter = nil
	}
	if n, ok := ex.policy.(lowsched.Needer); ok {
		w.needs = func(icb *pool.ICB) bool { return n.Needs(pr, icb) }
	}
}

// event is one kernel event stamped with this processor, for the sink.
func (w *worker) event(at machine.Time, k trace.Kind, loop int, ivec loopir.IVec, a, b int64) trace.Event {
	return trace.Event{At: at, Kind: k, Proc: int32(w.pr.ID()), Loop: int32(loop), IVec: ivec, A: a, B: b}
}

// flushSearch folds the accumulated SEARCH work into the stats shard, so
// live probes see search figures mid-run.
func (w *worker) flushSearch() {
	if w.sst == (pool.SearchStats{}) {
		return
	}
	w.shard.Add(cSearchSweeps, w.sst.Sweeps)
	w.shard.Add(cSearchLockFailures, w.sst.LockFailures)
	w.shard.Add(cSearchRetests, w.sst.Retests)
	w.shard.Add(cSearchWalked, w.sst.Walked)
	w.shard.Add(cSearchSaturated, w.sst.Saturated)
	w.sst = pool.SearchStats{}
}

// search is the high-level SEARCH of Algorithm 4, driven over the pool's
// sweep primitives (First/Next/TryAdopt): repeat leading-one detection
// until an ICB that needs processors is adopted, or stop() reports that
// no more work will appear (nil). The fan-out list comes last in a sweep,
// and a sweep passes it by while P·B instances are live. Each fruitless sweep is a preemption
// point. After several fruitless sweeps the kernel escalates TryAdopt to
// blocking on held list locks — skipping is the paper's fast path, but
// under deterministic timing a searcher's try-lock can lose its race
// indefinitely while other processors cycle the lock; the FIFO ticket
// lock then guarantees a turn.
func (w *worker) search() *pool.ICB {
	ex, pr := w.ex, w.pr
	fruitless := 0
	for {
		if w.stop() {
			return nil
		}
		w.sst.Sweeps++
		i := ex.pool.First(pr)
		if i == 0 {
			// Nothing advertises work; re-sweep after a beat.
			pr.Spin()
			continue
		}
		block := fruitless > 4
		for i != 0 {
			if i == ex.fanCursor && ex.live.Load() >= ex.nprocs*fanChunk {
				// Enough instances are live: the fan-outs wait until
				// some complete.
				break
			}
			if icb := ex.pool.TryAdopt(pr, i, w.needs, block, &w.sst); icb != nil {
				return icb
			}
			// Locked, emptied, or saturated: continue the sweep at the
			// next candidate rather than restarting.
			i = ex.pool.Next(pr, i)
		}
		fruitless++
		pr.Spin()
	}
}

// run is the code every processor executes: Algorithm 3's low-level
// self-scheduling loop around the high-level SEARCH.
func (w *worker) run() {
	ex, pr := w.ex, w.pr
	// Body panics are contained chunk-side (runChunk), so this recover
	// only sees panics from the scheduling machinery itself — guard and
	// bound evaluation during EXIT/ENTER, or a kernel invariant check.
	// Those must not take the whole machine down or hang it: record the
	// failure and let every processor drain out.
	defer func() {
		if r := recover(); r != nil {
			ex.trip(fmt.Errorf("core: panic on processor %d: %v", pr.ID(), r))
		}
	}()
	defer w.flushSearch()

	w.mark() // the run's first boundary

	// The program prologue: processor 0 activates the initial instances
	// (the nodes without predecessors in the macro-dataflow graph) — or,
	// on a resumed run, republishes the snapshot's in-flight instances.
	if pr.ID() == 0 {
		w.loc[1] = 1
		if ex.restore != nil {
			// Republishing is not accounted (the seeded totals already
			// count the activations), so its interval closes uncharged.
			w.restorePrologue()
			w.mark()
		} else {
			w.enter(ex.plan.prog.Entry, 1, w.loc)
			w.endO3()
			w.shard.Inc(cEnters)
		}
	}

	var icb *pool.ICB
	for {
		// start: get work. With no ICB in hand, SEARCH the task pool
		// (Algorithm 4); otherwise try to grab iterations of the held
		// instance with the low-level scheme.
		if icb == nil {
			icb = w.search()
			w.flushSearch()
			if icb == nil {
				// The terminal search that observed program completion is
				// shutdown idling, not scheduling overhead; it is excluded
				// from the O2 accounting.
				break
			}
			w.endSearch()
			w.shard.Inc(cSearches)
			if icb.FanOut() {
				// One claim of activations, then SEARCH again.
				if !w.claimFanOut(icb) {
					return
				}
				icb = nil
				continue
			}
			w.adopt(icb)
			if ex.cfg.DispatchCost > 0 {
				// OS-involved baseline: a dispatch costs real time but is
				// overhead, not useful work. It is charged at its nominal
				// cost, so the boundary after it charges nothing.
				pr.Idle(ex.cfg.DispatchCost)
				w.shard.Add(cDispatchTime, ex.cfg.DispatchCost)
				w.mark()
			}
		}

		if ex.ckptReq.Load() || (ex.budTime > 0 && ex.budgetDue(pr)) {
			// Pause (checkpoint, iteration budget, engine-time budget) at
			// the claim boundary: post, then leave without claiming. The
			// hold is deliberately not dropped — the ICB must stay live so
			// the snapshot captures it; abandoned pcounts are not part of
			// the snapshot.
			w.pause(icb)
			return
		}

		// grab iterations: the next slice of the lease in hand (a branch on a
		// worker-private word), or else the synchronization operation, which
		// claims n chunks covering span: one, or a lease of up to ClaimBatch.
		var a lowsched.Assignment
		if w.lease.Len() > 0 {
			a, _ = w.lease.Slice()
		} else {
			var ok, last bool
			span, n := a, int64(1)
			if ex.leaser == nil {
				a, ok, last = ex.policy.Next(pr, icb)
				span = a
			} else {
				w.lease, ok, last = ex.leaser.Lease(pr, icb, ex.batch)
				span = lowsched.Assignment{Lo: w.lease.Lo(), Hi: w.lease.Hi()}
				n = int64(w.lease.Len())
				a, _ = w.lease.Slice()
			}
			if !ok {
				// All iterations scheduled elsewhere: post what we executed,
				// drop our hold and find new work.
				if !w.leave(icb) {
					return
				}
				icb = nil
				continue
			}
			if last {
				// We grabbed the final iterations: remove the ICB from the
				// pool so later searchers move on (DELETE, Algorithm 1).
				ex.pool.Delete(pr, icb)
			}
			// Chunks (here, and the claim-k trigger below) are counted per
			// operation, for every chunk it covered.
			w.shard.Add(cChunks, n)
			// The claim closes the O1 interval the previous body's end (or the
			// SEARCH) opened: a tail post if there was one, the fetch-and-add
			// on index and, on the final claim, the DELETE. Above stride 1
			// only an exact hold's first claim, a sample's and a tail
			// chunk's read the clock; the others stay in the open window.
			w.claims++
			timed := w.readsClaim(icb, a)
			if timed {
				w.readClaim = w.stride == 1
				w.tick(cO1Time)
				w.lastClaim.Store(w.now)
			}
			if w.sink != nil {
				at := w.now
				if !timed {
					at = pr.Now()
				}
				w.sink.Record(w.event(at, trace.EvClaim, icb.Loop, icb.IVec, span.Lo, span.Hi))
			}
			if ex.ckptAfter > 0 {
				// The deterministic claim-k trigger fires when the cumulative
				// chunk count reaches k (a lease may step past it, never
				// around it). This chunk still executes; the pause takes
				// effect at every worker's next claim boundary.
				if c := ex.claims.Add(n); c-n < ex.ckptAfter && ex.ckptAfter <= c {
					ex.ckptReq.Store(true)
				}
			}
		}
		if ex.budMeter {
			if allowed := ex.budgetClaim(a.Size()); allowed < a.Size() {
				// The chunk crossed the iteration budget: execute only the
				// allowed prefix, record the remainder as the instance's
				// pending range (icount + pending == executed cursor prefix
				// holds for the snapshot) and pause, keeping the hold.
				if allowed > 0 {
					if !w.runChunk(icb, lowsched.Assignment{Lo: a.Lo, Hi: a.Lo + allowed - 1}) {
						return
					}
					w.unposted += allowed
				}
				ex.addPending(icb, lowsched.Assignment{Lo: a.Lo + allowed, Hi: a.Hi})
				w.pause(icb)
				return
			}
		}

		// body: execute the assigned iterations under the run's failure
		// policy. Each iteration boundary is a preemption point: a false
		// return means the run is draining (cancellation, deadline, or a
		// FailFast body failure) — nobody will complete the instance, and
		// the other processors leave through the same stop checks.
		if !w.runChunk(icb, a) {
			return
		}

		keep, cont := w.executed(icb, a)
		if !cont {
			return
		}
		if !keep {
			icb = nil
		}
	}
}

// executed is the update step of Algorithm 3 after a body: chunk a of icb
// is complete. Its iterations are counted privately and posted when the
// worker stops claiming from the instance (leave, pause) — except near the
// instance's tail, where the next claim will probably fail: once fewer
// than P chunks of a's size lie beyond it (for unit chunks, fewer than P
// iterations) the worker posts before claiming, so the completion that
// triggers EXIT does not wait behind a failed claim queued at the hot
// index word. The final claim (a.Hi == bound) is the tail's last case; an
// instance of at most P chunks is all tail, and so is every GSS chunk
// (ceil(remaining/P) each): those post chunk by chunk, as Algorithm 3
// writes it. With slices of a lease still in hand the next claim is no
// synchronization operation and cannot fail, so the rule waits for the
// lease's last slice. keep and cont are post's.
func (w *worker) executed(icb *pool.ICB, a lowsched.Assignment) (keep, cont bool) {
	w.unposted += a.Size()
	if !w.tail(icb, a) || w.lease.Len() > 0 {
		return true, true
	}
	return w.post(icb)
}

// leave is the way off an instance whose claim failed: post, then drop
// the hold ({ip->pcount; Decrement}; SEARCH follows). When the post is
// the one that completes the instance, this processor runs EXIT/ENTER and
// the release spin drops the hold instead. cont=false means the worker
// must drain out.
func (w *worker) leave(icb *pool.ICB) (cont bool) {
	if w.unposted > 0 {
		if keep, cont := w.post(icb); !keep {
			return cont
		}
	}
	// Once the hold is dropped the completer may recycle the block, so the
	// event names the loop read before the drop, and no index vector.
	loop := icb.Loop
	icb.PCount.FetchDec(w.pr)
	w.endHold()
	if w.sink != nil {
		w.sink.Record(w.event(w.now, trace.EvSwitch, loop, nil, 0, 0))
	}
	return true
}

// pause is the way out of the drive loop at a claim boundary (checkpoint
// request, budget exhaustion, a budget cut): record the slices still in
// hand as pending — restore runs them before it republishes the instance —
// and post, so that every snapshot satisfies icount + pending ==
// ExecutedPrefix(cursor); then close the open O1 interval. The hold is
// kept. A post that completes the instance has closed the interval itself.
func (w *worker) pause(icb *pool.ICB) {
	if rem, ok := w.lease.Remaining(); ok {
		w.ex.addPending(icb, rem)
	}
	if w.unposted > 0 {
		if keep, _ := w.post(icb); !keep {
			return
		}
	}
	w.endHold()
}

// post adds the worker's unposted iterations to icb's icount with one
// fetch-and-add and, when that brings the count to the bound, runs the
// completion path (EXIT/ENTER fan-out, the pcount release spin, freelist
// recycling): whichever processor's post completes the count is the
// instance's one completer, however late it posts. keep=false means the
// worker no longer holds the instance; cont=false means the worker must
// drain out (abort, or a checkpoint pause observed inside the release
// spin).
func (w *worker) post(icb *pool.ICB) (keep, cont bool) {
	pr := w.pr
	n := w.unposted
	w.unposted = 0
	w.posted.Add(n)
	done := icb.ICount.FetchAdd(pr, n) + n
	if w.sink != nil {
		// Mid-phase (the O1 interval closes at the next claim), so the
		// event reads the clock itself.
		w.sink.Record(w.event(pr.Now(), trace.EvPost, icb.Loop, icb.IVec, n, done))
	}
	if done > icb.Bound {
		panic(fmt.Sprintf("core: icount %d exceeded bound %d (loop %d)", done, icb.Bound, icb.Loop))
	}
	if done != icb.Bound {
		// The O1 interval stays open: the caller's next boundary (a claim,
		// a failed claim's pcount drop, a pause) closes it.
		return true, true
	}
	w.endHold() // O3 starts clean
	w.completeInstance(icb)
	w.shard.Inc(cExits)
	w.shard.Inc(cEnters)
	if !w.release(icb) {
		return false, false
	}
	w.endO3()
	return false, true
}

// release waits for the other holders to drop a block whose last work
// this worker has done — an instance it completed, a fan-out whose last
// chunk it claimed — then releases it (the paper's {pcount = 1;
// Decrement} spin). Only then may the block be reused: it goes on this
// worker's freelist, for its next activation or fan-out. false means the
// worker must drain out without releasing.
func (w *worker) release(icb *pool.ICB) bool {
	ex, pr := w.ex, w.pr
	rel := machine.Instr{Test: machine.TestEQ, TestVal: 1, Op: machine.OpDec}
	for {
		if _, ok := icb.PCount.Exec(pr, rel); ok {
			break
		}
		if ex.aborted() {
			return false // an aborted holder can never drain its pcount
		}
		if ex.ckptReq.Load() {
			// A paused holder will never drop its hold; leave without
			// releasing. The block is excluded from the snapshot (a
			// completed instance's successors are already in, a fan-out's
			// claimed iterations are activated), so the abandoned release
			// loses nothing.
			return false
		}
		pr.Spin()
	}
	ex.untrackICB(icb)
	w.free.Push(icb)
	return true
}

// runChunk executes the assigned iterations [a.Lo, a.Hi] of icb under
// the run's failure policy. It returns false when the run must drain
// (an interrupt mid-chunk, or a body failure under FailFast); the worker
// then unwinds through its normal return path. The recover sits inside
// the span/iteration executors below, so a body panic can never escape
// between the fetch-and-add claim and the icount completion bookkeeping
// — the claim/complete protocol is panic-safe.
func (w *worker) runChunk(icb *pool.ICB, a lowsched.Assignment) bool {
	cont := w.execChunk(icb, a)
	// A chunk the run drains out of is a way out of the drive loop: its
	// body end always reads.
	w.iters += a.Size()
	timed := !cont || w.timeBody(icb, a)
	if timed {
		w.tick(cBodyTime)
	}
	if !cont {
		return false
	}
	if w.sink != nil {
		// The chunk's end, at the body boundary's clock reading (its own
		// when the boundary did not read), with the iterations that ran;
		// the icount they are posted to lags them, and the post has its
		// own event.
		at := w.now
		if !timed {
			at = w.pr.Now()
		}
		w.sink.Record(w.event(at, trace.EvChunk, icb.Loop, icb.IVec, a.Lo, a.Hi))
	}
	return true
}

// execChunk runs chunk a of icb under the run's failure policy, with no
// clock reading: false means the run must drain, and a FailFast body
// failure has become the run's stop-cause.
func (w *worker) execChunk(icb *pool.ICB, a lowsched.Assignment) bool {
	ex := w.ex
	lp := &ex.plan.leaves[icb.Loop]
	w.ctx.bind(icb, lp.manualSync)
	if ex.cfg.Failure == Isolate {
		return w.runChunkIsolate(icb, lp, a)
	}
	cont, err := w.execSpan(icb, lp, a)
	if err != nil {
		// FailFast: the first body failure is the run's stop-cause; every
		// processor drains at its next preemption point.
		ex.trip(err)
	}
	return cont
}

// execSpan runs iterations a.Lo..a.Hi of the bound instance with panic
// containment: a body panic is recovered here and returned as an error.
// cont=false with err=nil means the run aborted mid-chunk.
func (w *worker) execSpan(icb *pool.ICB, lp *leafPlan, a lowsched.Assignment) (cont bool, err error) {
	ex, pr := w.ex, w.pr
	j := a.Lo
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: iteration body panicked on processor %d (loop %d, iteration %d): %v",
				pr.ID(), icb.Loop, j, r)
		}
	}()
	for ; j <= a.Hi; j++ {
		if ex.aborted() {
			return false, nil
		}
		w.ctx.begin(j)
		if ex.inj != nil {
			if ierr := w.inject(icb, j); ierr != nil {
				return false, fmt.Errorf("core: iteration body failed on processor %d (loop %d, iteration %d): %w",
					pr.ID(), icb.Loop, j, ierr)
			}
		}
		if w.iter != nil {
			w.iter.Record(w.event(pr.Now(), trace.EvIterStart, icb.Loop, icb.IVec, j, 0))
		}
		if w.ctx.dep != nil && !w.ctx.manual {
			w.ctx.AwaitDep()
		}
		lp.info.Node.Iter(&w.ctx, icb.IVec, j)
		if w.ctx.dep != nil {
			// Ensure the dependence source is posted even if the body
			// did not post explicitly (otherwise successors deadlock).
			w.ctx.PostDep()
		}
		if w.iter != nil {
			w.iter.Record(w.event(pr.Now(), trace.EvIterEnd, icb.Loop, icb.IVec, j, 0))
		}
		w.shard.Inc(cIterations)
	}
	return true, nil
}

// runChunkIsolate is runChunk under the Isolate policy: each iteration
// runs with its own panic containment, a failing iteration is retried
// within the configured budget (with doubling idle backoff), and a
// still-failing iteration is quarantined into the run's failure log.
// The chunk always completes from the protocol's point of view — the
// icount/pcount/BAR_COUNT bookkeeping in run() proceeds exactly as for
// a successful chunk, so sibling instances drain, barriers fill, and
// successors activate; only the quarantined iterations' useful work is
// missing, and the FailureReport names them.
func (w *worker) runChunkIsolate(icb *pool.ICB, lp *leafPlan, a lowsched.Assignment) bool {
	ex, pr := w.ex, w.pr
	attempt := 1
	for j := a.Lo; j <= a.Hi; {
		if ex.aborted() {
			return false
		}
		err := w.execIter(icb, lp, j)
		if err == nil {
			j++
			attempt = 1
			continue
		}
		if ex.aborted() {
			// The failure is a symptom of the drain (e.g. an aborted
			// Doacross wait), not an iteration fault: do not record it.
			return false
		}
		if attempt <= ex.retry.Attempts {
			w.shard.Inc(cRetries)
			if c := ex.retry.Backoff; c > 0 {
				shift := attempt - 1
				if shift > 32 {
					shift = 32
				}
				pr.Idle(c << shift)
			}
			attempt++
			continue
		}
		// Quarantine iteration j. Its dependence source must still be
		// posted — a successor's AwaitDep would otherwise spin forever
		// on work nobody will redo.
		ex.failures.add(icb.Loop, icb.IVec, j, attempt, err.Error())
		w.shard.Inc(cFailedIterations)
		if w.ctx.dep != nil {
			w.ctx.begin(j)
			w.ctx.PostDep()
		}
		j++
		attempt = 1
	}
	return true
}

// execIter runs one iteration with panic containment; the returned
// error is the iteration's failure, nil on success.
func (w *worker) execIter(icb *pool.ICB, lp *leafPlan, j int64) (err error) {
	ex, pr := w.ex, w.pr
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("body panicked: %v", r)
		}
	}()
	w.ctx.begin(j)
	if ex.inj != nil {
		if ierr := w.inject(icb, j); ierr != nil {
			return ierr
		}
	}
	if w.iter != nil {
		w.iter.Record(w.event(pr.Now(), trace.EvIterStart, icb.Loop, icb.IVec, j, 0))
	}
	if w.ctx.dep != nil && !w.ctx.manual {
		w.ctx.AwaitDep()
	}
	lp.info.Node.Iter(&w.ctx, icb.IVec, j)
	if w.ctx.dep != nil {
		w.ctx.PostDep()
	}
	if w.iter != nil {
		w.iter.Record(w.event(pr.Now(), trace.EvIterEnd, icb.Loop, icb.IVec, j, 0))
	}
	w.shard.Inc(cIterations)
	return nil
}

// inject consults the fault injector at coordinate (icb.Loop, icb.IVec,
// j). Perturbations (delay, contention spike) are applied in place;
// failures are returned (Error) or thrown (Panic) so they take the same
// kernel paths a real misbehaving body would.
func (w *worker) inject(icb *pool.ICB, j int64) error {
	f, ok := w.ex.inj.Decide(icb.Loop, icb.IVec, j)
	if !ok {
		return nil
	}
	pr := w.pr
	switch f.Kind {
	case fault.Panic:
		panic(fmt.Sprintf("fault: injected panic at (loop %d, ivec %v, iteration %d)", icb.Loop, icb.IVec, j))
	case fault.Error:
		return fmt.Errorf("fault: injected error at (loop %d, ivec %v, iteration %d)", icb.Loop, icb.IVec, j)
	case fault.Delay:
		if f.Cost > 0 {
			pr.Idle(f.Cost)
		}
	case fault.Spike:
		// An artificial contention spike: hammer the instance's shared
		// index with costed reads, heating the same line the claiming
		// fetch-and-add uses.
		for i := int64(0); i < f.Cost; i++ {
			icb.Index.Fetch(pr)
		}
	}
	return nil
}
