package core

import (
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pool"
)

// This file is the worker's meter: the clock primitives the drive loop
// calls at its phase boundaries, and the rules that decide, above a clock
// stride of 1, which boundaries read (DESIGN §17). They keep the worker's
// receiver and fields; kernel.go names the boundaries.

// means totals the exact intervals a worker has read — O1 time over O1
// phases, body time over iterations — whose ratio a mixed window is split
// in. A worker keeps one for all its intervals and one per leaf.
type means struct {
	o1Sum, o1N, bodySum, bodyN int64
}

func (m *means) addO1(d machine.Time) {
	m.o1Sum += d
	m.o1N++
}

func (m *means) addBody(d machine.Time, iters int64) {
	m.bodySum += d
	m.bodyN += iters
}

// overhead totals a worker's exact intervals of one overhead kind and the
// instances they served.
type overhead struct {
	sum, n int64
}

// tick is a phase boundary: one clock read that charges the interval
// since the previous reading to counter c and opens the next interval.
// The caller has counted the phase the reading closes into the window
// (a claim or a hold's end into claims, a body's iterations into iters).
// A window of one kind is an exact interval, and it also feeds the means
// split uses, the worker's and its held leaf's; a window of both kinds is
// split between O1 and body.
func (w *worker) tick(c obs.ID) {
	t := w.pr.Now()
	d := t - w.now
	w.now = t
	if w.pred > 0 {
		// Inline instances ran unread in this O3 window: their predicted
		// body time is body, and the rest is the window's own.
		b := min(w.pred, d)
		w.shard.Add(cBodyTime, b)
		d -= b
		w.pred = 0
	}
	switch {
	case w.claims != 0 && w.iters != 0:
		w.split(d)
	case w.iters != 0:
		w.shard.Add(c, d)
		w.all.addBody(d, w.iters)
		if w.held != nil {
			w.held.addBody(d, w.iters)
		}
	default:
		w.shard.Add(c, d)
		if w.claims == 1 {
			w.all.addO1(d)
			if w.held != nil {
				w.held.addO1(d)
			}
		}
	}
	w.claims, w.iters = 0, 0
}

// split charges a window of d that holds unread phases to O1 and body in
// the ratio the worker's exact intervals predict: claims × the mean O1
// phase against iters × the mean body time per iteration. Each mean is the
// held leaf's, or the worker's over all leaves while the leaf has no exact
// interval of that kind; a side with none at all weighs one unit per phase
// or iteration. The two weights share the denominator o1N × bodyN, so the
// split takes one division, not three: a hold read at its edges alone
// splits at every way off it.
func (w *worker) split(d machine.Time) {
	m := w.all
	if l := w.held; l != nil {
		if l.o1N > 0 {
			m.o1Sum, m.o1N = l.o1Sum, l.o1N
		}
		if l.bodyN > 0 {
			m.bodySum, m.bodyN = l.bodySum, l.bodyN
		}
	}
	if m.o1N == 0 {
		m.o1Sum, m.o1N = 1, 1
	}
	if m.bodyN == 0 {
		m.bodySum, m.bodyN = 1, 1
	}
	o := float64(w.claims) * float64(m.o1Sum) * float64(m.bodyN)
	b := float64(w.iters) * float64(m.bodySum) * float64(m.o1N)
	o1 := d
	if o+b > 0 {
		o1 = machine.Time(float64(d)*o/(o+b) + 0.5)
	}
	w.shard.Add(cO1Time, o1)
	w.shard.Add(cBodyTime, d-o1)
}

// endHold is the reading that closes a hold's last O1 phase — a failed
// claim's post and pcount drop, a pause's post, the post that completes
// the instance — whatever the stride and whether or not the hold is
// exact: every way off an instance reads.
func (w *worker) endHold() {
	w.claims++
	w.tick(cO1Time)
}

// endSearch is the reading that closes a SEARCH that found work: every
// one is an exact O2 interval, and their mean is Ô2.
func (w *worker) endSearch() {
	t := w.now
	w.tick(cO2Time)
	w.o2.sum += w.now - t
	w.o2.n++
}

// endO3 is the reading that closes an O3 phase (EXIT/ENTER, a fan-out
// claim). A phase that ran no instance inline is an exact sample of what
// publishing costs the worker: its time over the instances it published
// is Ô3.
func (w *worker) endO3() {
	t := w.now
	w.tick(cO3Time)
	if w.inlined == 0 {
		w.o3.sum += w.now - t
		w.o3.n += w.pubs
	}
	w.pubs, w.inlined = 0, 0
}

// mark is a phase boundary whose closing interval is charged to no
// counter (the run's start, a modeled dispatch, the restore prologue).
func (w *worker) mark() { w.now = w.pr.Now() }

// adopt opens a hold on icb, after the reading that closed its SEARCH.
// At stride 1 every hold is exact. Above it a hold is exact while icb's
// leaf has no exact O1 or no exact body interval on this worker, and once
// in every s holds, which restarts the leaf's body mean; an exact hold
// reads at its first claim, its tail chunks and its samples. Any other
// hold reads at its edges alone — this adoption and the way off the
// instance — and the way off splits the window between them by the
// leaf's means: a short hold is all edges and tail, so reading its tail
// would cost more than the O1 it measures.
func (w *worker) adopt(icb *pool.ICB) {
	w.readClaim = true
	if w.stride == 1 {
		return
	}
	// A hold that times no claim still shows the watchdog it is alive.
	w.lastClaim.Store(w.now)
	w.held = &w.ex.means[w.meanOff+icb.Loop]
	w.holds--
	w.exact = w.holds <= 0 || w.held.o1N == 0 || w.held.bodyN == 0
	if w.holds <= 0 {
		// The periodic exact hold restarts the leaf's body mean, so a
		// body whose cost drifts over the run is split by what it costs
		// now, not by its average since the start. The O1 mean is a
		// claim's cost, the machine's, not the body's: it stays whole.
		w.held.bodySum, w.held.bodyN = 0, 0
		w.holds = w.stride
	}
	w.readClaim = w.exact
}

// tail reports whether chunk a lies in icb's tail: fewer than P chunks of
// its size lie beyond it. Tail chunks post before the next claim
// (executed), and in an exact hold their claims and body ends read the
// clock.
func (w *worker) tail(icb *pool.ICB, a lowsched.Assignment) bool {
	return icb.Bound-a.Hi < w.ex.nprocs*a.Size()
}

// readsClaim reports whether the claim of chunk a reads the clock: a
// hold's first and a sample's in an exact hold (readClaim), and a tail
// chunk's in an exact hold.
func (w *worker) readsClaim(icb *pool.ICB, a lowsched.Assignment) bool {
	return w.readClaim || w.exact && w.tail(icb, a)
}

// timeBody reports whether chunk a's body end reads the clock: in an
// exact hold, the body of a sample, a tail chunk's, or the read that arms
// the next sample — the previous body's end, so the sampled claim and
// body are exact intervals. A sample is never armed while slices of a
// lease are in hand: the next chunk must start with a synchronization
// claim. The sample counter does not run outside exact holds.
func (w *worker) timeBody(icb *pool.ICB, a lowsched.Assignment) bool {
	if !w.exact {
		return false
	}
	read := w.armed || w.tail(icb, a)
	w.armed = w.stride == 1
	if w.left--; w.left <= 0 && w.lease.Len() == 0 {
		w.left, w.armed, w.readClaim = w.stride, true, true
		return true
	}
	return read
}
