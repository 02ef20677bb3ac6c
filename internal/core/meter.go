package core

import (
	"sync/atomic"

	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pool"
)

// meter is the worker's meter (DESIGN §17), embedded in the worker: it
// measures eq. (1)'s terms on one processor — O1, body, O2, O3 — and keeps
// the claim path's pause triggers. The drive loop names its boundaries
// (claim, body end, hold end, search end, O3 end, mark, inline instance);
// the meter decides whether each reads the clock, what the reading
// charges and when a pause is due. No other file touches its fields. pr,
// shard and ex are the worker's own.
type meter struct {
	pr    machine.Proc
	shard *obs.Shard
	ex    *executor
	// now is the latest clock reading: the reading that closes one
	// accounted interval opens the next (on the virtual engine no machine
	// time passes between the two). The O1 interval opens at a body's end
	// and stays open into the next claim, and every way out of the drive
	// loop closes the open interval.
	now machine.Time
	// claims and iters are the open window: the O1 phases (one per
	// synchronization claim, one for the phase that ends a hold) and the
	// body iterations since now that no reading closed. With a clock
	// stride of 1 every boundary reads and the window holds at most the
	// phase its reading closes; above 1 an exact hold reads only at its
	// edges, its first claim, its tail chunks and one sampled chunk in
	// every stride, any other hold at its edges alone, and the reading
	// that closes a mixed window splits it (split).
	claims, iters int64
	// all totals the exact intervals read, perLeaf the same per leaf (the
	// worker's carve of ex.means, empty at stride 1, where no window is
	// split), and held is the entry the window feeds: the held instance's
	// leaf, or the inline instance's.
	all     means
	perLeaf []means
	held    *means
	// stride is the engine's clock stride s (Engine's optional
	// ClockStride; 1 when the engine has none); left counts down the
	// chunks to the next sample and holds the holds (and inline instances)
	// to the next exact one, both across holds. exact is set while the
	// held instance reads inside the hold (adopt); readClaim makes the next
	// claim read the clock (an exact hold's first, or a sample's), armed
	// the next body end (a sample's); at stride 1 all three stay set.
	stride, left, holds     int
	exact, readClaim, armed bool
	// lastClaim is the engine time of the latest timed claim or, above
	// stride 1, of a later adoption or exact inline instance (-1 before
	// the first): Diagnose's last-claim, host-side, read by other
	// goroutines.
	lastClaim atomic.Int64
	// pred is the body time inline instances left unread in the open
	// window, n·τ̂ each; pubs and inlined count the instances the open O3
	// phase published and ran inline; o2 and o3 are Ô2 and Ô3 of the
	// inline rule (endSearch, endO3).
	pred          machine.Time
	pubs, inlined int64
	o2, o3        overhead
}

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

// init binds the meter to the worker. The first chunk it times is a
// sample, so both means exist before any window needs splitting.
func (m *meter) init(ex *executor, pr machine.Proc, shard *obs.Shard) {
	m.ex, m.pr, m.shard = ex, pr, shard
	m.lastClaim.Store(-1)
	s := clockStride(ex.cfg.Engine)
	m.stride, m.left, m.holds = s, s, s
	m.exact, m.armed = true, true
	m.perLeaf = ex.means[pr.ID()*ex.meanStride : (pr.ID()+1)*ex.meanStride]
}

// tick is a phase boundary: one clock read that charges the interval
// since the previous reading to counter c and opens the next interval.
// The caller has counted the phase the reading closes into the window
// (a claim or a hold's end into claims, a body's iterations into iters).
// A window of one kind is an exact interval, and it also feeds the means
// split uses, the worker's and the held leaf's; a window of both kinds is
// split between O1 and body. tick returns the interval it read.
func (m *meter) tick(c obs.ID) machine.Time {
	t := m.pr.Now()
	read := t - m.now
	d := read
	m.now = t
	if m.pred > 0 {
		// Inline instances ran unread in this O3 window: their predicted
		// body time is body, and the rest is the window's own.
		b := min(m.pred, d)
		m.shard.Add(cBodyTime, b)
		d -= b
		m.pred = 0
	}
	switch {
	case m.claims != 0 && m.iters != 0:
		m.split(d)
	case m.iters != 0:
		m.shard.Add(c, d)
		m.all.addBody(d, m.iters)
		if m.held != nil {
			m.held.addBody(d, m.iters)
		}
	default:
		m.shard.Add(c, d)
		if m.claims == 1 {
			m.all.addO1(d)
			if m.held != nil {
				m.held.addO1(d)
			}
		}
	}
	m.claims, m.iters = 0, 0
	return read
}

// split charges a window of d that holds unread phases to O1 and body in
// the ratio the worker's exact intervals predict: claims × the mean O1
// phase against iters × the mean body time per iteration. Each mean is the
// held leaf's, or the worker's over all leaves while the leaf has no exact
// interval of that kind; a side with none at all weighs one unit per phase
// or iteration. The two weights share the denominator o1N × bodyN, so the
// split takes one division, not three: a hold read at its edges alone
// splits at every way off it.
func (m *meter) split(d machine.Time) {
	e := m.all
	if l := m.held; l != nil {
		if l.o1N > 0 {
			e.o1Sum, e.o1N = l.o1Sum, l.o1N
		}
		if l.bodyN > 0 {
			e.bodySum, e.bodyN = l.bodySum, l.bodyN
		}
	}
	if e.o1N == 0 {
		e.o1Sum, e.o1N = 1, 1
	}
	if e.bodyN == 0 {
		e.bodySum, e.bodyN = 1, 1
	}
	o := float64(m.claims) * float64(e.o1Sum) * float64(e.bodyN)
	b := float64(m.iters) * float64(e.bodySum) * float64(e.o1N)
	o1 := d
	if o+b > 0 {
		o1 = machine.Time(float64(d)*o/(o+b) + 0.5)
	}
	m.shard.Add(cO1Time, o1)
	m.shard.Add(cBodyTime, d-o1)
}

// stamp is the time of the boundary just passed, for the sink: its
// reading when it read the clock (read), else one of the event's own.
func (m *meter) stamp(read bool) machine.Time {
	if read {
		return m.now
	}
	return m.pr.Now()
}

// lastClaimed is Diagnose's last-claim figure.
func (m *meter) lastClaimed() machine.Time { return m.lastClaim.Load() }

// mark is a phase boundary whose closing interval is charged to no
// counter (the run's start, a modeled dispatch, the restore prologue).
func (m *meter) mark() { m.now = m.pr.Now() }

// endSearch is the reading that closes a SEARCH that found work: every
// one is an exact O2 interval, and their mean is Ô2.
func (m *meter) endSearch() {
	m.o2.sum += m.tick(cO2Time)
	m.o2.n++
}

// adopt opens a hold on icb, after the reading that closed its SEARCH.
// At stride 1 every hold is exact. Above it a hold is exact while icb's
// leaf has no exact O1 or no exact body interval on this worker, and once
// in every s holds; an exact hold reads at its first claim, its tail
// chunks and its samples. Any other hold reads at its edges alone — this
// adoption and the way off the instance — and the way off splits the
// window between them by the leaf's means: a short hold is all edges and
// tail, so reading its tail would cost more than the O1 it measures.
func (m *meter) adopt(icb *pool.ICB) {
	m.readClaim = true
	if m.stride == 1 {
		return
	}
	// A hold that times no claim still shows the watchdog it is alive.
	m.lastClaim.Store(m.now)
	l := &m.perLeaf[icb.Loop]
	m.exact = m.hold(l) || l.o1N == 0 || l.bodyN == 0
	m.readClaim = m.exact
}

// hold points the window at leaf l's means and counts down to the
// periodic exact hold, which it reports. That one restarts the leaf's
// body mean, so a body whose cost drifts over the run is split by what it
// costs now, not by its average since the start. The O1 mean is a claim's
// cost, the machine's, not the body's: it stays whole.
func (m *meter) hold(l *means) bool {
	m.held = l
	if m.holds--; m.holds > 0 {
		return false
	}
	l.bodySum, l.bodyN = 0, 0
	m.holds = m.stride
	return true
}

// claim is the boundary of a synchronization claim of n chunks on icb, a
// the first, and reports whether it read the clock. It counts them
// (countClaim) and closes the O1 interval the previous body's end (or the
// SEARCH) opened: a tail post, the fetch-and-add on index and, on the
// final claim, the DELETE. Above stride 1 only an exact hold's first
// claim, a sample's and a tail chunk's read; the others join the window.
func (m *meter) claim(icb *pool.ICB, a lowsched.Assignment, n int64) bool {
	m.countClaim(n)
	m.claims++
	if !m.readsClaim(icb, a) {
		return false
	}
	m.readClaim = m.stride == 1
	m.tick(cO1Time)
	m.lastClaim.Store(m.now)
	return true
}

// countClaim counts one claim of n chunks and is the claim-k trigger: the
// pause is requested when the run's chunk count reaches AfterChunks (a
// lease may step past it, never around it). The chunks claimed still run.
func (m *meter) countClaim(n int64) {
	m.shard.Add(cChunks, n)
	if k := m.ex.ckptAfter; k > 0 {
		if c := m.ex.claimed.Add(n); c-n < k && k <= c {
			m.ex.ckptReq.Store(true)
		}
	}
}

// readsClaim reports whether the claim of chunk a reads the clock: a
// hold's first and a sample's in an exact hold (readClaim), and a tail
// chunk's in an exact hold.
func (m *meter) readsClaim(icb *pool.ICB, a lowsched.Assignment) bool {
	return m.readClaim || m.exact && m.tail(icb, a)
}

// tail reports whether chunk a lies in icb's tail: fewer than P chunks of
// its size lie beyond it. Tail chunks post before the next claim
// (executed), and in an exact hold their claims and body ends read.
func (m *meter) tail(icb *pool.ICB, a lowsched.Assignment) bool {
	return icb.Bound-a.Hi < m.ex.nprocs*a.Size()
}

// endBody is the boundary after chunk a's bodies, leased when slices of a
// lease are in hand, and reports whether it read the clock: always when
// the run drains out of the chunk (a way out of the drive loop), else as
// timeBody decides.
func (m *meter) endBody(icb *pool.ICB, a lowsched.Assignment, drain, leased bool) bool {
	m.iters += a.Size()
	if !drain && !m.timeBody(icb, a, leased) {
		return false
	}
	m.tick(cBodyTime)
	return true
}

// timeBody reports whether chunk a's body end reads the clock: in an
// exact hold, the body of a sample, a tail chunk's, or the read that arms
// the next sample — the previous body's end, so the sampled claim and
// body are exact intervals. A sample is never armed while slices of a
// lease are in hand: the next chunk must start with a synchronization
// claim. The sample counter does not run outside exact holds.
func (m *meter) timeBody(icb *pool.ICB, a lowsched.Assignment, leased bool) bool {
	if !m.exact {
		return false
	}
	read := m.armed || m.tail(icb, a)
	m.armed = m.stride == 1
	if m.left--; m.left <= 0 && !leased {
		m.left, m.armed, m.readClaim = m.stride, true, true
		return true
	}
	return read
}

// endHold is the reading that closes a hold's last O1 phase — a failed
// claim's post and pcount drop, a pause's post, the post that completes
// the instance — whatever the stride and whether or not the hold is
// exact: every way off an instance reads.
func (m *meter) endHold() {
	m.claims++
	m.tick(cO1Time)
}

// published counts an instance the open O3 phase published.
func (m *meter) published() { m.pubs++ }

// endO3 is the reading that closes an O3 phase (EXIT/ENTER, a fan-out
// claim). A phase that ran no instance inline is an exact sample of what
// publishing costs the worker: its time over the instances it published
// is Ô3.
func (m *meter) endO3() {
	if d := m.tick(cO3Time); m.inlined == 0 {
		m.o3.sum += d
		m.o3.n += m.pubs
	}
	m.pubs, m.inlined = 0, 0
}

// cheaper is the inline rule's model test for an instance of leaf num
// with n iterations: n·τ̂ < Ô2 + Ô3, where τ̂ is the leaf's body mean on
// this worker, Ô2 the worker's mean SEARCH and Ô3 its mean O3 time per
// published instance. A worker with no exact body interval for the leaf,
// or no published instance yet, publishes.
func (m *meter) cheaper(num int, n int64) bool {
	l := &m.perLeaf[num]
	if m.o2.n == 0 || m.o3.n == 0 || l.bodyN == 0 {
		return false
	}
	pub := float64(m.o2.sum)/float64(m.o2.n) + float64(m.o3.sum)/float64(m.o3.n)
	return float64(n)*float64(l.bodySum) < pub*float64(l.bodyN)
}

// startInline is the boundary before an inline instance of leaf num. One
// in every s, sharing the periodic exact hold's countdown (hold), reads
// its body exactly, so a leaf whose body grows stops inlining: it closes
// the O3 phase here, endInline reads the body's end, and it reports true.
func (m *meter) startInline(num int) bool {
	if !m.hold(&m.perLeaf[num]) {
		return false
	}
	m.endO3()
	return true
}

// endInline is the boundary after an inline instance of n iterations. An
// inexact one leaves n·τ̂ of body time unread in the O3 window, which the
// reading that closes it charges to the body (tick).
func (m *meter) endInline(n int64, exact bool) {
	if exact {
		m.iters += n
		m.tick(cBodyTime)
		m.lastClaim.Store(m.now)
	} else {
		m.pred += machine.Time(float64(n)*float64(m.held.bodySum)/float64(m.held.bodyN) + 0.5)
	}
	m.inlined++
}

// pauseDue is a claim boundary's pause trigger: a pause is requested, or
// the engine-time budget is due, which requests it.
func (m *meter) pauseDue() bool {
	return m.ex.ckptReq.Load() || m.ex.budTime > 0 && m.budgetDue()
}

// budgetDue requests the pause once the clock reaches the engine-time
// budget. The read charges nothing: a run below the ceiling is unperturbed.
func (m *meter) budgetDue() bool {
	ex := m.ex
	if m.pr.Now() < ex.budTime {
		return false
	}
	ex.budHit.Store(true)
	ex.ckptReq.Store(true)
	return true
}

// budgetClaim charges a chunk of s iterations against the iteration
// budget, if any, before it runs, and returns how many may execute: one
// atomic add, so concurrent claimers partition the budget exactly.
// Crossing (or meeting) it requests the pause; the caller runs the
// allowed prefix and records the rest pending.
func (m *meter) budgetClaim(s int64) int64 {
	ex := m.ex
	if !ex.budMeter {
		return s
	}
	rem := ex.budIters.Add(-s)
	if rem > 0 {
		return s
	}
	ex.budHit.Store(true)
	ex.ckptReq.Store(true)
	return max(s+rem, 0)
}

// budgetTake charges an inline instance's n iterations whole against the
// iteration budget, or reports false: the instance is then published for
// the claim path to cut. Taking the last of it requests the pause.
func (m *meter) budgetTake(n int64) bool {
	ex := m.ex
	for {
		rem := ex.budIters.Load()
		if rem < n {
			return false
		}
		if ex.budIters.CompareAndSwap(rem, rem-n) {
			if rem == n {
				ex.budHit.Store(true)
				ex.ckptReq.Store(true)
			}
			return true
		}
	}
}
