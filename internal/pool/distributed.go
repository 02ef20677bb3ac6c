package pool

import (
	"fmt"
	"strings"

	"repro/internal/machine"
)

// Distributed is an alternative task-pool organization (the paper notes
// that "other parallel data structures ... can also be used to implement
// the task pool"): one list per *processor* instead of one per loop.
// A processor appends the instances it activates to its own list and
// searches its own list first, stealing from the others round-robin when
// it runs dry. There is no SW control word; the trade-off against the
// paper's per-loop lists with leading-one detection is measured by
// experiment E9.
//
// Semantics are identical to Pool: SEARCH adopts an ICB whose pcount is
// below its bound, APPEND/DELETE splice under the owning list's lock.
type Distributed struct {
	m     int
	procs int
	lists []plist
}

// NewDistributed returns a distributed pool for m innermost loops on the
// given number of processors.
func NewDistributed(m, procs int) *Distributed {
	if m < 1 || procs < 1 {
		panic(fmt.Sprintf("pool: invalid sizes m=%d procs=%d", m, procs))
	}
	d := &Distributed{m: m, procs: procs, lists: make([]plist, procs)}
	for i := range d.lists {
		d.lists[i].lock = machine.NewSpinLock(fmt.Sprintf("D(%d)", i))
	}
	return d
}

// Append adds an ICB to the appending processor's own list.
func (d *Distributed) Append(pr machine.Proc, icb *ICB) {
	if icb.Loop < 1 || icb.Loop > d.m {
		panic(fmt.Sprintf("pool: loop %d out of range [1,%d]", icb.Loop, d.m))
	}
	home := pr.ID() % d.procs
	icb.home = int32(home)
	l := &d.lists[home]
	l.lock.Lock(pr)
	if icb.inList {
		panic(fmt.Sprintf("pool: double append of %v", icb))
	}
	icb.inList = true
	l.n.Add(1)
	x := l.tail
	icb.left = x
	icb.right = nil
	l.tail = icb
	if x != nil {
		x.right = icb
	} else {
		l.head = icb
	}
	l.lock.Unlock(pr)
}

// Delete removes an ICB from its home list.
func (d *Distributed) Delete(pr machine.Proc, icb *ICB) {
	l := &d.lists[icb.home]
	l.lock.Lock(pr)
	if !icb.inList {
		panic(fmt.Sprintf("pool: delete of unlisted %v", icb))
	}
	icb.inList = false
	l.n.Add(-1)
	y := icb.right
	x := icb.left
	if x != nil {
		x.right = y
	} else {
		l.head = y
	}
	if y != nil {
		y.left = x
	} else {
		l.tail = x
	}
	icb.left, icb.right = nil, nil
	l.lock.Unlock(pr)
}

// First starts a SEARCH sweep. There is no SW word to scan: a sweep
// always visits all lists — the caller's own first, then the others
// round-robin (work stealing) — so the cursor is simply the 1-based round
// offset and First always returns 1. The kernel's SEARCH loop drives the
// sweep exactly as it does for the per-loop pool.
func (d *Distributed) First(machine.Proc) int { return 1 }

// Next advances the round-robin cursor, or returns 0 once every list has
// been visited this sweep.
func (d *Distributed) Next(_ machine.Proc, i int) int {
	if i < d.procs {
		return i + 1
	}
	return 0
}

// TryAdopt attempts to adopt an ICB from the list at round offset i: the
// caller's own list at i=1, stolen-from neighbors after. See
// Pool.TryAdopt for the needs filter and block escalation.
func (d *Distributed) TryAdopt(pr machine.Proc, i int, needs func(*ICB) bool, block bool, st *SearchStats) *ICB {
	self := pr.ID() % d.procs
	l := &d.lists[(self+i-1)%d.procs]
	if block {
		l.lock.Lock(pr)
	} else if !l.lock.TryLock(pr) {
		st.LockFailures++
		return nil
	}
	adopt := machine.Instr{Test: machine.TestLT, Op: machine.OpInc}
	for icb := l.head; icb != nil; icb = icb.right {
		st.Walked++
		if needs != nil && !needs(icb) {
			continue
		}
		adopt.TestVal = icb.Bound
		if _, ok := icb.PCount.Exec(pr, adopt); ok {
			l.lock.Unlock(pr)
			return icb
		}
	}
	st.Saturated++
	l.lock.Unlock(pr)
	return nil
}

// DumpState renders per-list occupancy for stuck-run diagnostics; like
// Pool.DumpState it takes no locks and walks nothing.
func (d *Distributed) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pool: distributed lists=%d\n", d.procs)
	for i := range d.lists {
		if n := d.lists[i].n.Load(); n != 0 {
			fmt.Fprintf(&b, "  proc-list %d: %d ICB(s)\n", i, n)
		}
	}
	return b.String()
}

// Empty reports whether every list is empty (quiescence check).
func (d *Distributed) Empty() bool {
	for i := range d.lists {
		if d.lists[i].head != nil {
			return false
		}
	}
	return true
}
