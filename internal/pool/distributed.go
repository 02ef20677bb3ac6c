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
// Fan-out blocks go to one shared list, list procs, which a sweep visits
// after every processor's list.
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
	d := &Distributed{m: m, procs: procs, lists: make([]plist, procs+1)}
	for i := range procs {
		d.lists[i].lock = machine.NewSpinLock(fmt.Sprintf("D(%d)", i))
	}
	d.lists[procs].lock = machine.NewSpinLock("D(fan)")
	return d
}

// Append adds an ICB to the appending processor's own list, and a fan-out
// block to the fan-out list.
func (d *Distributed) Append(pr machine.Proc, icb *ICB) {
	if icb.Loop < 1 || icb.Loop > d.m {
		panic(fmt.Sprintf("pool: loop %d out of range [1,%d]", icb.Loop, d.m))
	}
	home := pr.ID() % d.procs
	if icb.fan {
		home = d.procs
	}
	icb.home = int32(home)
	l := &d.lists[home]
	l.lock.Lock(pr)
	l.link(icb)
	l.lock.Unlock(pr)
}

// Delete removes an ICB from its home list.
func (d *Distributed) Delete(pr machine.Proc, icb *ICB) {
	l := &d.lists[icb.home]
	l.lock.Lock(pr)
	l.unlink(icb)
	l.lock.Unlock(pr)
}

// FanCursor returns the cursor of the fan-out list, the last a sweep
// visits.
func (d *Distributed) FanCursor() int { return d.procs + 1 }

// Blocks returns every block on the processors' lists, the fan-out
// list's last; like Pool.Blocks, once the engine has drained.
func (d *Distributed) Blocks() []*ICB { return blocks(d.lists) }

// First starts a SEARCH sweep. There is no SW word to scan: a sweep
// always visits all lists — the caller's own first, then the others
// round-robin (work stealing), then the fan-out list — so the cursor is
// simply the 1-based round offset and First always returns 1. The
// kernel's SEARCH loop drives the sweep exactly as it does for the
// per-loop pool.
func (d *Distributed) First(machine.Proc) int { return 1 }

// Next advances the round-robin cursor, or returns 0 once every list has
// been visited this sweep. The fan-out list is visited only while it
// holds a block: its occupancy word changes once per fan-out, not per
// instance, so the test is a read of a line no other processor is
// writing, and it charges no access.
func (d *Distributed) Next(_ machine.Proc, i int) int {
	if i < d.procs || (i == d.procs && d.lists[d.procs].n.Load() > 0) {
		return i + 1
	}
	return 0
}

// TryAdopt attempts to adopt an ICB from the list at round offset i: the
// caller's own list at i=1, stolen-from neighbors after, the fan-out list
// at i=procs+1. See Pool.TryAdopt for the needs filter and block
// escalation.
func (d *Distributed) TryAdopt(pr machine.Proc, i int, needs func(*ICB) bool, block bool, st *SearchStats) *ICB {
	l := &d.lists[d.procs]
	if i <= d.procs {
		self := pr.ID() % d.procs
		l = &d.lists[(self+i-1)%d.procs]
	} else {
		needs = nil // the fan-out list holds no loop instance to filter
	}
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
	for i := range d.procs {
		if n := d.lists[i].n.Load(); n != 0 {
			fmt.Fprintf(&b, "  proc-list %d: %d ICB(s)\n", i, n)
		}
	}
	if n := d.lists[d.procs].n.Load(); n != 0 {
		fmt.Fprintf(&b, "  fan-out list: %d block(s)\n", n)
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
