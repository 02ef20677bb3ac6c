package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Ring is the flight recorder: the last scheduling events of each
// processor in a fixed-size ring, cheap enough to leave on in a serving
// daemon, so a stuck-run diagnostic can ship the tail of what the
// scheduler actually did. It keeps the scheduling kinds only
// (SchedulingOnly), so the kernel's iteration path makes no call for it.
// Record never allocates, and it does not retain an event's IVec (the
// kernel recycles an ICB's vector with the block): an activated or
// completed record keeps the first enclosing index in B instead (0 at the
// outermost level). Each processor's ring has one writer, the processor
// itself; the per-ring mutex only makes concurrent Tail reads (a watchdog
// diagnosing a live run) race-free, and is effectively uncontended.
type Ring struct {
	procs []procRing
}

type procRing struct {
	mu  sync.Mutex
	buf []Event
	seq int64 // events ever recorded; buf[(seq-1)%len] is the newest
	// pad keeps adjacent rings from sharing a cache line (Record writes
	// mu and seq on every event).
	_ [64]byte
}

// NewRing returns a recorder for nprocs processors retaining up to
// perProc events each. perProc below 1 is raised to 1.
func NewRing(nprocs, perProc int) *Ring {
	if nprocs < 1 {
		panic(fmt.Sprintf("trace: ring for %d processors", nprocs))
	}
	r := &Ring{procs: make([]procRing, nprocs)}
	for i := range r.procs {
		r.procs[i].buf = make([]Event, max(perProc, 1))
	}
	return r
}

// Record implements Sink: it appends a scheduling event to its
// processor's ring, overwriting the oldest once the ring is full.
func (r *Ring) Record(e Event) {
	switch e.Kind {
	case EvIterStart, EvIterEnd:
		return
	case EvActivated, EvCompleted:
		if len(e.IVec) > 0 {
			e.B = e.IVec[0]
		}
	}
	e.IVec = nil
	g := &r.procs[e.Proc]
	g.mu.Lock()
	e.Seq = g.seq
	g.buf[g.seq%int64(len(g.buf))] = e
	g.seq++
	g.mu.Unlock()
}

// SchedulingOnly implements SchedulingOnly.
func (r *Ring) SchedulingOnly() {}

// Events returns the total number of events ever recorded (including
// overwritten ones).
func (r *Ring) Events() int64 {
	var n int64
	for i := range r.procs {
		g := &r.procs[i]
		g.mu.Lock()
		n += g.seq
		g.mu.Unlock()
	}
	return n
}

// Tail merges the rings and returns the last n events in global order
// (by engine time, ties broken by processor then sequence). n <= 0
// returns everything retained. Safe to call while the run is in flight.
func (r *Ring) Tail(n int) []Event {
	var all []Event
	for i := range r.procs {
		g := &r.procs[i]
		g.mu.Lock()
		size := int64(len(g.buf))
		for k := max(g.seq-size, 0); k < g.seq; k++ {
			all = append(all, g.buf[k%size])
		}
		g.mu.Unlock()
	}
	slices.SortFunc(all, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Seq, b.Seq))
	})
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Dump renders the merged tail of the last n events, one per line, for
// diagnostic reports (core's Diagnose folds it into stuck-run dumps).
func (r *Ring) Dump(n int) string {
	tail := r.Tail(n)
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %d event(s) recorded, last %d:\n", r.Events(), len(tail))
	for _, e := range tail {
		b.WriteString("  ")
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
