// Package flight implements the kernel flight recorder: a fixed-size,
// per-processor ring buffer of scheduling events (instance activation,
// chunk claims and completions, icount posts, instance exits, barrier
// completions, hold switches) the execution kernel appends to as it drives the
// paper's algorithms. It is the forensic counterpart of core.Tracer —
// where a tracer streams every event to an observer, the recorder keeps
// only the last writes per processor, cheaply enough to leave on in a
// serving daemon, so a stuck-run diagnostic can ship the tail of what
// the scheduler actually did.
//
// Design constraints, in order:
//
//   - Zero cost when disabled: the kernel guards every Record call with
//     one nil test on a cached per-worker ring pointer. The benchmark
//     suite enforces that a recorder-less run stays bit-identical to
//     the committed baseline.
//   - Allocation-free when enabled: events are fixed-size structs stored
//     by value into a preallocated buffer; Record never allocates
//     (flight_test.go pins this with testing.AllocsPerRun).
//   - Host-side: recording charges no machine time and touches no
//     costed synchronization variable, so enabling the recorder cannot
//     change a virtual-time schedule.
//
// Each processor owns one ring (single writer), so the hot path never
// contends with other recorders; the per-ring mutex exists only to make
// concurrent tail reads (a watchdog diagnosing a live run) race-free,
// and is effectively uncontended.
package flight

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind identifies a scheduling event.
type Kind uint8

// Event kinds. The A/B payload fields are kind-specific; see Event.
const (
	// Begin: an instance was activated (ICB created and appended).
	// A = bound, B = first enclosing index (0 at the outermost level).
	Begin Kind = 1 + iota
	// Claim: a chunk of iterations was claimed. A = lo, B = hi.
	Claim
	// Chunk: a claimed chunk (or a slice of a lease) finished executing,
	// stamped with the body's end. A = lo, B = hi. The iterations are
	// complete but not yet counted: icount moves at the processor's Post.
	Chunk
	// Exit: an instance completed (its final iteration finished and the
	// EXIT walk ran). A = bound, B = first enclosing index.
	Exit
	// Barrier: a BAR_COUNT barrier filled — the whole enclosing parallel
	// loop finished. Loop is the structural loop's ID. A = bound.
	Barrier
	// Switch: a processor dropped an exhausted hold to SEARCH for new
	// work ({pcount Decrement} on an instance with nothing left).
	Switch
	// Post: a processor added the iterations it had executed since its
	// previous post to the instance's icount — when it stopped claiming
	// from the instance, paused, or near the instance's tail. A = the
	// iterations posted, B = icount after the post (== the Begin record's
	// bound on the post that completes the instance).
	Post
)

var kindNames = [...]string{
	Begin: "begin", Claim: "claim", Chunk: "chunk",
	Exit: "exit", Barrier: "barrier", Switch: "switch", Post: "post",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded scheduling event. At is engine time (virtual
// units on the simulator, nanoseconds on the real engines); Seq orders
// events of one processor (engine time alone may tie).
type Event struct {
	At   int64
	Seq  uint64
	Kind Kind
	Proc int32
	Loop int32
	A, B int64
}

// String renders the event in the dump format of Recorder.Dump.
func (e Event) String() string {
	switch e.Kind {
	case Begin, Exit:
		return fmt.Sprintf("t=%-8d p%-2d %-7s loop %d bound %d", e.At, e.Proc, e.Kind, e.Loop, e.A)
	case Claim, Chunk:
		return fmt.Sprintf("t=%-8d p%-2d %-7s loop %d [%d,%d]", e.At, e.Proc, e.Kind, e.Loop, e.A, e.B)
	case Post:
		return fmt.Sprintf("t=%-8d p%-2d %-7s loop %d +%d icount %d", e.At, e.Proc, e.Kind, e.Loop, e.A, e.B)
	case Barrier:
		return fmt.Sprintf("t=%-8d p%-2d %-7s loop %d bound %d", e.At, e.Proc, e.Kind, e.Loop, e.A)
	default:
		return fmt.Sprintf("t=%-8d p%-2d %-7s loop %d", e.At, e.Proc, e.Kind, e.Loop)
	}
}

// Ring is one processor's event ring. Exactly one goroutine (the owning
// processor) may call Record; Tail readers may run concurrently with it.
type Ring struct {
	mu  sync.Mutex
	buf []Event
	seq uint64 // events ever recorded; buf[(seq-1)%len] is the newest
	// pad keeps adjacent rings in the Recorder's slice from sharing a
	// cache line (Record writes mu and seq on every event).
	_ [64]byte
}

// Record appends one event. It never allocates; the oldest event is
// overwritten once the ring is full.
func (g *Ring) Record(at int64, k Kind, proc, loop int32, a, b int64) {
	g.mu.Lock()
	g.buf[g.seq%uint64(len(g.buf))] = Event{
		At: at, Seq: g.seq, Kind: k, Proc: proc, Loop: loop, A: a, B: b,
	}
	g.seq++
	g.mu.Unlock()
}

// snapshot appends the ring's retained events (oldest first) to dst.
func (g *Ring) snapshot(dst []Event) []Event {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.seq
	cap64 := uint64(len(g.buf))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	for i := start; i < n; i++ {
		dst = append(dst, g.buf[i%cap64])
	}
	return dst
}

// Recorder is a set of per-processor rings covering one run.
type Recorder struct {
	rings []*Ring
}

// New returns a recorder for nprocs processors retaining up to perProc
// events each. perProc below 1 is raised to 1.
func New(nprocs, perProc int) *Recorder {
	if nprocs < 1 {
		panic(fmt.Sprintf("flight: recorder for %d processors", nprocs))
	}
	if perProc < 1 {
		perProc = 1
	}
	r := &Recorder{rings: make([]*Ring, nprocs)}
	for i := range r.rings {
		r.rings[i] = &Ring{buf: make([]Event, perProc)}
	}
	return r
}

// Ring returns processor proc's ring; the kernel caches the pointer per
// worker so the hot path pays one nil test when recording is off.
func (r *Recorder) Ring(proc int) *Ring { return r.rings[proc] }

// Procs returns the number of processors the recorder covers.
func (r *Recorder) Procs() int { return len(r.rings) }

// Events returns the total number of events ever recorded (including
// overwritten ones).
func (r *Recorder) Events() uint64 {
	var n uint64
	for _, g := range r.rings {
		g.mu.Lock()
		n += g.seq
		g.mu.Unlock()
	}
	return n
}

// Tail merges the rings and returns the last n events in global order
// (by engine time, ties broken by processor then sequence). n <= 0
// returns everything retained. Safe to call while the run is in flight.
func (r *Recorder) Tail(n int) []Event {
	var all []Event
	for _, g := range r.rings {
		all = g.snapshot(all)
	}
	sort.Slice(all, func(i, k int) bool {
		a, b := all[i], all[k]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Seq < b.Seq
	})
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Dump renders the merged tail of the last n events, one per line, for
// diagnostic reports (core.Diagnoser folds this into stuck-run dumps).
func (r *Recorder) Dump(n int) string {
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
