// Package des is a minimal deterministic discrete-event simulation core.
//
// A Sim runs a set of processes over virtual time. Each process is a
// coroutine (iter.Pull), and execution is strictly sequential: exactly one
// process runs at a time — the one with the smallest (wake-up time, FIFO
// sequence) pair — until it advances its clock past another process's
// wake-up time. Consequently:
//
//   - Runs are fully deterministic: same inputs, same event order.
//   - Shared Go data structures accessed between Advance calls are
//     effectively atomic in virtual time (no two processes run
//     concurrently), and every coroutine switch is a happens-before edge,
//     so the race detector is satisfied.
//
// The process that advances decides the next event itself (AdvanceTo): a
// process that is still strictly the earliest keeps running with no switch
// at all; otherwise it queues itself and Run resumes the queue's minimum.
//
// Processes must block only via Advance/AdvanceTo (or by returning), and
// must call them on the goroutine their function was started on. A process
// that blocked on anything else would stall the whole simulation; because
// execution is sequential, ordinary mutexes are always uncontended and
// therefore safe.
package des

import (
	"fmt"
	"iter"
)

// Time is virtual time in abstract cycle units.
type Time = int64

// Sim is a deterministic discrete-event simulator. Create with New, add
// processes with Spawn, then call Run.
type Sim struct {
	pq      []event // binary min-heap on (at, seq)
	seq     int64
	procs   []*Process
	started bool
	maxTime Time
}

// New returns an empty simulator.
func New() *Sim {
	return &Sim{}
}

// Process is a handle held by a simulated process; all virtual-time
// operations go through it.
type Process struct {
	id  int
	sim *Sim
	now Time
	fn  func(p *Process)
	// next and stop are the coroutine's handles, created when Run first
	// resumes the process; yield suspends the coroutine from inside.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// ID returns the identifier given to Spawn.
func (p *Process) ID() int { return p.id }

// Now returns the process's current virtual time.
func (p *Process) Now() Time { return p.now }

// Advance blocks the process for d units of virtual time. d must be >= 0;
// Advance(0) yields the processor at the current instant (other processes
// scheduled at the same time run first, in FIFO order).
func (p *Process) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative advance %d", d))
	}
	p.AdvanceTo(p.now + d)
}

// AdvanceTo blocks the process until virtual time t. If t is in the past,
// it behaves like Advance(0).
func (p *Process) AdvanceTo(t Time) {
	if t < p.now {
		t = p.now
	}
	s := p.sim
	if len(s.pq) == 0 || t < s.pq[0].at {
		// Still strictly the earliest: queueing p would only pop it
		// straight back. A tie goes to the queued entry — it is older.
		p.now = t
		if t > s.maxTime {
			s.maxTime = t
		}
		return
	}
	s.push(t, p)
	if !p.yield(struct{}{}) {
		// Run is unwinding another process's panic and has stopped
		// this coroutine: leave fn without running any more of it.
		panic(stopped{})
	}
}

// stopped is the panic value that unwinds a process Run has abandoned.
type stopped struct{}

// body is the coroutine function of p.
func (p *Process) body(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopped); !ok {
				panic(r)
			}
		}
	}()
	p.fn(p)
}

// Spawn registers a new process that will run fn starting at virtual time
// start. It must be called before Run.
func (s *Sim) Spawn(id int, start Time, fn func(p *Process)) *Process {
	if s.started {
		panic("des: Spawn after Run")
	}
	p := &Process{id: id, sim: s, fn: fn}
	s.procs = append(s.procs, p)
	s.push(start, p)
	return p
}

// Run drives the simulation on the caller's goroutine until every process
// has finished, and returns the final virtual time (the makespan). It must
// be called exactly once, after all Spawn calls.
//
// A panic in a process is re-raised by Run, with the same value, on the
// caller's goroutine. Before Run returns or panics, every process it
// started has ended: the unfinished ones are unwound (their deferred calls
// run) without executing further, so no coroutine outlives Run.
func (s *Sim) Run() Time {
	if s.started {
		panic("des: Run called twice")
	}
	s.started = true
	defer s.abandon()
	for len(s.pq) > 0 {
		ev := s.pop()
		if ev.at > s.maxTime {
			s.maxTime = ev.at
		}
		p := ev.p
		p.now = ev.at
		if p.next == nil {
			p.next, p.stop = iter.Pull(p.body)
		}
		p.next()
	}
	return s.maxTime
}

// abandon stops every coroutine Run started. Stopping a finished one does
// nothing; one is still suspended only when Run is unwinding a process's
// panic. A panic raised by a process's deferred calls while it unwinds is
// dropped: the first panic is the one Run reports.
func (s *Sim) abandon() {
	for _, p := range s.procs {
		if p.stop != nil {
			func() {
				defer func() { _ = recover() }()
				p.stop()
			}()
		}
	}
}

type event struct {
	at  Time
	seq int64
	p   *Process
}

func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Sim) push(at Time, p *Process) {
	s.seq++
	ev := event{at: at, seq: s.seq, p: p}
	h := append(s.pq, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	s.pq = h
}

func (s *Sim) pop() event {
	h := s.pq
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the *Process reference
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	s.pq = h
	return top
}
