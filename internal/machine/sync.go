package machine

import (
	"fmt"
	"unsafe"
)

// This file builds the classical synchronization abstractions used by the
// scheduling algorithms out of raw test-and-op instructions, exactly as the
// paper sketches them in Section II-A: a counting semaphore via
// {S > 0; Decrement} / {S; Increment}, a spin lock as a binary semaphore
// (the paper's per-list locks L(i) use the test {L(i) = 1; Decrement}),
// and a one-shot barrier via fetch-and-increment on an arrival counter.

// Semaphore is a counting semaphore built on a synchronization variable.
type Semaphore struct {
	s *SyncVar
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(name string, init int64) *Semaphore {
	return &Semaphore{s: NewSyncVar(name, init)}
}

// P performs the P (wait) operation: it spins until it succeeds in
// decrementing a positive count, as in the paper:
//
//	again: {(S > 0); Decrement};
//	       if (failure) goto again;
func (m *Semaphore) P(p Proc) {
	in := Instr{Test: TestGT, TestVal: 0, Op: OpDec}
	for {
		if _, ok := m.s.Exec(p, in); ok {
			return
		}
		p.Spin()
	}
}

// TryP attempts the P operation once without spinning and reports success.
func (m *Semaphore) TryP(p Proc) bool {
	_, ok := m.s.Exec(p, Instr{Test: TestGT, TestVal: 0, Op: OpDec})
	return ok
}

// V performs the V (signal) operation: {S; Increment} with a null test.
func (m *Semaphore) V(p Proc) {
	m.s.Exec(p, Instr{Op: OpInc})
}

// Value returns the current count without charging an access (testing only).
func (m *Semaphore) Value() int64 { return m.s.Peek() }

// SpinLock is a fair (ticket) spin lock built from two synchronization
// variables: acquisition takes a ticket with fetch-and-increment and spins
// until the serving counter reaches it; release increments serving.
//
// The paper's per-list lock L(i) is a plain test-and-decrement lock
// ({L(i) = 1; Decrement} / {L(i); Increment}). That lock admits unbounded
// starvation: a processor blocked in DELETE can lose the lock forever to a
// stream of SEARCHing processors, and under the deterministic virtual
// machine such adversarial timing patterns actually persist (they are a
// measure-zero coincidence on real hardware but a reproducible livelock in
// simulation). The ticket lock is the standard starvation-free variant and
// preserves the paper's cost profile: one fetch-and-add to acquire plus a
// bounded spin, one store-class operation to release.
//
// Both words of a lock share one 64-byte cache line and nothing else
// does: every operation on the lock touches both, and 64 bytes is a size
// class whose blocks start on a line boundary, so the ticket words of
// neighbouring locks never share a line.
type SpinLock struct {
	next    SyncVar
	serving SyncVar
	_       [64 - 2*unsafe.Sizeof(SyncVar{})]byte
}

// NewSpinLock returns an unlocked spin lock.
func NewSpinLock(name string) *SpinLock {
	l := new(SpinLock)
	l.next.Init(Intern(name+".next"), 0)
	l.serving.Init(Intern(name+".serving"), 0)
	return l
}

// Lock spins until the lock is acquired. Acquisition is FIFO-fair.
func (l *SpinLock) Lock(p Proc) {
	t := l.next.FetchInc(p)
	in := Instr{Test: TestEQ, TestVal: t, Op: OpFetch}
	for {
		if _, ok := l.serving.Exec(p, in); ok {
			return
		}
		p.Spin()
	}
}

// TryLock attempts to acquire the lock once and reports success: it takes
// a ticket only if the lock is currently free ({next = serving; Increment}
// on the ticket counter, with the test made against the serving value).
func (l *SpinLock) TryLock(p Proc) bool {
	cur := l.serving.Fetch(p)
	_, ok := l.next.Exec(p, Instr{Test: TestEQ, TestVal: cur, Op: OpInc})
	return ok
}

// Unlock releases the lock by admitting the next ticket holder. Unpaired
// releases are a scheduler bug and panic.
func (l *SpinLock) Unlock(p Proc) {
	old, _ := l.serving.Exec(p, Instr{Op: OpInc})
	if old >= l.next.Peek() {
		panic(fmt.Sprintf("machine: unlock of unheld lock %s", l.serving.Name()))
	}
}

// Locked reports whether the lock is currently held (testing only).
func (l *SpinLock) Locked() bool { return l.serving.Peek() != l.next.Peek() }

// Barrier is a one-shot spin barrier for n participants.
type Barrier struct {
	n     int64
	count *SyncVar
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(name string, n int) *Barrier {
	return &Barrier{n: int64(n), count: NewSyncVar(name, 0)}
}

// Await signals arrival and spins until all n participants have arrived.
func (b *Barrier) Await(p Proc) {
	b.count.FetchInc(p)
	for b.count.Fetch(p) < b.n {
		p.Spin()
	}
}

// Arrived returns the number of participants that have arrived
// (testing only).
func (b *Barrier) Arrived() int64 { return b.count.Peek() }
