package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/pool"
)

// recycleBatch is B, the number of retired ICBs that move between a
// worker's freelist and the run's depot at once: a worker whose list
// passes 2·B hands B to the depot, and a worker whose list is empty when
// it activates takes up to B back. The depot's lock is taken once per B
// blocks.
const recycleBatch = 32

// depot is the run-wide half of ICB recycling. The paper's pcount release
// makes a retired block reusable by any processor, but a worker's own
// freelist only serves the worker that retired the block — and when one
// processor activates a loop's instances while the others complete them,
// those roles never meet. The depot is where they do. It lives on the
// executor and never outlives the run: a block carries run-scoped state
// (its scheme attachments).
//
// Determinism on the virtual engine is untouched: the engine runs one
// processor at a time, so the depot is touched in the same order on every
// run, and the engine keys every variable's state by {variable,
// generation}, so a recycled block costs the same virtual time as a
// fresh one.
type depot struct {
	mu      sync.Mutex
	retired pool.Retired
	// n mirrors retired.Len() for the lock-free emptiness test of an
	// activation that finds its own freelist empty.
	n atomic.Int64
}

// retire puts a block whose release protocol has drained onto the
// worker's freelist, handing B blocks on to the depot when the list
// passes 2·B.
func (w *worker) retire(icb *pool.ICB) {
	w.free.Push(icb)
	if w.free.Len() <= 2*recycleBatch {
		return
	}
	d := &w.ex.depot
	d.mu.Lock()
	for i := 0; i < recycleBatch; i++ {
		d.retired.Push(w.free.Pop())
	}
	d.n.Store(int64(d.retired.Len()))
	d.mu.Unlock()
}

// recycled returns a retired block for the worker's next activation, or
// nil when neither its freelist nor the depot holds one.
func (w *worker) recycled() *pool.ICB {
	if w.free.Len() == 0 {
		d := &w.ex.depot
		if d.n.Load() == 0 {
			return nil
		}
		d.mu.Lock()
		for i := 0; i < recycleBatch && d.retired.Len() > 0; i++ {
			w.free.Push(d.retired.Pop())
		}
		d.n.Store(int64(d.retired.Len()))
		d.mu.Unlock()
	}
	return w.free.Pop()
}
