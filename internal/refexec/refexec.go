// Package refexec executes a standardized loop nest sequentially and
// records exactly which instances of which innermost parallel loops run,
// with which index vectors and bounds.
//
// The recording is the ground truth the two-level scheduler is verified
// against: a correct parallel execution must (a) execute the same multiset
// of instances, (b) execute every iteration 1..bound of each instance
// exactly once, and (c) respect the macro-dataflow precedence that the
// sequential order witnesses.
package refexec

import (
	"fmt"

	"repro/internal/loopir"
)

// Instance is one activation of an innermost parallel loop: the leaf, the
// index vector of its enclosing loops, and its bound evaluated at
// activation time.
type Instance struct {
	Leaf  *loopir.Node
	IVec  loopir.IVec
	Bound int64
}

// Key returns a canonical string identity, e.g. "B(1,2)", used for
// multiset comparison between executions.
func (in Instance) Key() string {
	return in.Leaf.Label + in.IVec.String()
}

func (in Instance) String() string {
	return fmt.Sprintf("%s bound=%d", in.Key(), in.Bound)
}

// Result is the recording of one sequential execution.
type Result struct {
	// Instances in sequential execution order.
	Instances []Instance
	// TotalWork is the sum of Env.Work costs over all iterations.
	TotalWork int64
	// Iterations is the total number of leaf iterations executed.
	Iterations int64
}

// Keys returns the multiset of instance keys as a count map.
func (r *Result) Keys() map[string]int {
	m := make(map[string]int, len(r.Instances))
	for _, in := range r.Instances {
		m[in.Key()]++
	}
	return m
}

// env is the sequential execution environment. Run walks the nest twice:
// a counting walk evaluates bounds and conditions only, so the recording
// walk, which runs the bodies, appends into one slice and carves index
// vectors from one slab, both allocated at their final size.
type env struct {
	r     *Result
	count bool // the counting walk: no bodies, no recording
	n     int  // instances met
	words int  // index-vector words they carry
	insts []Instance
	slab  []int64 // unused tail of the vector slab
}

func (e *env) Work(c int64)  { e.r.TotalWork += c }
func (e *env) Proc() int     { return 0 }
func (e *env) NumProcs() int { return 1 }
func (e *env) AwaitDep()     {}
func (e *env) PostDep()      {}

// record appends an instance of leaf at index vector iv, copying iv into
// the slab: the running vector is one buffer, rewritten as loops advance.
func (e *env) record(leaf *loopir.Node, iv loopir.IVec, bound int64) {
	n := len(iv)
	if len(e.slab) < n {
		// Only a nest whose bounds or conditions answer the two walks
		// differently gets here.
		e.slab = make([]int64, max(n, 64))
	}
	v := e.slab[:n:n] // capped: appending to a recorded vector cannot reach the next one
	e.slab = e.slab[n:]
	copy(v, iv)
	e.insts = append(e.insts, Instance{Leaf: leaf, IVec: v, Bound: bound})
}

// Run executes the nest sequentially. The nest must be standardized.
// Iteration bodies, bounds and conditions see the running index vector,
// which is rewritten as the loops advance: like the scheduler's, it is
// valid only for the duration of the call. Bounds and conditions are
// evaluated twice, bodies once.
func Run(nest *loopir.Nest) (*Result, error) {
	if !nest.Standardized {
		return nil, fmt.Errorf("refexec: nest is not standardized")
	}
	c := &env{r: &Result{}, count: true}
	c.exec(nest.Root, make(loopir.IVec, 0, 8))
	r := &Result{}
	e := &env{r: r, insts: make([]Instance, 0, c.n), slab: make([]int64, c.words)}
	e.exec(nest.Root, make(loopir.IVec, 0, 8))
	r.Instances = e.insts
	return r, nil
}

// exec runs nodes at index vector iv; a loop extends iv in place by its
// own index, so iv's backing array is shared down the recursion.
func (e *env) exec(nodes []*loopir.Node, iv loopir.IVec) {
	for _, nd := range nodes {
		switch nd.Kind {
		case loopir.KindDoall, loopir.KindDoacross:
			if nd.IsLeaf() {
				b := nd.Bound.Eval(iv)
				if e.count {
					e.n++
					e.words += len(iv)
					continue
				}
				e.record(nd, iv, b)
				for j := int64(1); j <= b; j++ {
					nd.Iter(e, iv, j)
					e.r.Iterations++
				}
				continue
			}
			// Structural parallel loop: execute iterations in index order
			// (a legal serialization of the parallel semantics).
			e.loop(nd, iv)
		case loopir.KindSerial:
			e.loop(nd, iv)
		case loopir.KindIf:
			if nd.Cond(iv) {
				e.exec(nd.Then, iv)
			} else {
				e.exec(nd.Else, iv)
			}
		case loopir.KindStmt:
			// Standardization folds statements into leaves; reaching one
			// here means the nest was not standardized.
			panic(fmt.Sprintf("refexec: bare statement %q in standardized nest", nd.Label))
		}
	}
}

// loop runs a structural loop's body once per index, in index order.
func (e *env) loop(nd *loopir.Node, iv loopir.IVec) {
	b := nd.Bound.Eval(iv)
	inner := append(iv, 0)
	for k := int64(1); k <= b; k++ {
		inner[len(iv)] = k
		e.exec(nd.Body, inner)
	}
}
