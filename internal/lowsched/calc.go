package lowsched

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/pool"
)

// This file is the seam between chunk arithmetic and synchronization.
//
// A scheme used to be one opaque object that both decided chunk sizes and
// issued the test-and-op instructions realizing the claim, which meant
// every new scheme re-implemented the claim protocol and could smuggle
// per-instance state into hidden mutable fields. Following the
// distributed-chunk-calculation observation (Eleliemy & Ciorba) that chunk
// calculation factors into a pure state-in/state-out function, the split
// here is:
//
//   - ChunkCalculator: pure arithmetic. Given an immutable cursor state
//     word and the instance bound, produce the next assignment and the
//     successor state. No machine access, no side effects, no storage.
//   - calcPolicy: the one shared claim protocol. It realizes any
//     calculator against the ICB's Index synchronization variable — a
//     single unconditional fetch-and-add when the calculator advances by
//     a fixed stride, a fetch + compare-and-store retry loop otherwise.
//   - Policy: what the execution kernel actually drives. Cursor schemes
//     reach it through Bind's calcPolicy wrapper; pre-assignment schemes
//     (static, affinity) implement it directly.
//
// Adding a scheme is therefore one file defining a calculator — the claim
// protocol, the kernel and both engines are untouched.

// ChunkCalculator is the pure chunk-size arithmetic of a self-scheduling
// scheme: a function from (cursor state, bound) to (assignment, next
// state). Implementations must be pure — deterministic, free of side
// effects and of machine access — so the same calculator drives every
// engine identically and can be unit-tested as plain arithmetic.
//
// The cursor state is an int64 whose encoding belongs to the calculator
// (a plain next-index for SS/CSS/GSS, a packed word for TSS/FSC). State 1
// must encode "nothing claimed yet": the cursor lives in the ICB's Index
// variable, whose initial value is 1.
type ChunkCalculator interface {
	// Name identifies the calculator, e.g. "GSS" or "CSS(4)".
	Name() string
	// Stride returns (k, true) when the calculator always advances the
	// cursor by the fixed stride k regardless of state (SS: 1, CSS: K).
	// The claim protocol then uses a single indivisible fetch-and-add
	// instead of a compare-and-store loop; failed claims advance the
	// cursor too, so any state past the bound must read as exhausted.
	Stride() (k int64, fixed bool)
	// Chunk maps cursor state s to the assignment it denotes and the
	// successor state. ok is false when s encodes an exhausted instance.
	// For fixed-stride calculators Chunk must agree with Stride:
	// next == s + k whenever ok.
	Chunk(s, bound int64) (a Assignment, next int64, ok bool)
}

// BoundValidator is an optional ChunkCalculator extension: calculators
// with packed-state or parameter constraints validate the instance bound
// at activation and panic on violation (a configuration error, not a
// runtime condition).
type BoundValidator interface {
	ValidateBound(bound int64)
}

// CalcScheme is a Scheme realized by a pure chunk calculator. Calculator
// binds the scheme's immutable parameters and the machine size once per
// run; the result must not retain mutable state.
type CalcScheme interface {
	Scheme
	Calculator(nprocs int) ChunkCalculator
}

// Policy is the claim-side realization of a scheme the execution kernel
// drives: per-instance initialization at activation and the indivisible
// claim of the next assignment. Implementations must be safe for
// concurrent use by multiple processors on multiple instances; all
// per-instance state lives on the ICB (the Index variable or the typed
// Sched attachment).
type Policy interface {
	// Name identifies the policy, e.g. "GSS" or "static-block".
	Name() string
	// Init prepares per-instance state. It is called exactly once per
	// instance (by the activating processor pr), after the ICB is created
	// or recycled and before it becomes visible to other processors.
	Init(pr machine.Proc, icb *pool.ICB)
	// Next assigns the next chunk of iterations of icb's instance to the
	// calling processor. ok reports whether any iterations remained; last
	// reports that the assignment contains the instance's final iteration
	// (its receiver must DELETE the ICB from the task pool, Algorithm 3).
	Next(pr machine.Proc, icb *pool.ICB) (a Assignment, ok, last bool)
}

// Lease is a claimed run of up to batch successive chunks, acquired with
// one synchronization operation (Leaser.Lease) and sliced locally by the
// holding worker: Slice re-derives each chunk from the pure calculator
// with no machine access, so the per-chunk claim traffic of the classic
// protocol is paid once per lease. This is the distributed-chunk-
// calculation idea (Eleliemy & Ciorba) applied node-locally — and the
// seam a future distributed pool's remote claims build on (a remote
// claim is just a large lease).
type Lease struct {
	calc   ChunkCalculator
	s      int64 // cursor of the next unconsumed slice
	bound  int64
	n      int   // slices remaining
	lo, hi int64 // iteration range covered by the whole lease
}

// Len returns the number of chunks the lease covered at claim time.
func (l *Lease) Len() int { return l.n }

// Lo returns the first iteration covered by the lease.
func (l *Lease) Lo() int64 { return l.lo }

// Hi returns the last iteration covered by the lease.
func (l *Lease) Hi() int64 { return l.hi }

// Slice yields the lease's next chunk, advancing the local cursor. ok is
// false when the lease is consumed. Slicing is pure local arithmetic.
func (l *Lease) Slice() (Assignment, bool) {
	if l.n <= 0 {
		return Assignment{}, false
	}
	a, next, ok := l.calc.Chunk(l.s, l.bound)
	if !ok {
		l.n = 0
		return Assignment{}, false
	}
	l.s = next
	l.n--
	return a, true
}

// Remaining returns the unconsumed tail of the lease as one contiguous
// range, without advancing the cursor; ok is false when the lease is
// consumed. A checkpointing host records this as the leased-but-
// unexecuted remainder.
func (l *Lease) Remaining() (Assignment, bool) {
	if l.n <= 0 {
		return Assignment{}, false
	}
	a, _, ok := l.calc.Chunk(l.s, l.bound)
	if !ok {
		return Assignment{}, false
	}
	return Assignment{Lo: a.Lo, Hi: l.hi}, true
}

// Leaser is the batched-claiming extension of Policy: one
// synchronization operation acquires up to batch successive chunks. ok
// and last mean what they do for Policy.Next, applied to the whole
// lease; a true last obliges the caller to DELETE the ICB, exactly as
// for a final chunk. Implementations must guarantee that a lease with
// batch 1 issues the same instruction sequence as Policy.Next — batching
// off must be bit-identical to the classic protocol.
type Leaser interface {
	Lease(pr machine.Proc, icb *pool.ICB, batch int) (l Lease, ok, last bool)
}

// BatchBinder is an optional Policy extension: policies that model claim
// overhead (the adaptive fitter) are told the run's claim batch factor
// once at bind time, before any worker starts.
type BatchBinder interface {
	BindBatch(batch int)
}

// Bind resolves a Scheme into the Policy the kernel drives, fixing the
// machine size. It is called once per run (not per instance or claim), so
// the hot claim path pays no construction or conversion cost.
func Bind(s Scheme, nprocs int) Policy {
	if nprocs < 1 {
		panic(fmt.Sprintf("lowsched: bind with %d processors", nprocs))
	}
	switch sc := s.(type) {
	case CalcScheme:
		c := sc.Calculator(nprocs)
		k, fixed := c.Stride()
		if fixed && (k < 1 || k > MaxClaimAdd) {
			panic(fmt.Sprintf("lowsched: calculator %s has fixed stride %d outside [1,%d]", c.Name(), k, MaxClaimAdd))
		}
		return calcPolicy{calc: c, stride: k, fixed: fixed}
	case PolicyScheme:
		return sc.NewPolicy(nprocs)
	case Policy:
		return sc
	}
	panic(fmt.Sprintf("lowsched: scheme %s implements none of CalcScheme, PolicyScheme, Policy", s.Name()))
}

// calcPolicy is the shared claim protocol: it realizes a pure calculator
// against the ICB's Index variable with the paper's test-and-op
// instructions. All cursor state lives in Index (initial value 1), so a
// recycled ICB is reset by Index.Reset alone and cannot leak chunk
// progress between instances.
type calcPolicy struct {
	calc   ChunkCalculator
	stride int64
	fixed  bool
}

// Name returns the calculator's name.
func (c calcPolicy) Name() string { return c.calc.Name() }

// Init validates the bound when the calculator requires it; the cursor
// itself needs no initialization (Index starts at state 1).
func (c calcPolicy) Init(pr machine.Proc, icb *pool.ICB) {
	if v, ok := c.calc.(BoundValidator); ok {
		v.ValidateBound(icb.Bound)
	}
}

// Next claims the next assignment. Fixed-stride calculators issue the
// paper's fetch-and-add with a null test — one indivisible instruction on
// either engine — and test the returned cursor against the bound
// themselves: the cursor only ever grows and is only ever compared with
// the bound, so the strides failed claims add past it are invisible (any
// state beyond the bound is the exhausted state). State-dependent
// calculators use a fetch + compare-and-store retry loop (the
// conditional-store realization of the read-modify-write they require —
// the extra traffic is part of such schemes' measured overhead).
func (c calcPolicy) Next(pr machine.Proc, icb *pool.ICB) (Assignment, bool, bool) {
	if c.fixed {
		j := icb.Index.FetchAdd(pr, c.stride)
		if j > icb.Bound {
			return Assignment{}, false, false
		}
		a, _, _ := c.calc.Chunk(j, icb.Bound)
		return a, true, a.Hi == icb.Bound
	}
	for {
		s := icb.Index.Fetch(pr)
		a, next, ok := c.calc.Chunk(s, icb.Bound)
		if !ok {
			return Assignment{}, false, false
		}
		if _, ok := icb.Index.Exec(pr, machine.Instr{
			Test: machine.TestEQ, TestVal: s, Op: machine.OpStore, Operand: next,
		}); ok {
			return a, true, a.Hi == icb.Bound
		}
		pr.Spin() // lost the race; recompute from the new state
	}
}

// Lease implements Leaser: claim up to batch successive chunks with the
// same one-operation protocols Next uses. Fixed-stride calculators
// advance the cursor by batch strides in a single indivisible
// Fetch&add(k*batch) — with batch 1 this is exactly Next's instruction.
// State-dependent calculators apply Chunk batch times locally (pure
// arithmetic, no machine access) and publish the final cursor with one
// compare-and-store, retrying from the new state on a lost race — again
// exactly Next's traffic at batch 1.
func (c calcPolicy) Lease(pr machine.Proc, icb *pool.ICB, batch int) (Lease, bool, bool) {
	if batch < 1 {
		batch = 1
	}
	if c.fixed {
		add := claimAdd(c.stride, batch)
		j := icb.Index.FetchAdd(pr, add)
		if j > icb.Bound {
			return Lease{}, false, false
		}
		// Chunks whose cursor stayed within the bound are ours; the
		// overshoot past the bound leases nothing (later claimers read a
		// cursor past the bound, exactly as after a final unit claim).
		n := int((min(j+add-1, icb.Bound)-j)/c.stride) + 1
		first, _, _ := c.calc.Chunk(j, icb.Bound)
		lastA, _, _ := c.calc.Chunk(j+int64(n-1)*c.stride, icb.Bound)
		l := Lease{calc: c.calc, s: j, bound: icb.Bound, n: n, lo: first.Lo, hi: lastA.Hi}
		return l, true, l.hi == icb.Bound
	}
	for {
		s0 := icb.Index.Fetch(pr)
		s, n := s0, 0
		var lo, hi int64
		for n < batch {
			a, next, ok := c.calc.Chunk(s, icb.Bound)
			if !ok {
				break
			}
			if n == 0 {
				lo = a.Lo
			}
			hi = a.Hi
			s = next
			n++
		}
		if n == 0 {
			return Lease{}, false, false
		}
		if _, ok := icb.Index.Exec(pr, machine.Instr{
			Test: machine.TestEQ, TestVal: s0, Op: machine.OpStore, Operand: s,
		}); ok {
			l := Lease{calc: c.calc, s: s0, bound: icb.Bound, n: n, lo: lo, hi: hi}
			return l, true, hi == icb.Bound
		}
		pr.Spin() // lost the race; recompute from the new state
	}
}

// MaxClaimAdd bounds what one fixed-stride claim adds to the cursor
// (stride × batch). A failed claim adds it too, so the bound is what keeps
// an exhausted instance's cursor from wrapping back under its bound: 2^31
// failed claims of the largest add still fit an int64.
const MaxClaimAdd int64 = 1 << 32

// claimAdd is the cursor advance of one fixed-stride claim of batch >= 1
// chunks, with the batch clamped so the advance stays within MaxClaimAdd.
func claimAdd(stride int64, batch int) int64 {
	if int64(batch) > MaxClaimAdd/stride {
		return MaxClaimAdd / stride * stride
	}
	return stride * int64(batch)
}
