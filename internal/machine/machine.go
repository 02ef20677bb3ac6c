// Package machine defines the shared-memory multiprocessor model of the
// paper (Section II-A) and provides its "real" implementation on top of
// goroutines and sync/atomic.
//
// The model consists of:
//
//   - Synchronization variables: shared integers manipulated only through
//     indivisible "test-and-op" instructions of the form
//     {test on x; operation on x}. The test compares the current value of
//     the variable with an integer supplied by the instruction; if it
//     succeeds, the operation is applied, and in either case the processor
//     receives a success/failure signal. These are a subset of the Cedar
//     synchronization instructions.
//
//   - Processors: asynchronous execution agents identified by a small
//     integer. The scheduler code is written against the Proc interface so
//     that the same code runs unchanged on the real engine (this package)
//     and on the deterministic virtual-time engine (package vmachine).
//
// Time is measured in abstract cost units ("cycles"); the real engine maps
// one unit to one nanosecond of busy work when configured to spin.
package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Time is a point in (virtual or real) time, and Cost a duration, both in
// abstract cycle units. On the real engine one unit is one nanosecond.
type Time = int64

// Test is the comparison part of a synchronization instruction.
type Test uint8

// Tests supported by the machine model, matching the paper's
// >, >=, <, <=, =, != and null tests.
const (
	TestNone Test = iota // null test: operation always executes
	TestLT
	TestLE
	TestGT
	TestGE
	TestEQ
	TestNE
)

var testNames = [...]string{
	TestNone: "null", TestLT: "<", TestLE: "<=", TestGT: ">",
	TestGE: ">=", TestEQ: "=", TestNE: "!=",
}

func (t Test) String() string {
	if int(t) < len(testNames) {
		return testNames[t]
	}
	return fmt.Sprintf("Test(%d)", uint8(t))
}

// Eval reports whether the test succeeds for current value v against
// operand c.
func (t Test) Eval(v, c int64) bool {
	switch t {
	case TestNone:
		return true
	case TestLT:
		return v < c
	case TestLE:
		return v <= c
	case TestGT:
		return v > c
	case TestGE:
		return v >= c
	case TestEQ:
		return v == c
	case TestNE:
		return v != c
	default:
		panic(fmt.Sprintf("machine: invalid test %d", uint8(t)))
	}
}

// OpKind is the operation part of a synchronization instruction.
type OpKind uint8

// Operations supported by the machine model. OpInc and OpDec are the
// special cases of fetch-and-add with k = 1 and k = -1; all operations
// return the original value of the variable.
const (
	OpFetch    OpKind = iota // read, no modification
	OpStore                  // write operand
	OpInc                    // add 1
	OpDec                    // subtract 1
	OpFetchAdd               // add operand
)

var opNames = [...]string{
	OpFetch: "Fetch", OpStore: "Store", OpInc: "Increment",
	OpDec: "Decrement", OpFetchAdd: "Fetch&Add",
}

func (o OpKind) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Apply returns the new value of a variable holding v after the operation
// with the given operand.
func (o OpKind) Apply(v, operand int64) int64 {
	switch o {
	case OpFetch:
		return v
	case OpStore:
		return operand
	case OpInc:
		return v + 1
	case OpDec:
		return v - 1
	case OpFetchAdd:
		return v + operand
	default:
		panic(fmt.Sprintf("machine: invalid op %d", uint8(o)))
	}
}

// Instr is one synchronization instruction: {Test vs TestVal; Op(Operand)}.
// For example the paper's {A < 100; Fetch(a)&add(3)} is
// Instr{Test: TestLT, TestVal: 100, Op: OpFetchAdd, Operand: 3}.
type Instr struct {
	Test    Test
	TestVal int64
	Op      OpKind
	Operand int64
}

func (in Instr) String() string {
	if in.Test == TestNone {
		return fmt.Sprintf("{%v(%d)}", in.Op, in.Operand)
	}
	return fmt.Sprintf("{x %v %d; %v(%d)}", in.Test, in.TestVal, in.Op, in.Operand)
}

// SyncVar is a synchronization variable: an integer in shared memory that
// may only be accessed through indivisible test-and-op instructions.
// Create with NewSyncVar, or embed by value and call Init.
//
// The value comes first and the struct is three words, so an owner that
// embeds several variables decides which of them share a cache line (the
// ICB puts index and icount on one). The debug name is interned: a
// per-variable string header would cost two of those words.
type SyncVar struct {
	v atomic.Int64
	// gen counts lifetimes of the storage. Reset bumps it so engines that
	// key per-variable state by identity (the virtual engine's module
	// availability, NUMA home and contention stats) treat a recycled
	// variable exactly like a freshly allocated one.
	gen atomic.Uint64
	// combining marks the variable as served by a software-combining
	// network (Section II-A reserves the mode): concurrent fetch-type
	// operations coalesce at the memory module, so the contention model
	// charges a batch of simultaneous accesses once instead of
	// serializing them. The real engine ignores the flag — a hardware
	// LOCK XADD already combines in the coherence fabric.
	combining atomic.Bool
	// name indexes the interned debug-name table.
	name uint32
}

// varNames interns debug names: variables are labelled from a small set
// (index, icount, pcount, SW, L(i).next, …), so the table stays tiny
// while every variable carries four bytes instead of a string header.
// Names are looked up where variables are created and by the virtual
// engine's contention profile, never on a claim path. Entry 0 is the
// empty name, so a zero SyncVar is unnamed.
var varNames = struct {
	sync.RWMutex
	ids  map[string]uint32
	text []string
}{ids: map[string]uint32{"": 0}, text: []string{""}}

func internName(name string) uint32 {
	varNames.RLock()
	id, ok := varNames.ids[name]
	varNames.RUnlock()
	if ok {
		return id
	}
	varNames.Lock()
	defer varNames.Unlock()
	if id, ok := varNames.ids[name]; ok {
		return id
	}
	id = uint32(len(varNames.text))
	varNames.text = append(varNames.text, name)
	varNames.ids[name] = id
	return id
}

// NewSyncVar returns a synchronization variable with the given debug name
// and initial value.
func NewSyncVar(name string, init int64) *SyncVar {
	s := &SyncVar{}
	s.Init(name, init)
	return s
}

// Init (re)labels the variable and stores its initial value without
// charging an access. It is for variables embedded by value in larger
// structures; it must not race with concurrent accessors.
func (s *SyncVar) Init(name string, init int64) {
	s.name = internName(name)
	s.v.Store(init)
}

// Reset stores a new initial value without charging an access and starts
// a new lifetime of the variable: identity-keyed engine state (module
// availability, NUMA home, contention stats) is dropped, as if the
// variable had just been allocated. It is the recycling hook of the ICB
// freelist and must only be called while the caller has exclusive
// ownership of the variable (e.g. after the paper's pcount release
// protocol has retired the instance).
func (s *SyncVar) Reset(init int64) {
	s.v.Store(init)
	s.gen.Add(1)
}

// Generation returns the variable's lifetime counter (see Reset).
func (s *SyncVar) Generation() uint64 { return s.gen.Load() }

// SetCombining marks or unmarks the variable as served by the machine's
// software-combining network. Combining is a property of the variable's
// placement, decided when the data structure owning it is built; like
// Init, it must not race with concurrent accessors.
func (s *SyncVar) SetCombining(on bool) { s.combining.Store(on) }

// Combining reports whether the variable is served by the combining
// network.
func (s *SyncVar) Combining() bool { return s.combining.Load() }

// Name returns the variable's debug name.
func (s *SyncVar) Name() string {
	varNames.RLock()
	defer varNames.RUnlock()
	return varNames.text[s.name]
}

// Exec indivisibly executes the instruction on behalf of processor p:
// it evaluates in.Test against the current value and, on success, applies
// in.Op. It returns the original value and whether the test succeeded.
// The access is charged to p (contention accounting on the virtual engine).
//
// A null-test Increment, Decrement or Fetch&Add is the paper's single
// indivisible fetch-and-add and executes as one atomic add; every other
// instruction — a conditional one must make its test and its operation
// one step — runs as a compare-and-swap retry loop.
func (s *SyncVar) Exec(p Proc, in Instr) (old int64, ok bool) {
	p.Access(s)
	if in.Test == TestNone {
		switch in.Op {
		case OpInc:
			return s.v.Add(1) - 1, true
		case OpDec:
			return s.v.Add(-1) + 1, true
		case OpFetchAdd:
			return s.v.Add(in.Operand) - in.Operand, true
		}
	}
	for {
		old = s.v.Load()
		if !in.Test.Eval(old, in.TestVal) {
			return old, false
		}
		nv := in.Op.Apply(old, in.Operand)
		if nv == old {
			// Pure read (or idempotent write): linearizes at the load.
			return old, true
		}
		if s.v.CompareAndSwap(old, nv) {
			return old, true
		}
	}
}

// Fetch reads the variable (a null-test Fetch instruction).
func (s *SyncVar) Fetch(p Proc) int64 {
	old, _ := s.Exec(p, Instr{Op: OpFetch})
	return old
}

// Store writes the variable (a null-test Store instruction).
func (s *SyncVar) Store(p Proc, v int64) {
	s.Exec(p, Instr{Op: OpStore, Operand: v})
}

// FetchInc performs Fetch-and-Increment, returning the original value.
func (s *SyncVar) FetchInc(p Proc) int64 {
	old, _ := s.Exec(p, Instr{Op: OpInc})
	return old
}

// FetchDec performs Fetch-and-Decrement, returning the original value.
func (s *SyncVar) FetchDec(p Proc) int64 {
	old, _ := s.Exec(p, Instr{Op: OpDec})
	return old
}

// FetchAdd performs Fetch-and-add(k), returning the original value.
func (s *SyncVar) FetchAdd(p Proc, k int64) int64 {
	old, _ := s.Exec(p, Instr{Op: OpFetchAdd, Operand: k})
	return old
}

// Peek reads the variable without charging a synchronization access.
// It is intended for tests and metrics, not for scheduler logic.
func (s *SyncVar) Peek() int64 { return s.v.Load() }

// Proc is one processor of the machine. Scheduler code receives a Proc and
// uses it for all time-consuming actions so that the virtual engine can
// account for them.
type Proc interface {
	// ID returns the processor number, 0..NumProcs()-1.
	ID() int
	// NumProcs returns the machine's processor count.
	NumProcs() int
	// Now returns the processor's current time.
	Now() Time
	// Work simulates useful (non-overhead) computation of the given cost.
	Work(cost Time)
	// Idle consumes time that is neither useful work nor synchronization
	// (e.g. a modeled operating-system dispatch); it counts against
	// utilization.
	Idle(cost Time)
	// Access accounts one synchronization-variable access, including any
	// serialization at the variable's memory module on the virtual engine.
	Access(v *SyncVar)
	// Spin backs off once inside a busy-wait loop.
	Spin()
}

// Engine runs a worker function on every processor of a machine.
type Engine interface {
	// NumProcs returns the processor count.
	NumProcs() int
	// Run executes worker concurrently on each processor and returns when
	// all have finished. It also returns a report of the run.
	Run(worker func(Proc)) RunReport
}

// RunReport summarizes one Engine.Run.
type RunReport struct {
	// Makespan is the total elapsed time of the run.
	Makespan Time
	// Busy is the per-processor total of Work costs.
	Busy []Time
	// Accesses is the per-processor count of synchronization accesses.
	Accesses []int64
	// Spins is the per-processor count of Spin calls.
	Spins []int64
}

// Utilization returns aggregate busy time divided by P * makespan,
// the empirical counterpart of the paper's eta (eq. 1).
func (r RunReport) Utilization() float64 {
	if r.Makespan <= 0 || len(r.Busy) == 0 {
		return 0
	}
	var busy int64
	for _, b := range r.Busy {
		busy += b
	}
	return float64(busy) / (float64(r.Makespan) * float64(len(r.Busy)))
}

// TotalBusy returns the sum of per-processor busy time.
func (r RunReport) TotalBusy() Time {
	var busy int64
	for _, b := range r.Busy {
		busy += b
	}
	return busy
}

// Imbalance returns max/mean of per-processor busy times (1.0 = perfectly
// balanced; 0 for empty or all-idle input).
func Imbalance(busy []Time) float64 {
	var sum, max Time
	for _, b := range busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(busy))
	return float64(max) / mean
}

// TotalAccesses returns the sum of per-processor synchronization accesses.
func (r RunReport) TotalAccesses() int64 {
	var n int64
	for _, a := range r.Accesses {
		n += a
	}
	return n
}
