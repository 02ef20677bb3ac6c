package core

import "repro/internal/machine"

// Engine is the kernel's view of the machine it drives: a processor
// count and a way to run one worker function on every processor. It is
// the narrow seam between the engine-agnostic execution kernel (this
// package) and the engine implementations — machine.Real (goroutines,
// wall-clock time) and vmachine.Engine (deterministic virtual time) both
// satisfy it, and the conformance suite in internal/enginetest holds any
// implementation to the kernel's expectations: every processor observes
// preemption points, time is monotone per processor, and Run returns
// only after every worker has drained.
//
// The method set deliberately matches machine.Engine, so existing engine
// constructors assign without adaptation; the kernel depends only on
// this interface.
type Engine interface {
	// NumProcs returns the processor count.
	NumProcs() int
	// Run executes worker once per processor and blocks until all have
	// returned.
	Run(worker func(machine.Proc)) machine.RunReport
}

// clockStrider is an Engine's optional say in how often the kernel reads
// its processors' clocks inside a hold: stride s means one sampled chunk
// in every s, besides the hold's edges, its first claim and its tail
// chunks (DESIGN §17). An engine without the method — the virtual one,
// where a read is free — gets s = 1: every phase boundary reads, and
// every interval is exact. The kernel asks once per run.
type clockStrider interface {
	ClockStride() int
}

// clockStride is eng's clock stride, at least 1.
func clockStride(eng Engine) int {
	if cs, ok := eng.(clockStrider); ok {
		return max(cs.ClockStride(), 1)
	}
	return 1
}
