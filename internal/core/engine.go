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
// its processors' clocks inside a hold: stride s means that one hold in
// every s (and a leaf's first on each processor) reads at its first claim,
// its tail chunks and one sampled chunk in every s, and every other hold
// at its edges alone (DESIGN §17). An engine without the method — the
// virtual one, where a read is free — gets s = 1: every phase boundary
// reads, and every interval is exact. The kernel asks once per run.
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

// inliner is an Engine's optional leave to run a tiny instance where it
// is activated: the activating worker runs all its iterations and its EXIT
// at once, without publishing it, when its leaf's body mean on the worker
// says the instance costs less than the SEARCH and activation publishing
// it would cost (worker.inlines, DESIGN §2). The rule rests on measured
// costs, so only an engine whose clock is the host's declares it — the
// real one; on the virtual engine every figure stays the paper's
// schedule. The kernel asks once per run.
type inliner interface {
	InlineInstances() bool
}

// inlines reports whether eng lets the kernel run tiny instances inline.
func inlines(eng Engine) bool {
	in, ok := eng.(inliner)
	return ok && in.InlineInstances()
}
