package enginetest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/vmachine"
)

// TestVirtualEngineConformance holds the discrete-event simulator to the
// kernel's Engine contract.
func TestVirtualEngineConformance(t *testing.T) {
	Run(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestRealEngineConformance holds the goroutine-backed engine to the same
// contract; run with -race to check its memory ordering too.
func TestRealEngineConformance(t *testing.T) {
	Run(t, "real", func(p int, intr *machine.Interrupt) core.Engine {
		return machine.NewReal(machine.RealConfig{P: p, Mode: machine.WorkCount, Interrupt: intr})
	})
}

// TestVirtualEngineCheckpointResume holds the simulator to the resume
// bit-identity contract: checkpoint at chunk k, resume, and land on
// exactly the uninterrupted run's iteration multiset and totals.
func TestVirtualEngineCheckpointResume(t *testing.T) {
	CheckpointResume(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestVirtualEngineBatchedClaims holds the simulator to the batched
// claim protocol: leases slice locally, execution stays exactly-once.
func TestVirtualEngineBatchedClaims(t *testing.T) {
	BatchedClaims(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestRealEngineBatchedClaims does the same on goroutines; -race makes
// it the memory-ordering stress for the lease claim path.
func TestRealEngineBatchedClaims(t *testing.T) {
	BatchedClaims(t, "real", func(p int, intr *machine.Interrupt) core.Engine {
		return machine.NewReal(machine.RealConfig{P: p, Mode: machine.WorkCount, Interrupt: intr})
	})
}

// TestVirtualEngineExhaustedInstances holds the simulator to exactly-once
// execution when most claims of the run find their instance exhausted.
func TestVirtualEngineExhaustedInstances(t *testing.T) {
	ExhaustedInstances(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestRealEngineExhaustedInstances does the same on goroutines; -race
// makes it the memory-ordering stress for the unconditional claim.
func TestRealEngineExhaustedInstances(t *testing.T) {
	ExhaustedInstances(t, "real", func(p int, intr *machine.Interrupt) core.Engine {
		return machine.NewReal(machine.RealConfig{P: p, Mode: machine.WorkCount, Interrupt: intr})
	})
}

// TestVirtualEngineBatchedCheckpointResume holds the simulator to the
// mid-lease pause contract: leased-but-unexecuted iterations travel in
// the snapshot and restore exactly once.
func TestVirtualEngineBatchedCheckpointResume(t *testing.T) {
	BatchedCheckpointResume(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestRealEngineBatchedCheckpointResume does the same on goroutines, and
// on eight of them whatever width the matrix asks for: the lease a worker
// holds is private state that crosses the pause, so make verify-gates
// runs this twenty times under -race.
func TestRealEngineBatchedCheckpointResume(t *testing.T) {
	BatchedCheckpointResume(t, "real", func(_ int, intr *machine.Interrupt) core.Engine {
		return machine.NewReal(machine.RealConfig{P: 8, Mode: machine.WorkCount, Interrupt: intr})
	})
}

// TestVirtualEngineExhaustedCheckpointResume holds the simulator to the
// snapshot contract for an instance exhausted mid-lease: the settled
// cursor is recorded and the pending ranges resume exactly once.
func TestVirtualEngineExhaustedCheckpointResume(t *testing.T) {
	ExhaustedCheckpointResume(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestVirtualEngineFailoverRestore holds the simulator to the cluster
// failover contract: node death mid-leg, restore from the last parked
// snapshot on a survivor, and the surviving history lands bit-exactly
// on the uninterrupted run.
func TestVirtualEngineFailoverRestore(t *testing.T) {
	FailoverRestore(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestRealEngineFailoverRestore does the same on goroutines: multisets
// and totals must hold under real timing (trajectory bit-identity is
// virtual-only).
func TestRealEngineFailoverRestore(t *testing.T) {
	FailoverRestore(t, "real", func(p int, intr *machine.Interrupt) core.Engine {
		return machine.NewReal(machine.RealConfig{P: p, Mode: machine.WorkCount, Interrupt: intr})
	})
}

// TestVirtualEngineChaos holds the simulator to the isolate-policy
// contract under deterministic fault injection.
func TestVirtualEngineChaos(t *testing.T) {
	Chaos(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestRealEngineChaos does the same on goroutines; -race makes it the
// memory-ordering stress for the panic-recovery and quarantine paths.
func TestRealEngineChaos(t *testing.T) {
	Chaos(t, "real", func(p int, intr *machine.Interrupt) core.Engine {
		return machine.NewReal(machine.RealConfig{P: p, Mode: machine.WorkCount, Interrupt: intr})
	})
}

// TestVirtualEngineBudgets holds the simulator to the gas-meter
// contract: a budgeted run stops at exactly min(total, budget)
// iterations for every scheme and batch factor.
func TestVirtualEngineBudgets(t *testing.T) {
	Budgets(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestRealEngineBudgets does the same on goroutines: the exact stop
// point is schedule-independent, so it must hold under real timing too.
func TestRealEngineBudgets(t *testing.T) {
	Budgets(t, "real", func(p int, intr *machine.Interrupt) core.Engine {
		return machine.NewReal(machine.RealConfig{P: p, Mode: machine.WorkCount, Interrupt: intr})
	})
}

// TestVirtualEngineBudgetResume holds the simulator to the budget +
// checkpoint contract: exhaustion captures a resumable snapshot and the
// resumed run completes the exact uninterrupted iteration multiset.
func TestVirtualEngineBudgetResume(t *testing.T) {
	BudgetResume(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestVirtualEngineBudgetIdentity pins the meter's zero-cost contract:
// nil, zero and ample budgets all produce the identical virtual run.
func TestVirtualEngineBudgetIdentity(t *testing.T) {
	BudgetIdentity(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestVirtualEngineDelayedPosters holds the simulator to exactly-one
// EXIT and the snapshot invariant when completions are posted late: a
// planted straggler, and pauses taken while every worker holds unposted
// work.
func TestVirtualEngineDelayedPosters(t *testing.T) {
	DelayedPosters(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestVirtualEngineTailInstances holds the simulator to exactly-once on
// instances no longer than the machine is wide, where every chunk posts.
func TestVirtualEngineTailInstances(t *testing.T) {
	TailInstances(t, "virtual", func(p int, intr *machine.Interrupt) core.Engine {
		return vmachine.New(vmachine.Config{P: p, AccessCost: 5, Interrupt: intr})
	})
}

// TestRealEngineTailInstances does the same on goroutines; make
// verify-gates runs it twenty times under -race.
func TestRealEngineTailInstances(t *testing.T) {
	TailInstances(t, "real", func(p int, intr *machine.Interrupt) core.Engine {
		return machine.NewReal(machine.RealConfig{P: p, Mode: machine.WorkCount, Interrupt: intr})
	})
}
