package repro

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Budget errors.
var (
	// ErrBudgetExceeded is the cause of every *BudgetExceededError: a run
	// that exhausted its execution budget before completing.
	ErrBudgetExceeded = errors.New("repro: budget exceeded")
	// ErrBadBudget reports a negative Options.BudgetIterations or
	// Options.BudgetTime.
	ErrBadBudget = errors.New("repro: negative budget")
)

// BudgetExceededError is the non-Result outcome of a run that exhausted
// its execution budget (Options.BudgetIterations / Options.BudgetTime).
// Like a checkpoint pause it is not a failure, but there is no Result —
// the work is not finished. It matches ErrBudgetExceeded via errors.Is.
//
// Iteration budgets are exact on every engine, scheme and claim batch:
// the run executed precisely min(total iterations, budget) iterations.
// For a run that can pause (Options.CheckpointAfter) the error carries a
// resumable Checkpoint, so a manager can treat exhaustion as preemption:
// park the checkpoint and resubmit it later with a fresh budget.
type BudgetExceededError struct {
	// Iterations is the iteration count consumed against the budget.
	Iterations int64
	// Elapsed is the engine time at the pause (virtual units, or
	// nanoseconds on the real engines).
	Elapsed int64
	// Checkpoint resumes the run; nil when the run cannot pause.
	Checkpoint *Checkpoint
}

func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("repro: budget exceeded after %d iteration(s), engine time %d", e.Iterations, e.Elapsed)
}

// Is reports ErrBudgetExceeded as this error's cause.
func (e *BudgetExceededError) Is(target error) bool { return target == ErrBudgetExceeded }

// asBudgetExceeded converts core's budget error to the public surface.
func (p *Program) asBudgetExceeded(err error) (*BudgetExceededError, bool) {
	var be *core.BudgetExceededError
	if !errors.As(err, &be) {
		return nil, false
	}
	out := &BudgetExceededError{Iterations: be.Iterations, Elapsed: int64(be.Elapsed)}
	if be.Snapshot != nil {
		out.Checkpoint = &Checkpoint{Program: p.Fingerprint(), Snapshot: be.Snapshot}
	}
	return out, true
}
