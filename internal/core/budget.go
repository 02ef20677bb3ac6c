package core

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// Gas-style execution budgets on the claim path.
//
// A budget meters the run where every iteration already passes: the
// claim site, where each chunk about to run — a fresh claim, or the next
// slice of a held lease — is charged before it executes (budgetClaim, in
// meter.go). With no budget the kernel pays one boolean test per chunk
// and the run is bit-identical to a build without the seam.
//
// Exhaustion is schedule-independent and exact: the chunk that crosses
// the budget executes only its allowed prefix, posts it — with whatever
// else the worker had executed on the instance and not yet posted — to
// the instance's icount, and records the unexecuted remainder as a
// pending range (with the slices of its lease still in hand, exactly as
// a checkpoint pause records them), so the run executes exactly
// min(total iterations, budget) iterations on every engine, scheme and
// batch factor. The pause then rides the checkpoint drain: workers stop
// at claim boundaries, a started chunk always completes, and nothing is
// cut mid-chunk. For a run that can pause (a cursor scheme, no Doacross
// or manual-post leaf) the resulting BudgetExceededError carries a
// resumable RunSnapshot; others report consumption only.

// Budget caps one run's execution, enforced on the claim path.
type Budget struct {
	// Iterations, if positive, caps the number of iterations the run may
	// claim; the run pauses at exactly this count (or completes earlier).
	Iterations int64
	// Time, if positive, is an engine-time ceiling checked at claim
	// boundaries: once pr.Now() reaches it no further chunk starts — the
	// unstarted slices of a held lease become pending. A started chunk
	// still completes, so the overshoot is bounded by one chunk per
	// processor at any batch factor.
	Time machine.Time
}

// ErrBudgetExceeded is the sentinel a *BudgetExceededError matches via
// errors.Is: the run exhausted its execution budget before completing.
var ErrBudgetExceeded = errors.New("core: budget exceeded")

// BudgetExceededError is returned by RunPlanContext (in place of a
// report) when the run exhausted its budget. It matches
// ErrBudgetExceeded via errors.Is.
type BudgetExceededError struct {
	// Iterations is the iteration count consumed against the budget
	// (equal to Budget.Iterations when the iteration budget exhausted).
	Iterations int64
	// Elapsed is the run's engine time at the pause.
	Elapsed machine.Time
	// Snapshot is the run's resumable state, non-nil only when the run
	// can pause (a cursor scheme, no Doacross or manual-post leaf).
	Snapshot *RunSnapshot
}

func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("core: budget exceeded after %d iteration(s), engine time %d", e.Iterations, e.Elapsed)
}

// Is makes errors.Is(err, ErrBudgetExceeded) true for BudgetExceededErrors.
func (e *BudgetExceededError) Is(target error) bool { return target == ErrBudgetExceeded }

// budgetConsumed reports the iterations charged against the iteration
// budget so far (capped at the budget itself).
func (ex *executor) budgetConsumed() int64 {
	b := ex.cfg.Budget
	if b == nil || b.Iterations <= 0 {
		return 0
	}
	rem := ex.budIters.Load()
	if rem < 0 {
		rem = 0
	}
	return b.Iterations - rem
}
