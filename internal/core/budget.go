package core

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// Gas-style execution budgets on the claim path.
//
// A budget meters the run at the one place every iteration already
// passes through: the drive loop's claim site. Each chunk about to run —
// a fresh claim, or the next slice of a lease the worker holds
// (Config.ClaimBatch) — charges its iteration count against a host-side
// atomic before any of it executes, so the meter costs one decrement per
// chunk and charges no machine time. With no budget configured the
// kernel pays a single boolean test per chunk and the run is
// bit-identical to a build without the seam.
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
// cut mid-chunk. For runs with the checkpoint seam enabled the resulting
// BudgetExceededError carries a resumable RunSnapshot; others report
// consumption only.

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

// enabled reports whether the budget meters anything.
func (b *Budget) enabled() bool {
	return b != nil && (b.Iterations > 0 || b.Time > 0)
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
	// was configured with the checkpoint seam (Config.Checkpoint).
	Snapshot *RunSnapshot
}

func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("core: budget exceeded after %d iteration(s), engine time %d", e.Iterations, e.Elapsed)
}

// Is makes errors.Is(err, ErrBudgetExceeded) true for BudgetExceededErrors.
func (e *BudgetExceededError) Is(target error) bool { return target == ErrBudgetExceeded }

// budgetClaim charges a chunk of s iterations against the iteration
// budget and returns how many of them may execute. The charge happens
// before execution, through one host-side atomic add, so concurrent
// claimers partition the remaining budget exactly: the allowed counts
// across all chunks sum to precisely Budget.Iterations when the run
// exhausts. Crossing (or meeting) the limit requests the pause; the
// caller executes the allowed prefix and records the remainder pending.
func (ex *executor) budgetClaim(s int64) int64 {
	rem := ex.budIters.Add(-s)
	if rem > 0 {
		return s
	}
	ex.budHit.Store(true)
	ex.ckptReq.Store(true)
	if rem == 0 {
		return s
	}
	if allowed := s + rem; allowed > 0 {
		return allowed
	}
	return 0
}

// budgetDue checks the engine-time budget at a claim boundary and
// requests the pause once the ceiling is reached. Reading pr.Now()
// charges no machine time, so a run with no time budget (or one that
// never reaches it) is unperturbed.
func (ex *executor) budgetDue(pr machine.Proc) bool {
	if ex.budTime <= 0 || pr.Now() < ex.budTime {
		return false
	}
	ex.budHit.Store(true)
	ex.ckptReq.Store(true)
	return true
}

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
