package core

import (
	"context"
	"fmt"

	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
)

// Plan is the immutable compile-once layer of an execution: the compiled
// descriptor tables plus everything derivable from them alone — the
// maximum nest depth (sizing each worker's loc_indexes vector), per-leaf
// synchronization traits, and the Doacross census the static-scheme
// guard needs. A Plan holds no per-run state, so one Plan can back any
// number of sequential or concurrent runs with zero recompilation and
// zero shared mutation; all mutable state lives in the per-run executor
// (instances) and the per-processor workers.
type Plan struct {
	prog     *descr.Program
	maxDepth int
	// leaves[num] caches leaf num's activation traits (1-based; entry 0
	// unused), so the hot activation path reads a flat slice instead of
	// chasing node pointers.
	leaves []leafPlan
	// doacrossLabel is the label of the first Doacross leaf, or "" when
	// the program has none (static pre-assignment schemes are rejected
	// against it).
	doacrossLabel string
}

// leafPlan caches one leaf's activation traits.
type leafPlan struct {
	info       *descr.LeafInfo
	doacross   bool
	dist       int64
	manualSync bool
}

// NewPlan derives the immutable run plan of a compiled program.
func NewPlan(prog *descr.Program) (*Plan, error) {
	if prog == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	pl := &Plan{
		prog:   prog,
		leaves: make([]leafPlan, prog.M+1),
	}
	for _, l := range prog.Leaves() {
		if l.Depth > pl.maxDepth {
			pl.maxDepth = l.Depth
		}
		lp := leafPlan{info: l, manualSync: l.Node.ManualSync}
		if l.Node.Kind == loopir.KindDoacross {
			lp.doacross = true
			lp.dist = l.Node.Dist
			if pl.doacrossLabel == "" {
				pl.doacrossLabel = l.Node.Label
			}
		}
		pl.leaves[l.Num] = lp
	}
	return pl, nil
}

// Program returns the compiled program the plan was derived from.
func (pl *Plan) Program() *descr.Program { return pl.prog }

// MaxDepth returns the deepest leaf's internal depth (including the
// virtual root).
func (pl *Plan) MaxDepth() int { return pl.maxDepth }

// leaf returns the LeafInfo for loop number num (1..M).
func (pl *Plan) leaf(num int) *descr.LeafInfo { return pl.leaves[num].info }

// bindScheme binds the scheme to the machine size once per run,
// converting lowsched.Bind's validation panics (bad chunk parameters, a
// type that is neither CalcScheme nor Policy) into configuration errors.
func bindScheme(s lowsched.Scheme, nprocs int) (pol lowsched.Policy, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: invalid scheme: %v", r)
		}
	}()
	return lowsched.Bind(s, nprocs), nil
}

// RunPlan executes the plan under the given configuration; see Run.
func RunPlan(pl *Plan, cfg Config) (*Report, error) {
	return RunPlanContext(context.Background(), pl, cfg)
}

// RunPlanContext executes the plan under the given configuration with
// cooperative cancellation; see RunContext. The plan is shared-state
// free, so concurrent RunPlanContext calls on one Plan are safe.
func RunPlanContext(ctx context.Context, pl *Plan, cfg Config) (*Report, error) {
	if pl == nil {
		return nil, fmt.Errorf("core: nil plan")
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("core: config requires an Engine")
	}
	if cfg.Scheme == nil {
		cfg.Scheme = lowsched.SS{}
	}
	if lowsched.IsStatic(cfg.Scheme) && pl.doacrossLabel != "" {
		return nil, fmt.Errorf(
			"core: static pre-scheduling cannot execute Doacross programs: with iterations bound to processors, concurrently active instances can deadlock on cross-iteration dependences (loop %q)",
			pl.doacrossLabel)
	}
	if cfg.Interrupt == nil {
		cfg.Interrupt = machine.NewInterrupt()
	}
	if cfg.Retry.Attempts < 0 || cfg.Retry.Backoff < 0 {
		return nil, fmt.Errorf("core: negative retry configuration (attempts %d, backoff %d)",
			cfg.Retry.Attempts, cfg.Retry.Backoff)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	policy, err := bindScheme(cfg.Scheme, cfg.Engine.NumProcs())
	if err != nil {
		return nil, err
	}
	if cfg.ClaimBatch < 0 {
		return nil, fmt.Errorf("core: negative claim batch %d", cfg.ClaimBatch)
	}
	if cfg.SWShards < 0 {
		return nil, fmt.Errorf("core: negative SW shard count %d", cfg.SWShards)
	}
	if cfg.ClaimBatch > 1 {
		if _, ok := policy.(lowsched.Leaser); !ok {
			return nil, fmt.Errorf("core: scheme %s cannot lease chunk batches (ClaimBatch %d requires a cursor scheme)",
				policy.Name(), cfg.ClaimBatch)
		}
	}
	if b := cfg.Budget; b != nil && (b.Iterations < 0 || b.Time < 0) {
		return nil, fmt.Errorf("core: negative budget (iterations %d, time %d)", b.Iterations, b.Time)
	}
	if bb, ok := policy.(lowsched.BatchBinder); ok {
		b := cfg.ClaimBatch
		if b < 1 {
			b = 1
		}
		bb.BindBatch(b)
	}
	if cfg.Checkpoint != nil {
		if err := checkCheckpointable(pl, cfg, policy); err != nil {
			return nil, err
		}
	}
	ex := newExecutor(pl, cfg, policy)
	if cfg.Checkpoint != nil && cfg.Checkpoint.Restore != nil {
		if err := ex.seedRestore(); err != nil {
			return nil, err
		}
	}
	if rb, ok := policy.(lowsched.RuntimeBinder); ok {
		// Adaptive policies get the run's measurement surface before any
		// worker starts; the binding is per-run because the policy itself
		// is (PolicyScheme's NewPolicy path in Bind).
		rb.BindRuntime(ex.adaptRuntime())
	}
	if cfg.OnStart != nil {
		cfg.OnStart(ex)
	}
	if done := ctx.Done(); done != nil {
		// The watcher turns an asynchronous context event into a tripped
		// interrupt the (possibly virtual-time, single-goroutine) run can
		// poll. It is reaped before RunPlanContext returns so cancelled
		// runs leave no goroutines behind.
		quit := make(chan struct{})
		watcherDone := make(chan struct{})
		go func() {
			defer close(watcherDone)
			select {
			case <-done:
				cfg.Interrupt.Trip(ctx.Err())
			case <-quit:
			}
		}()
		defer func() { close(quit); <-watcherDone }()
	}
	rep := cfg.Engine.Run(ex.runWorker)
	if cfg.Interrupt.Tripped() {
		return nil, cfg.Interrupt.Err()
	}
	if ex.paused() && !ex.done.Load() {
		// The run drained at a pause (one that raced with completion is
		// just a completed run). Internal stop-causes — e.g. a
		// restore-validation trip — win over the capture.
		if c := ex.cause.Load(); c != nil {
			return nil, c.err
		}
		if ex.budHit.Load() {
			// Budget exhaustion: same claim-quiescent drain, different
			// surface. The snapshot travels only when the run carries the
			// checkpoint seam — capture requires the live-instance set and
			// a cursor scheme, which plain budgeted runs do not pay for.
			berr := &BudgetExceededError{
				Iterations: ex.budgetConsumed(),
				Elapsed:    rep.Makespan,
			}
			if cfg.Checkpoint != nil {
				snap, err := ex.capture()
				if err != nil {
					return nil, err
				}
				berr.Snapshot = snap
			}
			return nil, berr
		}
		snap, err := ex.capture()
		if err != nil {
			return nil, err
		}
		return nil, &CheckpointedError{Snapshot: snap}
	}
	if err := ex.checkQuiescent(); err != nil {
		return nil, err
	}
	return &Report{
		RunReport: rep,
		Stats:     ex.LiveStats(), // the final snapshot, failure report attached
		Scheme:    cfg.Scheme.Name(),
	}, nil
}
