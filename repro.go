// Package repro is a Go reproduction of "Dynamic Processor
// Self-Scheduling for General Parallel Nested Loops" (Fang, Tang, Yew,
// Zhu; ICPP 1987): a two-level run-time scheduler for general parallel
// nested loops on shared-memory multiprocessors.
//
// A general parallel nested loop mixes Doall loops, Doacross loops,
// serial loops and IF-THEN-ELSE constructs in any nesting order, with
// loop bounds that may depend on outer indexes and iteration times that
// vary arbitrarily. The scheme instruments such a program so that
// processors schedule loop iterations among themselves at run time with
// no operating-system involvement:
//
//   - at the low level, iterations of one innermost parallel loop
//     instance are grabbed with indivisible fetch-and-add operations
//     (plug-in policies: SS, CSS(k), GSS, TSS, factoring);
//   - at the high level, instances are activated through a macro-dataflow
//     precedence relation and held in a task pool of parallel linked
//     lists searched by leading-one detection on a control word.
//
// # Quick start
//
//	nest := repro.MustBuild(func(b *repro.B) {
//	    b.DoallLeaf("loop", repro.Const(1000), func(e repro.Env, iv repro.IVec, j int64) {
//	        e.Work(100) // 100 cost units of simulated computation
//	    })
//	})
//	prog, _ := repro.Compile(nest)
//	res, _ := prog.Run(repro.Options{Procs: 8, Scheme: "gss"})
//	fmt.Println(res.Makespan, res.Utilization)
//
// Programs run on either of two engines: a deterministic virtual-time
// multiprocessor (default; exact, reproducible, with a memory-contention
// model) or the real Go runtime (goroutines and atomics).
package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"

	_ "repro/internal/adapt" // registers the adaptive "auto" scheme
	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/trace"
	"repro/internal/vmachine"
)

// Re-exported program-construction surface (see package loopir).
type (
	// B is the nest builder passed to Build callbacks.
	B = loopir.B
	// Env is the execution environment seen by iteration bodies.
	Env = loopir.Env
	// IVec is an index vector of enclosing loop indexes (1-based).
	IVec = loopir.IVec
	// Bound is a loop bound: constant or function of outer indexes.
	Bound = loopir.Bound
	// Nest is an un-compiled general parallel nested loop.
	Nest = loopir.Nest
	// BodyFn is an innermost-loop iteration body.
	BodyFn = loopir.BodyFn
	// StmtFn is a scalar statement body.
	StmtFn = loopir.StmtFn
	// CondFn is an IF condition.
	CondFn = loopir.CondFn
)

// Const returns a constant loop bound.
func Const(n int64) Bound { return loopir.Const(n) }

// BoundFn returns a loop bound computed from the enclosing indexes.
func BoundFn(f func(iv IVec) int64) Bound { return loopir.BoundFn(f) }

// Build constructs a nest; the callback appends constructs to b.
func Build(f func(b *B)) (*Nest, error) { return loopir.Build(f) }

// MustBuild is Build that panics on error.
func MustBuild(f func(b *B)) *Nest { return loopir.MustBuild(f) }

// Program is a compiled nest: standardized form plus the descriptor
// arrays (DEPTH, BOUND, DESCRPT) consumed by the run-time scheduler.
//
// A Program is immutable after Compile and safe for concurrent use: the
// execution plan (descriptor tables, successor fan-out, barrier
// topology) is derived once on first run and shared by every subsequent
// and concurrent Run/RunContext call without recompilation.
type Program struct {
	std  *loopir.Nest
	desc *descr.Program

	planOnce sync.Once
	plan     *core.Plan
	planErr  error
}

// execPlan returns the cached execution plan, deriving it on first use.
func (p *Program) execPlan() (*core.Plan, error) {
	p.planOnce.Do(func() {
		p.plan, p.planErr = core.NewPlan(p.desc)
	})
	return p.plan, p.planErr
}

// CompileOption adjusts compilation.
type CompileOption func(*compileCfg)

type compileCfg struct {
	coalesce bool
}

// WithCoalescing applies implicit loop coalescing (Fig. 3) to perfect
// Doall nests with static inner bounds before compiling.
func WithCoalescing() CompileOption {
	return func(c *compileCfg) { c.coalesce = true }
}

// Compile standardizes the nest (Fig. 2) and builds the descriptor
// arrays (Figs. 5-6).
func Compile(nest *Nest, opts ...CompileOption) (*Program, error) {
	var cfg compileCfg
	for _, o := range opts {
		o(&cfg)
	}
	std, err := nest.Standardize()
	if err != nil {
		return nil, err
	}
	if cfg.coalesce {
		if std, err = std.Coalesce(); err != nil {
			return nil, err
		}
	}
	desc, err := descr.Compile(std)
	if err != nil {
		return nil, err
	}
	return &Program{std: std, desc: desc}, nil
}

// NumLoops returns the number of innermost parallel loops (the paper's m).
func (p *Program) NumLoops() int { return p.desc.M }

// String renders the standardized nest (Fig. 1 style).
func (p *Program) String() string { return p.std.String() }

// DepthBoundTable renders the DEPTH/BOUND arrays (Fig. 5).
func (p *Program) DepthBoundTable() string { return p.desc.FormatDepthBound() }

// DescriptorTable renders the DESCRPT records (Fig. 6).
func (p *Program) DescriptorTable() string { return p.desc.FormatDescriptors() }

// GraphDOT renders the macro-dataflow graph (Fig. 4) in Graphviz format.
// It requires loop bounds evaluable from enclosing indexes.
func (p *Program) GraphDOT() string { return descr.BuildGraph(p.desc).DOT() }

// InstrumentationListing renders the instrumented program in the paper's
// pseudocode style: the self-scheduling code each processor executes,
// specialized with this program's descriptor contents.
func (p *Program) InstrumentationListing() string { return p.desc.FormatInstrumented() }

// Internal returns the compiled descriptor program, for advanced use with
// the internal packages (experiments, custom engines).
func (p *Program) Internal() *descr.Program { return p.desc }

// StdNest returns the standardized nest.
func (p *Program) StdNest() *loopir.Nest { return p.std }

// EngineKind selects the execution substrate.
type EngineKind string

// Engine kinds.
const (
	// EngineVirtual is the deterministic virtual-time multiprocessor
	// (discrete-event simulation with a memory-contention model).
	EngineVirtual EngineKind = "virtual"
	// EngineReal runs on goroutines with Work accounted but not slept.
	EngineReal EngineKind = "real"
	// EngineRealSpin runs on goroutines with Work realized as calibrated
	// busy-wait (for wall-clock benchmarking).
	EngineRealSpin EngineKind = "real-spin"
)

// Live is a concurrency-safe view into a running execution, handed to
// Options.Observe. Its LiveStats method snapshots the executor counters
// (core.Snapshot) at any time during or after the run.
type Live = core.Probe

// Result reports one run.
type Result struct {
	// Makespan is the run's total time (virtual units, or nanoseconds on
	// the real engines).
	Makespan int64
	// Utilization is total busy time / (P * makespan), the empirical eta
	// of eq. (1).
	Utilization float64
	// Busy is per-processor busy time.
	Busy []int64
	// Accesses is per-processor synchronization access counts.
	Accesses []int64
	// Stats are the executor counters (O1/O2/O3 decomposition).
	Stats core.Snapshot
	// SchemeName is the resolved low-level scheme.
	SchemeName string
	// Procs is the processor count used.
	Procs int
	// Trace is the event log when CollectTrace/Verify was set.
	Trace *trace.Log
	// HotSpots lists the most contended synchronization variables
	// (virtual engine only), ordered by queueing time.
	HotSpots []HotSpot

	prog *Program
}

// HotSpot is the contention profile of one synchronization variable on
// the virtual machine.
type HotSpot struct {
	// Name is the variable's debug name (e.g. "index", "SW", "L(3).next").
	Name string
	// Accesses counts accesses.
	Accesses int64
	// Wait is the total memory-module queueing time beyond the raw access
	// cost.
	Wait int64
}

// GanttChart renders a per-processor execution timeline of the run with
// the given width in columns. It requires the run to have collected a
// trace (Options.CollectTrace or Options.Verify); otherwise it returns "".
func (r *Result) GanttChart(width int) string {
	if r.Trace == nil {
		return ""
	}
	return r.Trace.Gantt(r.prog.desc, r.Procs, width)
}

// Run executes the program under the given options. It is
// RunContext with a background context.
func (p *Program) Run(opts Options) (*Result, error) {
	return p.RunContext(context.Background(), opts)
}

// RunContext executes the program under the given options with
// cooperative cancellation: when ctx is cancelled or its deadline
// expires, the run's interrupt trips, every processor (virtual or real)
// drains out at its next preemption point — an iteration boundary, a
// SEARCH sweep, a busy-wait retry, or (on the spinning real engine) the
// calibrated busy-wait itself — and RunContext returns ctx's error
// (errors.Is-able against context.Canceled / context.DeadlineExceeded).
// A cancelled run produces no Result.
//
// Configuration mistakes are reported with the typed errors of
// Options.Validate before any execution starts.
func (p *Program) RunContext(ctx context.Context, opts Options) (*Result, error) {
	rs, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	pl, err := p.execPlan()
	if err != nil {
		return nil, err
	}
	intr := machine.NewInterrupt()
	eng := rs.mkEngine(intr)
	var log *trace.Log
	if opts.CollectTrace || opts.Verify {
		log = trace.New()
	}
	var ring *trace.Ring
	if opts.FlightRecorder > 0 {
		ring = trace.NewRing(rs.procs, opts.FlightRecorder)
	}
	var ckpt *core.CheckpointConfig
	if opts.CheckpointAfter > 0 || opts.Resume != nil {
		ckpt = &core.CheckpointConfig{AfterChunks: opts.CheckpointAfter}
		if opts.Resume != nil {
			if opts.Verify {
				return nil, fmt.Errorf("repro: Verify cannot check a resumed run (pre-checkpoint iterations are not in this trace)")
			}
			if opts.Resume.Snapshot == nil {
				return nil, fmt.Errorf("%w: checkpoint has no snapshot", ErrBadCheckpoint)
			}
			if opts.Resume.Program != "" && opts.Resume.Program != p.Fingerprint() {
				return nil, fmt.Errorf("%w: checkpoint from program %s, submitted program %s",
					ErrBadCheckpoint, opts.Resume.Program, p.Fingerprint())
			}
			ckpt.Restore = opts.Resume.Snapshot
		}
	}
	var budget *core.Budget
	if opts.BudgetIterations > 0 || opts.BudgetTime > 0 {
		budget = &core.Budget{
			Iterations: opts.BudgetIterations,
			Time:       machine.Time(opts.BudgetTime),
		}
	}
	rep, err := core.RunPlanContext(ctx, pl, core.Config{
		Engine:       eng,
		Scheme:       rs.scheme,
		Pool:         rs.pool,
		Sink:         trace.Attach(log, ring),
		DispatchCost: opts.DispatchCost,
		Interrupt:    intr,
		OnStart:      opts.Observe,
		Failure:      rs.failure,
		Retry:        rs.retry,
		Diagnostics:  opts.Diagnostics,
		Checkpoint:   ckpt,
		ClaimBatch:   opts.ClaimBatch,
		SWShards:     opts.SWShards,
		Budget:       budget,
	})
	if err != nil {
		if be, ok := p.asBudgetExceeded(err); ok {
			return nil, be
		}
		var cke *core.CheckpointedError
		if errors.As(err, &cke) {
			return nil, &CheckpointedError{Checkpoint: &Checkpoint{
				Program:  p.Fingerprint(),
				Snapshot: cke.Snapshot,
			}}
		}
		return nil, err
	}
	if opts.Verify {
		ref, err := refexec.Run(p.std)
		if err != nil {
			return nil, fmt.Errorf("repro: verification reference run: %w", err)
		}
		engName := "real"
		if _, ok := eng.(*vmachine.Engine); ok {
			engName = "virtual"
		}
		nestLabel := ""
		if len(p.std.Root) > 0 {
			nestLabel = p.std.Root[0].Label
		}
		vctx := refexec.Context{
			Nest:   nestLabel,
			Scheme: rs.scheme.Name(),
			Pool:   rs.pool.String(),
			Engine: engName,
		}
		if err := log.VerifyExactlyOnceIn(p.desc, ref, vctx); err != nil {
			return nil, fmt.Errorf("repro: verification: %w", err)
		}
		if err := log.VerifyPrecedence(p.desc, descr.BuildGraph(p.desc)); err != nil {
			return nil, fmt.Errorf("repro: verification: %w", err)
		}
	}
	res := &Result{
		Makespan:    rep.Makespan,
		Utilization: rep.Utilization(),
		Busy:        rep.Busy,
		Accesses:    rep.Accesses,
		Stats:       rep.Stats,
		SchemeName:  rep.Scheme,
		Procs:       eng.NumProcs(),
		Trace:       log,
	}
	if log != nil {
		res.prog = p // for GanttChart only: a kept Result must not pin the Program
	}
	if ve, ok := eng.(*vmachine.Engine); ok {
		for _, h := range ve.HotSpots(10) {
			res.HotSpots = append(res.HotSpots, HotSpot{Name: h.Name, Accesses: h.Accesses, Wait: h.Wait})
		}
	}
	return res, nil
}

// Execute compiles and runs a nest in one call.
func Execute(nest *Nest, opts Options) (*Result, error) {
	return ExecuteContext(context.Background(), nest, opts)
}

// ExecuteContext compiles and runs a nest in one call with cooperative
// cancellation (see Program.RunContext).
func ExecuteContext(ctx context.Context, nest *Nest, opts Options) (*Result, error) {
	prog, err := Compile(nest)
	if err != nil {
		return nil, err
	}
	return prog.RunContext(ctx, opts)
}
