// Package loadcheck is the workload-checks harness for the serving
// layer: sustained-load cases run against a runner.Runner under a
// declared machine class, with throughput, memory and fairness goals
// asserted in CI.
//
// The shape follows nightly "workload checks" tooling: a machine class
// lays out the resource envelope (worker slots, simulated processors,
// queue depth) the check simulates being fit-for-purpose on; a case
// pairs a submission workload with optimization goals; a report says
// whether the goals were met. Checks run entirely on the virtual
// engine, so a case measures the serving path (admission, scheduling,
// dispatch, census) rather than host-machine compute. The wall-clock
// goal (MinThroughput) is a deliberately conservative floor, so the
// suite does not flake on slow runners; the memory and fairness goals
// are near-deterministic and ratcheted to what was measured (cases.go).
package loadcheck

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/runner"
)

// MachineClass lays out the resource envelope a check simulates: how
// many runs execute at once, how many simulated processors each gets,
// and how deep the shared backlog may grow.
type MachineClass struct {
	Name string
	// Workers is the runner's MaxConcurrent.
	Workers int
	// Procs is the simulated processor count each run executes on.
	Procs int
	// QueueLimit bounds the shared backlog (0 = unbounded).
	QueueLimit int
}

// Classes declares the machine classes cases may target.
var Classes = map[string]MachineClass{
	// typical is a mid-size serving box: several worker slots, a wide
	// simulated machine, a deep backlog.
	"typical": {Name: "typical", Workers: 4, Procs: 8, QueueLimit: 1024},
	// small is a constrained dev box: one slot, a narrow machine, a
	// shallow backlog — admission pressure shows up fast.
	"small": {Name: "small", Workers: 1, Procs: 2, QueueLimit: 64},
}

// Stream is one tenant's submission pattern within a case.
type Stream struct {
	// Tenant attributes the stream's submissions ("" = anonymous).
	Tenant string
	// Runs is how many programs the stream submits.
	Runs int
	// Iters sizes each program (a flat doall of cheap iterations).
	Iters int64
	// Burst submits the whole stream back-to-back before any other
	// stream's next submission; steady streams interleave round-robin.
	Burst bool
	// CheckpointEvery runs each submission as a chain of periodic-
	// snapshot legs (every that-many chunk claims) — the clustered
	// daemon's failover-restore-point cadence. The goals then measure
	// what the snapshot machinery costs the serving path.
	CheckpointEvery int64
	// Window, when positive, makes the stream a closed loop: a submission
	// waits until the run admitted Window submissions earlier is terminal,
	// so a long stream never outruns the class's backlog.
	Window int
}

// FairnessGoal asserts the dispatch-order share between two tenants
// over Window dispatched runs, Skip runs into the sequence: Tenants[0]'s
// completed iterations over Tenants[1]'s must be exactly Ratio. A case
// with a fairness goal is admitted whole before anything dispatches (see
// holdSlots), so the order measured is the scheduler's arbitration of
// the full backlog — deterministic — not a race between the submitting
// loop and the worker slots.
type FairnessGoal struct {
	Tenants [2]string
	Skip    int
	Window  int
	Ratio   float64
}

// Goals are a case's pass/fail criteria. Zero fields are unchecked.
type Goals struct {
	// MinThroughput is completed runs per second over the case's wall
	// clock, submission included.
	MinThroughput float64
	// MaxBytesPerRun caps allocated bytes (runtime TotalAlloc delta)
	// per completed run.
	MaxBytesPerRun int64
	// MaxRetainedBytesPerRun caps the heap still in use per completed
	// run once everything has drained (HeapAlloc delta, both sides
	// after two collections, the Runner and its run registry still
	// reachable): what a terminal run keeps for as long as it is served.
	MaxRetainedBytesPerRun int64
	// MaxShed caps admission rejections; -1 means shedding is expected
	// and unbounded, 0 (the zero value) means none tolerated.
	MaxShed int
	// Fairness asserts a weighted share between two tenants.
	Fairness *FairnessGoal
}

// Case is one workload check: a machine class, a scheduler, tenants,
// submission streams and goals.
type Case struct {
	Name      string
	Class     string
	Scheduler string
	Tenants   map[string]runner.Tenant
	Streams   []Stream
	Goals     Goals
}

// Report is a case's measured outcome.
type Report struct {
	Case      string
	Class     string
	Submitted int
	Completed int
	Shed      int
	// Throughput is completed runs per second of wall clock.
	Throughput float64
	// BytesPerRun is allocated bytes per completed run.
	BytesPerRun int64
	// RetainedBytesPerRun is heap still in use per completed run after
	// the drain.
	RetainedBytesPerRun int64
	// TenantIters is completed iterations by tenant over the fairness
	// window (the whole run set when no fairness goal is declared).
	TenantIters map[string]int64
	// FairnessRatio is the observed share ratio for the fairness goal
	// (0 when none declared).
	FairnessRatio float64
}

// Check returns the goal violations, empty when the case passes.
func (r Report) Check(g Goals) []string {
	var bad []string
	if g.MinThroughput > 0 && r.Throughput < g.MinThroughput {
		bad = append(bad, fmt.Sprintf("throughput %.1f runs/s below goal %.1f", r.Throughput, g.MinThroughput))
	}
	if g.MaxBytesPerRun > 0 && r.BytesPerRun > g.MaxBytesPerRun {
		bad = append(bad, fmt.Sprintf("memory %d B/run over goal %d", r.BytesPerRun, g.MaxBytesPerRun))
	}
	if g.MaxRetainedBytesPerRun > 0 && r.RetainedBytesPerRun > g.MaxRetainedBytesPerRun {
		bad = append(bad, fmt.Sprintf("retained %d B/run over goal %d", r.RetainedBytesPerRun, g.MaxRetainedBytesPerRun))
	}
	if g.MaxShed >= 0 && r.Shed > g.MaxShed {
		bad = append(bad, fmt.Sprintf("shed %d submissions, goal allows %d", r.Shed, g.MaxShed))
	}
	if f := g.Fairness; f != nil {
		if r.FairnessRatio != f.Ratio {
			bad = append(bad, fmt.Sprintf("fairness %s:%s = %.2f, want exactly %g",
				f.Tenants[0], f.Tenants[1], r.FairnessRatio, f.Ratio))
		}
	}
	return bad
}

// program compiles a flat doall of n cheap iterations.
func program(n int64) (*repro.Program, error) {
	nest, err := repro.Build(func(b *repro.B) {
		b.DoallLeaf("L", repro.Const(n), func(e repro.Env, iv repro.IVec, j int64) {
			e.Work(10)
		})
	})
	if err != nil {
		return nil, err
	}
	return repro.Compile(nest)
}

// Run executes one case to completion and measures it.
func Run(ctx context.Context, c Case) (Report, error) {
	class, ok := Classes[c.Class]
	if !ok {
		return Report{}, fmt.Errorf("loadcheck: unknown machine class %q", c.Class)
	}
	rn := runner.New(runner.Config{
		MaxConcurrent: class.Workers,
		QueueLimit:    class.QueueLimit,
		Scheduler:     c.Scheduler,
		Tenants:       c.Tenants,
	})
	defer rn.Close()

	// One compiled program per distinct size: compilation is not the
	// serving path under test.
	progs := map[int64]*repro.Program{}
	for _, st := range c.Streams {
		if progs[st.Iters] == nil {
			p, err := program(st.Iters)
			if err != nil {
				return Report{}, err
			}
			progs[st.Iters] = p
		}
	}

	release := func() {}
	if c.Goals.Fairness != nil {
		var err error
		if release, err = holdSlots(ctx, rn, class); err != nil {
			return Report{}, fmt.Errorf("loadcheck: case %s: %w", c.Name, err)
		}
		defer release()
	}

	ms0 := settledMemStats()
	start := time.Now()

	rep := Report{Case: c.Name, Class: c.Class, TenantIters: map[string]int64{}}
	var runs []*runner.Run
	submit := func(st Stream) error {
		if w := st.Window; w > 0 && len(runs) >= w {
			<-runs[len(runs)-w].Done()
		}
		r, err := rn.Submit(runner.Submission{
			Program:         progs[st.Iters],
			Options:         repro.Options{Procs: class.Procs},
			Tenant:          st.Tenant,
			CheckpointEvery: st.CheckpointEvery,
		})
		rep.Submitted++
		switch {
		case err == nil:
			runs = append(runs, r)
		case errors.Is(err, runner.ErrQueueFull),
			errors.Is(err, runner.ErrTenantQueueFull),
			errors.Is(err, runner.ErrTenantInflight):
			rep.Shed++
		default:
			return err
		}
		return nil
	}
	// Burst streams drain fully at their turn; steady streams interleave
	// one submission per round.
	pending := make([]int, len(c.Streams))
	for i, st := range c.Streams {
		pending[i] = st.Runs
	}
	for remaining := true; remaining; {
		remaining = false
		for i, st := range c.Streams {
			if pending[i] == 0 {
				continue
			}
			n := 1
			if st.Burst {
				n = pending[i]
			}
			for k := 0; k < n; k++ {
				if err := submit(st); err != nil {
					return Report{}, err
				}
			}
			pending[i] -= n
			remaining = remaining || pending[i] > 0
		}
	}

	release()
	if err := rn.Drain(ctx); err != nil {
		return Report{}, fmt.Errorf("loadcheck: case %s: %w", c.Name, err)
	}
	elapsed := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	// rn and runs are both used below: every terminal run is still
	// reachable the way a serving daemon's registry keeps it.
	retained := int64(settledMemStats().HeapAlloc) - int64(ms0.HeapAlloc)

	// Fairness is a dispatch-order property: reconstruct the dispatch
	// sequence from per-run start times and account the goal window
	// (every completed run when no goal is declared).
	sort.Slice(runs, func(i, j int) bool {
		_, si, _ := runs[i].Times()
		_, sj, _ := runs[j].Times()
		return si.Before(sj)
	})
	lo, hi := 0, len(runs)
	if f := c.Goals.Fairness; f != nil {
		lo = f.Skip
		if f.Window > 0 && lo+f.Window < hi {
			hi = lo + f.Window
		}
	}
	for i, r := range runs {
		res, err := r.Result()
		if err != nil {
			return Report{}, fmt.Errorf("loadcheck: case %s: run %s: %w", c.Name, r.ID(), err)
		}
		rep.Completed++
		if i >= lo && i < hi {
			rep.TenantIters[tenantKey(r.Tenant())] += res.Stats.Iterations
		}
	}
	rep.Throughput = float64(rep.Completed) / elapsed.Seconds()
	if rep.Completed > 0 {
		rep.BytesPerRun = int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(rep.Completed)
		rep.RetainedBytesPerRun = retained / int64(rep.Completed)
	}
	if f := c.Goals.Fairness; f != nil {
		a := rep.TenantIters[tenantKey(f.Tenants[0])]
		b := rep.TenantIters[tenantKey(f.Tenants[1])]
		if b > 0 {
			rep.FairnessRatio = float64(a) / float64(b)
		}
	}
	return rep, nil
}

// settledMemStats reads the allocator's figures after two collections:
// the second one sweeps what the first one's finalizers and cleared
// pools released, so HeapAlloc is what is reachable.
func settledMemStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}

// holdSlots occupies every worker slot of the class with an anonymous
// gate run whose body blocks until the returned release is called, and
// returns once all gates are executing. Whatever is submitted in between
// queues behind them, so the scheduler's first real dispatch already sees
// the whole backlog — however slowly a starved host submits it. release
// may be called more than once.
func holdSlots(ctx context.Context, rn *runner.Runner, class MachineClass) (release func(), err error) {
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	holding := make(chan struct{}, class.Workers)
	nest, err := repro.Build(func(b *repro.B) {
		b.DoallLeaf("gate", repro.Const(1), func(repro.Env, repro.IVec, int64) {
			holding <- struct{}{}
			<-gate
		})
	})
	if err != nil {
		return nil, err
	}
	prog, err := repro.Compile(nest)
	if err != nil {
		return nil, err
	}
	for i := 0; i < class.Workers; i++ {
		if _, err := rn.Submit(runner.Submission{Program: prog, Options: repro.Options{Procs: class.Procs}}); err != nil {
			release()
			return nil, err
		}
	}
	for i := 0; i < class.Workers; i++ {
		select {
		case <-holding:
		case <-ctx.Done():
			release()
			return nil, ctx.Err()
		}
	}
	return release, nil
}

func tenantKey(t string) string {
	if t == "" {
		return "anonymous"
	}
	return t
}
