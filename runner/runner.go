// Package runner serves scheduling runs: a Runner accepts compiled
// repro Programs, executes up to MaxConcurrent of them in parallel over
// the run-manager subsystem (internal/runmgr), and exposes each run's
// lifecycle, streaming progress snapshots and final Result through a
// Run handle.
//
// Each submission is validated up front with Options.Validate, so a
// misconfigured run is rejected with the repro sentinel errors before
// anything is enqueued. A running submission is cancellable at any
// time: cancellation trips the run's interrupt, the processors drain
// out at their next preemption point (see Program.RunContext), and the
// handle finalizes with context.Canceled while the Runner keeps serving
// other runs.
package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runmgr"
)

// State re-exports the run lifecycle from the run-manager subsystem:
// queued → running → done | failed | cancelled.
type State = runmgr.State

// Lifecycle states.
const (
	StateQueued       = runmgr.StateQueued
	StateRunning      = runmgr.StateRunning
	StateDone         = runmgr.StateDone
	StateFailed       = runmgr.StateFailed
	StateCancelled    = runmgr.StateCancelled
	StateCheckpointed = runmgr.StateCheckpointed
)

// Runner errors (queue conditions come from the manager).
var (
	// ErrNoProgram reports a Submission without a compiled Program.
	ErrNoProgram = errors.New("runner: submission has no program")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = runmgr.ErrClosed
	// ErrQueueFull is returned by Submit when the waiting queue is at
	// QueueLimit.
	ErrQueueFull = runmgr.ErrQueueFull
	// ErrDuplicateID is returned by Submit when the submission's
	// caller-chosen ID is already taken.
	ErrDuplicateID = runmgr.ErrDuplicateID
)

// EventKind re-exports the run-manager's lifecycle event vocabulary.
type EventKind = runmgr.EventKind

// Lifecycle events.
const (
	EventSubmitted = runmgr.EventSubmitted
	EventStarted   = runmgr.EventStarted
	EventSnapshot  = runmgr.EventSnapshot
	EventPreempted = runmgr.EventPreempted
	EventTerminal  = runmgr.EventTerminal
)

// Event is one step of one run's lifecycle, as Config.OnEvent sees it.
// While an EventSnapshot is being consumed, Run.Checkpoint is the restore
// point it announces: the leg that parked it waits for the delivery.
type Event struct {
	Kind EventKind
	Run  *Run
	// Record is the run's Submission.Record, on its EventSubmitted only.
	Record any
}

// Config configures a Runner.
type Config struct {
	// MaxConcurrent is the maximum number of runs executing at once
	// (default 1).
	MaxConcurrent int
	// QueueLimit caps queued (not yet running) submissions; 0 means
	// unbounded.
	QueueLimit int
	// Scheduler selects the queue policy: "" or "fifo" (strict
	// submission order) or "wfq" (per-tenant weighted-fair queueing with
	// priority classes and preemption). New panics on unknown names —
	// validate user-supplied values with runmgr.SchedulerNames first.
	Scheduler string
	// Tenants configures tenant identities and admission limits, keyed
	// by tenant name. Submissions naming an unconfigured tenant run with
	// the zero-value Tenant (weight 1, priority 0, no caps).
	Tenants map[string]Tenant
	// SampleInterval is the period of Watch progress streams (default
	// 50ms).
	SampleInterval time.Duration
	// Metrics, if non-nil, receives the Runner's service metrics: run
	// outcome counters, executor figures aggregated over finished runs,
	// and live census gauges. Callers render them with
	// Registry.WriteProm (loopschedd's GET /metrics does).
	Metrics *obs.Registry
	// Watchdog configures the stuck-run watchdog; the zero value
	// disables it. When enabled, every submission is executed with
	// Diagnostics on so a stuck run's report carries the executor's
	// scheduling-state dump.
	Watchdog WatchdogConfig
	// IDPrefix prefixes runner-assigned run identifiers ("n1-" yields
	// "n1-run-0001"). Cluster nodes set their node name here so run IDs
	// are unique cluster-wide and routable to their owner.
	IDPrefix string
	// OnEvent, if non-nil, receives every run's lifecycle as one sequence
	// — Submitted (Started Snapshot* Preempted)* (Started Snapshot*)?
	// Terminal — emitted where the state changes. Calls come one at a
	// time, in transition order, outside the Runner's locks, and may block
	// (the daemon fsyncs its journal here): Submit returns once its run's
	// Submitted event was consumed, a CheckpointEvery leg resumes once its
	// Snapshot was, Drain covers them all. It must not call Submit.
	OnEvent func(Event)
}

// WatchdogConfig configures stuck-run detection for every submitted
// run. A run is stuck when no scheduling progress (instances activated
// or exited, chunks claimed, iterations executed) has been observed for
// a full Interval; the diagnostic dump is then recorded on the run
// (Progress.Stuck), OnStuck fires, and — with CancelStuck — the run is
// cancelled like any other cancellation.
type WatchdogConfig struct {
	// Interval is the no-progress window; 0 disables the watchdog.
	Interval time.Duration
	// CancelStuck cancels a run once it is declared stuck.
	CancelStuck bool
	// OnStuck, if non-nil, is called each time a run is declared stuck.
	OnStuck func(id, label, diagnostic string)
}

// Submission is one run request.
type Submission struct {
	// Program is the compiled program to run (required).
	Program *repro.Program
	// Options configure the run; they are validated before enqueueing.
	Options repro.Options
	// Timeout, if positive, bounds the run's execution time. An expired
	// run drains out and finalizes as failed with
	// context.DeadlineExceeded.
	Timeout time.Duration
	// Label is a free-form display name.
	Label string
	// ID, if non-empty, is the run identifier to use instead of a
	// runner-assigned one. The daemon's boot-time journal replay uses it
	// to re-queue runs under their original names; a duplicate ID is
	// rejected.
	ID string
	// Tenant attributes the run to a tenant for admission control,
	// fair-share scheduling and per-tenant metrics. Empty is the
	// anonymous tenant (keyless dev mode).
	Tenant string
	// CheckpointEvery, when positive, runs the program as a chain of
	// legs: each leg pauses at a checkpoint after that many chunk claims,
	// parks the snapshot on the handle (Run.Checkpoint), publishes it as
	// an EventSnapshot, and resumes — so a live run always has a recent
	// durable snapshot without ever stopping (the final checkpoint of a
	// pausing or preempted run is its outcome, not a Snapshot). The
	// claim-boundary pause preserves the bit-identity contract: the chained
	// run's iteration set and totals equal an uninterrupted run's. It overrides
	// Options.CheckpointAfter and requires a checkpointable configuration
	// (cursor schemes; see Options.Checkpointable). A RequestCheckpoint
	// or preemption ends the chain at the next leg boundary exactly as it
	// would pause a CheckpointAfter run.
	CheckpointEvery int64
	// Record rides, opaque, to the run's EventSubmitted and is dropped
	// there: what the OnEvent consumer wants to write down about the
	// submission (the daemon journals the wire request).
	Record any
}

// Progress is one streaming snapshot of a run, sampled live from the
// executor counters while the run is in flight.
type Progress struct {
	ID      string        `json:"id"`
	Label   string        `json:"label,omitempty"`
	Tenant  string        `json:"tenant,omitempty"`
	State   string        `json:"state"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// Instances counts loop instances activated so far; InstancesDone
	// counts those completed (the paper's EXIT events).
	Instances     int64 `json:"instances"`
	InstancesDone int64 `json:"instances_done"`
	// Iterations and Chunks count leaf iterations executed and low-level
	// assignments grabbed.
	Iterations int64 `json:"iterations"`
	Chunks     int64 `json:"chunks"`
	// Efficiency is live body time over accounted processor time — the
	// streaming counterpart of Result.Utilization.
	Efficiency float64 `json:"efficiency"`
	// FailedIterations counts iterations quarantined under the isolate
	// failure policy.
	FailedIterations int64 `json:"failed_iterations,omitempty"`
	// Stuck carries the watchdog's diagnostic dump while the run is
	// declared stuck (and, for a run the watchdog cancelled, after it).
	Stuck string `json:"stuck,omitempty"`
	// Error is the failure cause once the run is terminal and not done.
	Error string `json:"error,omitempty"`
}

// Runner executes submitted programs concurrently over a bounded
// worker budget.
type Runner struct {
	mgr      *runmgr.Manager
	sample   time.Duration
	met      *metrics
	tmet     *tenantMetrics
	tenants  map[string]Tenant
	watchdog WatchdogConfig
	onEvent  func(Event)

	// subMu serializes Submit: the tenant admission check and the manager
	// submit are one step.
	subMu sync.Mutex

	// mu guards the tallies and every Run.h: a handle joins the registry
	// (Get, Runs) when its Submitted event is consumed.
	mu      sync.Mutex
	tallies map[string]*tenantTally
}

// metrics aggregates run outcomes into a Config.Metrics registry.
type metrics struct {
	submitted, done, failed, cancelled      *obs.Counter
	checkpointed, budgetExceeded            *obs.Counter
	iterations, instances, chunks, searches *obs.Counter
	accesses, busy                          *obs.Counter
	adaptFits, adaptSwitches                *obs.Counter

	sweeps, sweepWalked, sweepLockFailures *obs.Counter
	sweepRetests, sweepSaturated           *obs.Counter
	icbAllocs, icbReuses                   *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		submitted: reg.Counter("runner_runs_submitted_total", "Runs accepted by Submit."),
		done:      reg.Counter("runner_runs_done_total", "Runs finished successfully."),
		failed:    reg.Counter("runner_runs_failed_total", "Runs finalized with an error (including expired timeouts)."),
		cancelled: reg.Counter("runner_runs_cancelled_total", "Runs cancelled before completion."),
		checkpointed: reg.Counter("runner_runs_checkpointed_total",
			"Runs that paused at a checkpoint with a resumable snapshot."),
		budgetExceeded: reg.Counter("runner_runs_budget_exceeded_total",
			"Runs that exhausted their execution budget before completing."),
		iterations: reg.Counter("runner_iterations_total", "Loop iterations executed by finished runs."),
		instances:  reg.Counter("runner_instances_total", "Loop instances activated by finished runs."),
		chunks:     reg.Counter("runner_chunks_total", "Low-level iteration assignments grabbed by finished runs."),
		searches:   reg.Counter("runner_searches_total", "Task-pool SEARCH calls by finished runs."),
		accesses:   reg.Counter("runner_sync_accesses_total", "Synchronization-variable accesses by finished runs."),
		busy:       reg.Counter("runner_busy_time_total", "Summed per-processor busy time of finished runs (engine units)."),
		adaptFits: reg.Counter("runner_adapt_fits_total",
			"Adaptive-policy model fits performed by finished runs."),
		adaptSwitches: reg.Counter("runner_adapt_switches_total",
			"Adaptive-policy scheme switches performed by finished runs."),
		sweeps: reg.Counter("runner_pool_sweeps_total",
			"Task-pool SW sweeps (leading-one scans) by finished runs."),
		sweepWalked: reg.Counter("runner_pool_walked_total",
			"Task-pool lists examined across sweeps by finished runs."),
		sweepLockFailures: reg.Counter("runner_pool_lock_failures_total",
			"Task-pool list-lock acquisition failures by finished runs."),
		sweepRetests: reg.Counter("runner_pool_retests_total",
			"Task-pool SW retests that found the list emptied under the lock."),
		sweepSaturated: reg.Counter("runner_pool_saturated_total",
			"Task-pool adoption attempts that found every ICB saturated."),
		icbAllocs: reg.Counter("runner_icb_allocs_total",
			"Instance control blocks freshly allocated by finished runs."),
		icbReuses: reg.Counter("runner_icb_reuses_total",
			"Instance control blocks adopted from worker freelists by finished runs."),
	}
}

// finish folds one terminal run into the registry.
func (m *metrics) finish(res *repro.Result, err error) {
	switch {
	case err == nil:
		m.done.Inc()
	case errors.Is(err, repro.ErrCheckpointed), errors.Is(err, runmgr.ErrCheckpointed):
		// The job wraps the repro checkpoint error with the manager's
		// sentinel (flattening the original chain), so the fold — which
		// now happens at handle finalization — matches either.
		m.checkpointed.Inc()
	case errors.Is(err, repro.ErrBudgetExceeded):
		m.budgetExceeded.Inc()
	case errors.Is(err, context.Canceled):
		m.cancelled.Inc()
	default:
		m.failed.Inc()
	}
	if res == nil {
		return
	}
	m.iterations.Add(res.Stats.Iterations)
	m.instances.Add(res.Stats.Instances)
	m.chunks.Add(res.Stats.Chunks)
	m.searches.Add(res.Stats.Searches)
	var acc, busy int64
	for _, a := range res.Accesses {
		acc += a
	}
	for _, b := range res.Busy {
		busy += b
	}
	m.accesses.Add(acc)
	m.busy.Add(busy)
	m.adaptFits.Add(res.Stats.AdaptFits)
	m.adaptSwitches.Add(res.Stats.AdaptSwitches)
	m.sweeps.Add(res.Stats.Search.Sweeps)
	m.sweepWalked.Add(res.Stats.Search.Walked)
	m.sweepLockFailures.Add(res.Stats.Search.LockFailures)
	m.sweepRetests.Add(res.Stats.Search.Retests)
	m.sweepSaturated.Add(res.Stats.Search.Saturated)
	m.icbAllocs.Add(res.Stats.ICBAllocs)
	m.icbReuses.Add(res.Stats.ICBReuses)
}

// New returns a Runner with the given configuration.
func New(cfg Config) *Runner {
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 50 * time.Millisecond
	}
	wd := runmgr.Watchdog{
		Interval:    cfg.Watchdog.Interval,
		CancelStuck: cfg.Watchdog.CancelStuck,
	}
	if cfg.Watchdog.OnStuck != nil {
		onStuck := cfg.Watchdog.OnStuck
		wd.OnStuck = func(r *runmgr.Run, diagnostic string) {
			onStuck(r.ID(), r.Label(), diagnostic)
		}
	}
	sched, err := runmgr.NewScheduler(cfg.Scheduler)
	if err != nil {
		// A scheduler name reaches here from code, not users: loopschedd
		// validates its -scheduler flag before constructing the Runner.
		panic(err)
	}
	rn := &Runner{
		sample:   cfg.SampleInterval,
		watchdog: cfg.Watchdog,
		tenants:  cfg.Tenants,
		onEvent:  cfg.OnEvent,
		tallies:  map[string]*tenantTally{},
	}
	rn.mgr = runmgr.New(runmgr.Config{
		MaxConcurrent: cfg.MaxConcurrent,
		QueueLimit:    cfg.QueueLimit,
		Scheduler:     sched,
		Watchdog:      wd,
		IDPrefix:      cfg.IDPrefix,
		OnEvent:       rn.consume,
	})
	if cfg.Metrics != nil {
		rn.met = newMetrics(cfg.Metrics)
		rn.tmet = newTenantMetrics(cfg.Metrics)
		mgr := rn.mgr
		cfg.Metrics.Gauge("runner_queue_depth", "Submissions waiting to start.",
			func() float64 { return float64(mgr.Stats().QueueDepth) })
		cfg.Metrics.Gauge("runner_running", "Runs currently executing.",
			func() float64 { return float64(mgr.Stats().Running) })
		cfg.Metrics.Gauge("runner_preempted", "Preemption requeues performed by the scheduler.",
			func() float64 { return float64(mgr.Stats().Preempted) })
	}
	return rn
}

// Submit validates and enqueues a run. It returns the run's handle, or
// a validation error (errors.Is-able against the repro sentinels) /
// queue error without enqueueing anything.
func (rn *Runner) Submit(sub Submission) (*Run, error) {
	if sub.Program == nil {
		return nil, ErrNoProgram
	}
	if err := sub.Options.Validate(); err != nil {
		return nil, err
	}
	r := &Run{sample: rn.sample, record: sub.Record}
	// The job closure below holds sub for as long as the manager retains
	// the run; the record must not ride along past its Submitted event.
	sub.Record = nil
	opts := sub.Options
	userObserve := opts.Observe
	opts.Observe = func(lv repro.Live) {
		r.probe.Store(&lv)
		if userObserve != nil {
			userObserve(lv)
		}
	}
	ten := rn.tenants[sub.Tenant]
	job := runmgr.Job{
		Payload:  r,
		Label:    sub.Label,
		Tenant:   sub.Tenant,
		Weight:   ten.Weight,
		Priority: ten.Priority,
		Run: func(ctx context.Context) (any, error) {
			// A fresh attempt consumes any yield request from a previous
			// one: the request targeted the attempt that already paused.
			r.yield.Store(false)
			attempt := opts
			if ck := r.ckpt.Load(); ck != nil {
				// Redispatch after a preemption (or the next leg of a
				// CheckpointEvery chain): resume from the parked snapshot so
				// no prior work is repeated. Verify is dropped for resumed
				// attempts — the trace cannot observe pre-checkpoint
				// iterations.
				attempt.Resume = ck
				attempt.Verify = false
			}
			if sub.Timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, sub.Timeout)
				defer cancel()
			}
			for {
				if sub.CheckpointEvery > 0 {
					attempt.CheckpointAfter = sub.CheckpointEvery
				}
				res, err := sub.Program.RunContext(ctx, attempt)
				var cke *repro.CheckpointedError
				if errors.As(err, &cke) {
					// Keep the snapshot on the handle. A plain CheckpointAfter
					// run (or a chain asked to yield — pause request,
					// preemption, cancellation) surfaces the checkpoint as its
					// outcome: the manager either requeues (preemption in
					// flight — the next attempt resumes from the snapshot) or
					// finalizes as checkpointed (terminal and resumable, not a
					// failure). A chain leg otherwise publishes its snapshot and
					// resumes.
					r.ckpt.Store(cke.Checkpoint)
					if sub.CheckpointEvery <= 0 || r.yield.Load() || ctx.Err() != nil {
						return nil, fmt.Errorf("%v: %w", err, runmgr.ErrCheckpointed)
					}
					r.snapshots.Add(1)
					runmgr.EmitSnapshot(ctx)
					attempt.Resume = cke.Checkpoint
					attempt.Verify = false
					continue
				}
				var be *repro.BudgetExceededError
				if errors.As(err, &be) && be.Checkpoint != nil {
					// Budget exhaustion on a checkpointable run: park the
					// snapshot so a client can resubmit it with a fresh budget.
					r.ckpt.Store(be.Checkpoint)
				}
				return res, err
			}
		},
	}
	if opts.UsesCheckpoint() || sub.CheckpointEvery > 0 {
		// Cooperative preemption: a checkpointable run yields through a
		// snapshot, preserving its exact progress across the requeue.
		// RequestCheckpoint reports false before the probe exists; the
		// manager then falls back to cancelling the attempt.
		job.Preempt = func() bool { return r.RequestCheckpoint() }
	}
	if rn.watchdog.Interval > 0 {
		// A stuck-run report is only useful with the executor's
		// scheduling-state dump, so watched runs track live instances —
		// and carry a flight recorder, so the dump ends with the last
		// scheduling events before the stall.
		opts.Diagnostics = true
		if opts.FlightRecorder <= 0 {
			opts.FlightRecorder = watchdogFlightEvents
		}
		job.Heartbeat = func() int64 {
			lv := r.probe.Load()
			if lv == nil {
				return 0
			}
			sn := (*lv).LiveStats()
			// Any scheduling progress counts: a long-running chunk still
			// advances Iterations, a drain still advances Exits.
			return sn.Instances + sn.Exits + sn.Chunks + sn.Iterations
		}
		job.Diagnose = func() string {
			if lv := r.probe.Load(); lv != nil {
				if d, ok := (*lv).(core.Diagnoser); ok {
					return d.Diagnose()
				}
			}
			return "(no probe: run not started)"
		}
	}
	rn.subMu.Lock()
	defer rn.subMu.Unlock()
	if err := rn.admit(sub.Tenant); err != nil {
		name := tenantName(sub.Tenant)
		rn.mu.Lock()
		rn.tally(name).rejected++
		rn.mu.Unlock()
		if rn.tmet != nil {
			rn.tmet.rejected.With(name).Inc()
		}
		return nil, err
	}
	if _, err := rn.mgr.SubmitID(sub.ID, job); err != nil {
		return nil, err
	}
	return r, nil
}

// consume is the Runner's end of the manager's event stream: it folds
// each event into the registry, the tenant tallies and the metrics, then
// hands it on to Config.OnEvent. Outcomes fold once per run, on Terminal
// — a preempted-and-resumed run counts once, with its final result.
func (rn *Runner) consume(ev runmgr.Event) {
	out := Event{Kind: ev.Kind, Run: ev.Run.Payload().(*Run)}
	name := tenantName(ev.Run.Tenant())
	var res *repro.Result
	var err error
	if ev.Kind == EventTerminal {
		var v any
		v, err = ev.Run.Result()
		res, _ = v.(*repro.Result)
	}
	rn.mu.Lock()
	t := rn.tally(name)
	switch ev.Kind {
	case EventSubmitted:
		// Submit is inside SubmitID waiting for this delivery; the handle
		// is registered before anything else about the run is published.
		out.Run.h = ev.Run
		out.Record, out.Run.record = out.Run.record, nil
		t.submitted++
	case EventPreempted:
		t.preempted++
	case EventTerminal:
		if err == nil {
			t.done++
		} else {
			t.failed++
		}
		if res != nil {
			t.iterations += res.Stats.Iterations
		}
	}
	rn.mu.Unlock()
	if rn.met != nil {
		switch ev.Kind {
		case EventSubmitted:
			rn.met.submitted.Inc()
			rn.tmet.submitted.With(name).Inc()
		case EventTerminal:
			rn.met.finish(res, err)
			rn.tmet.finish(name, res, err)
		}
	}
	if rn.onEvent != nil {
		rn.onEvent(out)
	}
}

// Get returns the run with the given ID.
func (rn *Runner) Get(id string) (*Run, bool) {
	h, ok := rn.mgr.Get(id)
	if !ok {
		return nil, false
	}
	r := h.Payload().(*Run)
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if r.h == nil {
		return nil, false
	}
	return r, true
}

// Runs returns all runs in submission order.
func (rn *Runner) Runs() []*Run {
	hs := rn.mgr.Runs()
	out := make([]*Run, 0, len(hs))
	rn.mu.Lock()
	defer rn.mu.Unlock()
	for _, h := range hs {
		if r := h.Payload().(*Run); r.h != nil {
			out = append(out, r)
		}
	}
	return out
}

// Stats re-exports the run-manager census (queue depth, per-state run
// counts, worker budget), for health and monitoring endpoints.
type Stats = runmgr.Stats

// Stats returns the current run census.
func (rn *Runner) Stats() Stats { return rn.mgr.Stats() }

// Close stops accepting submissions and cancels every live run.
func (rn *Runner) Close() { rn.mgr.Close() }

// Drain blocks until every submitted run is terminal or ctx expires.
func (rn *Runner) Drain(ctx context.Context) error { return rn.mgr.Drain(ctx) }

// watchdogFlightEvents is the per-processor flight-recorder capacity the
// watchdog forces onto watched runs that did not request their own.
const watchdogFlightEvents = 64

// Run is the handle of one submitted program run.
type Run struct {
	h      *runmgr.Run
	record any // Submission.Record until the Submitted event takes it
	sample time.Duration
	probe  atomic.Pointer[repro.Live]
	ckpt   atomic.Pointer[repro.Checkpoint]
	// yield distinguishes "someone wants this run to stop at its next
	// checkpoint" (pause request, preemption) from the chain-internal
	// checkpoints a CheckpointEvery run takes and rides through.
	yield atomic.Bool
	// snapshots counts the periodic snapshots a CheckpointEvery chain
	// has parked (not the terminal checkpoint of a paused run).
	snapshots atomic.Int64
}

// ID returns the runner-assigned identifier.
func (r *Run) ID() string { return r.h.ID() }

// Label returns the submission label.
func (r *Run) Label() string { return r.h.Label() }

// State returns the current lifecycle state.
func (r *Run) State() State { return r.h.State() }

// Done returns a channel closed when the run is terminal.
func (r *Run) Done() <-chan struct{} { return r.h.Done() }

// Started returns a channel closed when the run is dispatched out of
// the queue. A run cancelled while still queued never signals it; wait
// on Done alongside it.
func (r *Run) Started() <-chan struct{} { return r.h.Started() }

// Cancel requests cancellation; the run finalizes with context.Canceled
// once its processors drain out (immediately if it was still queued).
func (r *Run) Cancel() { r.h.Cancel() }

// RequestCheckpoint asks a running checkpointable run to pause at its
// next claim boundary and capture a snapshot. It reports false when the
// run has not started, has no probe yet, or was not submitted with
// Options.Checkpointable (or CheckpointAfter/Resume); the pause itself
// completes asynchronously — wait on Done, then read Checkpoint.
func (r *Run) RequestCheckpoint() bool {
	lv := r.probe.Load()
	if lv == nil {
		return false
	}
	ck, ok := (*lv).(core.Checkpointer)
	if !ok {
		return false
	}
	// Raise yield before the core request so a CheckpointEvery chain
	// cannot observe the resulting pause and mistake it for one of its
	// own periodic checkpoints.
	r.yield.Store(true)
	if ck.RequestCheckpoint() {
		return true
	}
	r.yield.Store(false)
	return false
}

// Checkpoint returns the run's parked snapshot: set when the run
// finalized as StateCheckpointed, for a checkpointable run that failed
// with repro.ErrBudgetExceeded (resubmit it with Options.Resume and a
// fresh budget), and — continuously, while the run is still live — the
// latest periodic snapshot of a CheckpointEvery chain. Nil otherwise.
func (r *Run) Checkpoint() *repro.Checkpoint { return r.ckpt.Load() }

// Snapshots returns how many periodic snapshots a CheckpointEvery
// chain has parked so far (0 for unchained runs).
func (r *Run) Snapshots() int64 { return r.snapshots.Load() }

// Tenant returns the submission's tenant ("" for anonymous work).
func (r *Run) Tenant() string { return r.h.Tenant() }

// Times returns when the run was submitted, started and finished; zero
// times for transitions that have not happened. A preempted run's start
// time is its latest dispatch.
func (r *Run) Times() (submitted, started, finished time.Time) { return r.h.Times() }

// Result returns the run's outcome once terminal. While the run is
// live it returns runmgr.ErrNotFinished; a cancelled run returns
// context.Canceled.
func (r *Run) Result() (*repro.Result, error) {
	v, err := r.h.Result()
	if err != nil {
		return nil, err
	}
	res, ok := v.(*repro.Result)
	if !ok {
		return nil, fmt.Errorf("runner: run %s produced %T, not a result", r.h.ID(), v)
	}
	return res, nil
}

// Wait blocks until the run is terminal (returning its outcome) or ctx
// expires (returning ctx's error without affecting the run).
func (r *Run) Wait(ctx context.Context) (*repro.Result, error) {
	if _, err := r.h.Wait(ctx); err != nil {
		return nil, err
	}
	return r.Result()
}

// Progress samples the run's live counters into one snapshot. It is
// safe to call at any time from any goroutine.
func (r *Run) Progress() Progress {
	p := Progress{ID: r.h.ID(), Label: r.h.Label(), Tenant: r.Tenant()}
	st := r.h.State()
	p.State = st.String()
	_, started, finished := r.h.Times()
	if !started.IsZero() {
		end := finished
		if end.IsZero() {
			end = time.Now()
		}
		p.Elapsed = end.Sub(started)
	}
	if lv := r.probe.Load(); lv != nil {
		sn := (*lv).LiveStats()
		p.Instances = sn.Instances
		p.InstancesDone = sn.Exits
		p.Iterations = sn.Iterations
		p.Chunks = sn.Chunks
		p.Efficiency = sn.Efficiency()
		p.FailedIterations = sn.FailedIterations
	}
	if diag, stuck := r.h.Stuck(); stuck {
		p.Stuck = diag
	}
	if st.Terminal() && st != StateDone {
		if _, err := r.h.Result(); err != nil {
			p.Error = err.Error()
		}
	}
	return p
}

// Watch streams progress snapshots every SampleInterval until the run
// is terminal or ctx expires. The channel carries a final snapshot for
// the terminal state, then closes. Intermediate snapshots are dropped
// rather than buffered when the receiver falls behind.
func (r *Run) Watch(ctx context.Context) <-chan Progress {
	ch := make(chan Progress, 1)
	go func() {
		defer close(ch)
		t := time.NewTicker(r.sample)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-r.h.Done():
				select {
				case ch <- r.Progress():
				case <-ctx.Done():
				}
				return
			case <-t.C:
				select {
				case ch <- r.Progress():
				default:
				}
			}
		}
	}()
	return ch
}
