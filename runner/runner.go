// Package runner serves scheduling runs: a Runner accepts compiled
// repro Programs, executes up to MaxConcurrent of them in parallel over a
// bounded worker budget, and exposes each run's lifecycle
//
//	queued → running → done | failed | cancelled | checkpointed
//
// its streaming progress snapshots and its final Result through a Run
// handle. Every transition is published where it happens, as one ordered
// event stream (Config.OnEvent): nothing watches a run to learn its
// state.
//
// Each submission is validated up front with Options.Validate, so a
// misconfigured run is rejected with the repro sentinel errors before
// anything is enqueued. A run is cancellable at any point: a queued run
// finalizes without ever starting; a running one has its interrupt
// tripped, the processors drain out at their next preemption point (see
// Program.RunContext), and the handle finalizes with context.Canceled
// while the Runner keeps serving other runs.
//
// A run has one control block — the Run — and the Runner one lock: the
// registry, the queue, the run and tenant censuses and admission all
// move together under it (lifecycle.go).
package runner

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
)

// Runner errors.
var (
	// ErrNoProgram reports a Submission without a compiled Program.
	ErrNoProgram = errors.New("runner: submission has no program")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("runner: closed")
	// ErrQueueFull is returned by Submit when QueueLimit runs are already
	// waiting.
	ErrQueueFull = errors.New("runner: queue full")
	// ErrDuplicateID is returned by Submit when the submission's
	// caller-chosen ID is already taken: held now, or held and released.
	// Callers that chose the ID themselves (the cluster placement path)
	// treat it as proof the run exists or existed.
	ErrDuplicateID = errors.New("runner: run already exists")
	// ErrNotFound is returned by Lookup for an ID this Runner never held.
	ErrNotFound = errors.New("runner: no such run")
	// ErrReleased is returned by Lookup for an ID this Runner held and has
	// since released: its run was terminal and Retain newer outcomes
	// pushed it out of the table, or MarkReleased recorded it as ended in
	// an earlier life.
	ErrReleased = errors.New("runner: run released")
	// errNotFinished is returned by Run.Result while the run is live.
	errNotFinished = errors.New("runner: run not finished")
)

// DefaultRetain is the number of terminal runs a Runner keeps when
// Config.Retain is zero.
const DefaultRetain = 1024

// Config configures a Runner.
type Config struct {
	// MaxConcurrent is the worker budget: the maximum number of runs
	// executing at once (default 1).
	MaxConcurrent int
	// QueueLimit caps queued (not yet running) submissions; 0 means
	// unbounded. Submissions beyond the cap fail with ErrQueueFull rather
	// than blocking, so a serving frontend can shed load.
	QueueLimit int
	// Tenants configures tenant identities, dispatch shares and admission
	// limits, keyed by tenant name; keyless work (Submission.Tenant "") is
	// the tenant named "anonymous". Submissions naming an unconfigured
	// tenant run with the zero-value Tenant (weight 1, priority 0, no
	// caps). Queued runs dispatch weighted-fair across tenants, by priority
	// class first (sched.go); with one tenant, in submission order.
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
	// Retain caps the terminal runs kept for lookup (default
	// DefaultRetain). Past it the oldest outcome, in finish order, leaves
	// the table: Lookup answers ErrReleased for its ID, and a handle already
	// held keeps working. Live runs are never released.
	Retain int
	// OnEvent, if non-nil, receives every run's lifecycle as one sequence
	//
	//	Submitted (Started Snapshot* Preempted)* (Started Snapshot*)? Terminal
	//
	// with exactly one Terminal, each event queued by the transition itself.
	// Calls come one at a time, in transition order, outside the Runner's
	// lock, and may block (the daemon fsyncs its journal here): Submit
	// returns once its run's Submitted event was consumed, a
	// CheckpointEvery leg resumes once its Snapshot was, Drain covers them
	// all. It must not call Submit.
	OnEvent func(Event)
}

// WatchdogConfig configures stuck-run detection for every submitted
// run. A run is stuck when no scheduling progress (instances activated
// or exited, chunks claimed, iterations executed) has been observed for
// a full Interval; the diagnostic dump is then recorded on the run
// (Progress.Stuck), OnStuck fires, and — with CancelStuck — the run is
// cancelled like any other cancellation. A run whose progress later
// resumes is cleared again.
type WatchdogConfig struct {
	// Interval is the no-progress window; 0 disables the watchdog.
	Interval time.Duration
	// CancelStuck cancels a run once it is declared stuck (after the
	// diagnostic dump is captured).
	CancelStuck bool
	// OnStuck, if non-nil, is called (outside the Runner's lock) each time
	// a run is declared stuck.
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
	// run's iteration set and totals equal an uninterrupted run's, and its
	// Result sums every leg's time and work. It overrides CheckpointAfter;
	// Submit refuses it on a run that is not Resumable. A RequestCheckpoint
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
	cfg  Config // defaults applied
	met  *metrics
	tmet *tenantMetrics

	// mu is the Runner's one lock. It guards everything below and the
	// fields of every Run and ledger marked so.
	mu sync.Mutex
	// byID is the run table: the live runs and the retained terminal ones.
	// submitted counts every run ever accepted. held records, per ID
	// series (an ID minus its trailing digits), the numbers of every run
	// accepted, so a lookup tells a released ID from one never held; seq
	// is the highest number of the Runner's own series accepted or
	// reserved, so fresh IDs never repeat one.
	byID      map[string]*Run
	submitted int
	held      map[string]spans
	seq       int
	// live holds the queued and running runs (Run.liveAt is the run's
	// index), running the executing ones — at most MaxConcurrent, and
	// retained the terminal runs still in byID, oldest outcome first — at
	// most Retain. The transitions keep all three, so Close, Drain, the
	// preemption scan and the table cost the same however many runs were
	// ever served.
	live     []*Run
	running  []*Run
	retained []*Run
	closed   bool
	// census counts runs by state (each tenant's ledger does the same for
	// its own); stalled counts the live runs the watchdog declares stuck,
	// preempted the preemption requeues.
	census    census
	stalled   int
	preempted int
	// ledgers is every tenant's record, its dispatch queue included;
	// queued counts the entries of those queues and vnow is their virtual
	// time (sched.go).
	ledgers map[string]*ledger
	queued  int
	vnow    float64
	// events is the undelivered tail of the event stream and pumping says a
	// pump goroutine is on it; delivered is closed once the most recently
	// queued event — and so every event before it — has been delivered.
	events    []queuedEvent
	delivered <-chan struct{}
	pumping   bool
}

// metrics aggregates run outcomes into a Config.Metrics registry.
type metrics struct {
	submitted, done, failed, cancelled *obs.Counter
	checkpointed, budgetExceeded       *obs.Counter
	// totals[i] sums resultMetrics[i] over the finished runs.
	totals []*obs.Counter
}

// resultMetrics is the one table of the per-run figures the registry
// re-exports as totals over finished runs: registration (newMetrics) and
// accumulation (finish) both loop over it, in this order.
var resultMetrics = []struct {
	name, help string
	get        func(*repro.Result) int64
}{
	{"runner_iterations_total", "Loop iterations executed by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.Iterations }},
	{"runner_instances_total", "Loop instances activated by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.Instances }},
	{"runner_chunks_total", "Low-level iteration assignments grabbed by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.Chunks }},
	{"runner_searches_total", "Task-pool SEARCH calls by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.Searches }},
	{"runner_sync_accesses_total", "Synchronization-variable accesses by finished runs.",
		func(r *repro.Result) int64 { return sum(r.Accesses) }},
	{"runner_busy_time_total", "Summed per-processor busy time of finished runs (engine units).",
		func(r *repro.Result) int64 { return sum(r.Busy) }},
	{"runner_adapt_fits_total", "Adaptive-policy model fits performed by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.AdaptFits }},
	{"runner_adapt_switches_total", "Adaptive-policy scheme switches performed by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.AdaptSwitches }},
	{"runner_pool_sweeps_total", "Task-pool SW sweeps (leading-one scans) by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.Search.Sweeps }},
	{"runner_pool_walked_total", "Task-pool lists examined across sweeps by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.Search.Walked }},
	{"runner_pool_lock_failures_total", "Task-pool list-lock acquisition failures by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.Search.LockFailures }},
	{"runner_pool_retests_total", "Task-pool SW retests that found the list emptied under the lock.",
		func(r *repro.Result) int64 { return r.Stats.Search.Retests }},
	{"runner_pool_saturated_total", "Task-pool adoption attempts that found every ICB saturated.",
		func(r *repro.Result) int64 { return r.Stats.Search.Saturated }},
	{"runner_icb_allocs_total", "Instance control blocks freshly allocated by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.ICBAllocs }},
	{"runner_icb_reuses_total", "Retired instance control blocks recycled for a later instance of the same run, by finished runs.",
		func(r *repro.Result) int64 { return r.Stats.ICBReuses }},
}

func sum(xs []int64) (t int64) {
	for _, x := range xs {
		t += x
	}
	return t
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		submitted: reg.Counter("runner_runs_submitted_total", "Runs accepted by Submit."),
		done:      reg.Counter("runner_runs_done_total", "Runs finished successfully."),
		failed:    reg.Counter("runner_runs_failed_total", "Runs finalized with an error (including expired timeouts)."),
		cancelled: reg.Counter("runner_runs_cancelled_total", "Runs cancelled before completion."),
		checkpointed: reg.Counter("runner_runs_checkpointed_total",
			"Runs that paused at a checkpoint with a resumable snapshot."),
		budgetExceeded: reg.Counter("runner_runs_budget_exceeded_total",
			"Runs that exhausted their execution budget before completing."),
	}
	for _, row := range resultMetrics {
		m.totals = append(m.totals, reg.Counter(row.name, row.help))
	}
	return m
}

// finish folds one terminal run into the registry.
func (m *metrics) finish(res *repro.Result, err error) {
	switch {
	case err == nil:
		m.done.Inc()
	case errors.Is(err, repro.ErrCheckpointed):
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
	for i, row := range resultMetrics {
		m.totals[i].Add(row.get(res))
	}
}

// New returns a Runner with the given configuration.
func New(cfg Config) *Runner {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 50 * time.Millisecond
	}
	if cfg.Retain <= 0 {
		cfg.Retain = DefaultRetain
	}
	rn := &Runner{cfg: cfg, byID: map[string]*Run{}, held: map[string]spans{}, ledgers: map[string]*ledger{}}
	for name := range cfg.Tenants {
		rn.ledgerLocked(name)
	}
	if cfg.Metrics != nil {
		rn.met = newMetrics(cfg.Metrics)
		rn.tmet = newTenantMetrics(cfg.Metrics)
		cfg.Metrics.Gauge("runner_queue_depth", "Submissions waiting to start.",
			func() float64 { return float64(rn.Stats().QueueDepth) })
		cfg.Metrics.Gauge("runner_running", "Runs currently executing.",
			func() float64 { return float64(rn.Stats().Running) })
		cfg.Metrics.Gauge("runner_preempted", "Preemption requeues performed by the scheduler.",
			func() float64 { return float64(rn.Stats().Preempted) })
	}
	return rn
}

// Submit validates and enqueues a run. It returns the run's handle, or
// a validation error (errors.Is-able against the repro sentinels) /
// queue error without enqueueing anything. The run starts immediately if
// the worker budget has room, otherwise it waits its turn in its tenant's
// queue.
func (rn *Runner) Submit(sub Submission) (*Run, error) {
	if sub.Program == nil {
		return nil, ErrNoProgram
	}
	if err := sub.Options.Validate(); err != nil {
		return nil, err
	}
	if sub.CheckpointEvery > 0 {
		if err := Resumable(sub.Program, sub.Options); err != nil {
			return nil, fmt.Errorf("runner: checkpoint every %d claims: %w", sub.CheckpointEvery, err)
		}
	}
	r := &Run{id: sub.ID, label: sub.Label, tenant: sub.Tenant, traced: sub.Options.Verify || sub.Options.CollectTrace}
	opts := sub.Options
	userObserve := opts.Observe
	opts.Observe = func(lv repro.Live) {
		r.probe.Store(&lv)
		if userObserve != nil {
			userObserve(lv)
		}
	}
	if rn.cfg.Watchdog.Interval > 0 {
		// A stuck-run report is only useful with the executor's
		// scheduling-state dump, so watched runs track live instances —
		// and carry a flight recorder, so the dump ends with the last
		// scheduling events before the stall.
		opts.Diagnostics = true
	}
	// The body holds only what an attempt needs, for as long as the run is
	// live: not the Submission, whose Record rides to the Submitted event
	// and is dropped there.
	prog, timeout, every := sub.Program, sub.Timeout, sub.CheckpointEvery
	// paused sums the Makespan, Busy and Accesses of the legs run since the
	// last start from scratch: chain legs and resumed preemptions.
	var paused repro.Result
	r.body = func(ctx context.Context) (*repro.Result, error) {
		// A fresh attempt consumes any yield request from a previous
		// one: the request targeted the attempt that already paused.
		r.yield.Store(false)
		attempt := opts
		if ck := r.ckpt.Load(); ck != nil && !r.traced {
			// Redispatch after a preemption: resume from the parked snapshot
			// so no prior work is repeated. (A traced run parks one only when
			// its own CheckpointAfter pause raced the preemption; it restarts.)
			attempt.Resume = ck
		} else {
			paused = repro.Result{} // a restart replaces what earlier attempts ran
		}
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		return r.legs(ctx, attempt, every, &paused, prog.RunContext)
	}
	if err := rn.submit(r, sub.Record); err != nil {
		return nil, err
	}
	return r, nil
}

// Resumable reports whether the runner resumes a run of prog under opts
// from the run's own snapshots: the run can pause (Program.CanCheckpoint)
// and records no trace (Verify, CollectTrace), which could not hold the
// iterations run before a pause. Preemption resumes such a run and
// restarts any other; Submit refuses CheckpointEvery on any other. It
// returns nil or an error matching repro.ErrNotCheckpointable (or the
// option error Run would return).
func Resumable(prog *repro.Program, opts repro.Options) error {
	if opts.Verify || opts.CollectTrace {
		return fmt.Errorf("%w: the run records a trace (verify), which cannot hold the iterations run before a pause",
			repro.ErrNotCheckpointable)
	}
	return prog.CanCheckpoint(opts)
}

// addTo adds src to dst element-wise (every leg of a run has the same
// processor count); a nil dst takes a copy of src.
func addTo(dst, src []int64) []int64 {
	if dst == nil {
		return slices.Clone(src)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// legs runs one attempt through leg: once, or with every > 0 as a chain
// of legs that each pause after every chunk claims, park and publish the
// snapshot, and resume from it. Every leg that pauses is added to
// paused, so the Result of the leg that completes the run covers it all.
func (r *Run) legs(ctx context.Context, attempt repro.Options, every int64, paused *repro.Result,
	leg func(context.Context, repro.Options) (*repro.Result, error)) (*repro.Result, error) {
	for {
		if every > 0 {
			attempt.CheckpointAfter = every
		}
		res, err := leg(ctx, attempt)
		var cke *repro.CheckpointedError
		if errors.As(err, &cke) {
			paused.Makespan += cke.Elapsed
			paused.Busy, paused.Accesses = addTo(paused.Busy, cke.Busy), addTo(paused.Accesses, cke.Accesses)
			// Keep the snapshot on the handle. A plain CheckpointAfter run,
			// or a chain asked to yield (pause request, preemption),
			// surfaces the checkpoint as its outcome: exec either requeues
			// (preemption in flight — the next attempt resumes from the
			// snapshot) or finalizes as checkpointed (terminal and
			// resumable, not a failure). A chain leg otherwise publishes its
			// snapshot and resumes — unless a cancel or the deadline landed
			// on its pause: that ends the run as the context says, with the
			// snapshot parked as for any stopped run.
			r.ckpt.Store(cke.Checkpoint)
			if every <= 0 || r.yield.Load() {
				return nil, err
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			r.emitSnapshot()
			attempt.Resume = cke.Checkpoint
			continue
		}
		var be *repro.BudgetExceededError
		if errors.As(err, &be) && be.Checkpoint != nil {
			// Budget exhaustion on a run that can pause: park the
			// snapshot so a client can resubmit it with a fresh budget.
			r.ckpt.Store(be.Checkpoint)
		}
		if err == nil && paused.Makespan > 0 {
			res.Makespan += paused.Makespan
			res.Busy, res.Accesses = addTo(res.Busy, paused.Busy), addTo(res.Accesses, paused.Accesses)
			var busy int64
			for _, b := range res.Busy {
				busy += b
			}
			res.Utilization = float64(busy) / float64(int64(len(res.Busy))*res.Makespan)
		}
		return res, err
	}
}

// Get returns the run with the given ID, if the Runner holds it.
func (rn *Runner) Get(id string) (*Run, bool) {
	r, err := rn.Lookup(id)
	return r, err == nil
}

// Lookup returns the run with the given ID: ErrReleased when the Runner
// held it and has released it, ErrNotFound when it never held it.
func (rn *Runner) Lookup(id string) (*Run, error) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	if r, ok := rn.byID[id]; ok {
		return r, nil
	}
	if rn.heldLocked(id) {
		return nil, ErrReleased
	}
	return nil, ErrNotFound
}

// Runs returns the live and retained runs in submission order.
func (rn *Runner) Runs() []*Run {
	rn.mu.Lock()
	runs := append(append([]*Run(nil), rn.live...), rn.retained...)
	rn.mu.Unlock()
	slices.SortFunc(runs, func(a, b *Run) int { return a.order - b.order })
	return runs
}

// Stats is a point-in-time census of a Runner's runs, for health and
// monitoring endpoints.
type Stats struct {
	// Submitted counts every run ever accepted.
	Submitted int `json:"submitted"`
	// QueueDepth counts runs waiting to start.
	QueueDepth int `json:"queue_depth"`
	// Running counts runs currently executing.
	Running int `json:"running"`
	// Done, Failed, Cancelled and Checkpointed count terminal runs by
	// outcome.
	Done         int `json:"done"`
	Failed       int `json:"failed"`
	Cancelled    int `json:"cancelled"`
	Checkpointed int `json:"checkpointed"`
	// Stalled counts live runs the watchdog currently declares stuck.
	Stalled int `json:"stalled"`
	// Preempted counts preemption requeues: every time a running run was
	// evicted in favor of a higher-priority submission.
	Preempted int `json:"preempted"`
	// MaxConcurrent echoes the configured worker budget.
	MaxConcurrent int `json:"max_concurrent"`
	// Closed reports whether the Runner has stopped accepting work.
	Closed bool `json:"closed"`
}

// Stats returns the current run census: one snapshot under the Runner's
// lock, at a cost independent of how many runs were ever served.
func (rn *Runner) Stats() Stats {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return Stats{
		Submitted:     rn.submitted,
		QueueDepth:    rn.census[StateQueued],
		Running:       rn.census[StateRunning],
		Done:          rn.census[StateDone],
		Failed:        rn.census[StateFailed],
		Cancelled:     rn.census[StateCancelled],
		Checkpointed:  rn.census[StateCheckpointed],
		Stalled:       rn.stalled,
		Preempted:     rn.preempted,
		MaxConcurrent: rn.cfg.MaxConcurrent,
		Closed:        rn.closed,
	}
}

// Close stops accepting submissions and cancels every live run. It
// returns immediately; use Drain to wait for the cancelled runs to
// finish unwinding.
func (rn *Runner) Close() {
	rn.mu.Lock()
	rn.closed = true
	live := append([]*Run(nil), rn.live...)
	rn.mu.Unlock()
	for _, r := range live {
		r.Cancel()
	}
}

// Drain blocks until no run is live and every event queued so far has
// been delivered, or ctx expires.
func (rn *Runner) Drain(ctx context.Context) error {
	for {
		rn.mu.Lock()
		wait, idle := rn.delivered, len(rn.live) == 0
		if !idle {
			wait = rn.live[0].done
		}
		rn.mu.Unlock()
		if wait != nil {
			select {
			case <-wait:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if idle {
			return nil
		}
	}
}
