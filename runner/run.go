package runner

import (
	"context"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
)

// Run is one submitted program run: its handle and its only control
// block.
type Run struct {
	rn     *Runner
	id     string
	label  string
	tenant string // as submitted ("" for keyless work); ledger is its key
	ledger *ledger
	// weight and priority are the tenant's scheduling identity, consumed by
	// tenant-aware schedulers (wfq); fifo ignores them.
	weight, priority int
	// body executes one attempt of the run under the attempt's context.
	// Submit builds it from the Submission; it is the seam in-package tests
	// fill with fakes. Nil once the run is terminal.
	body func(ctx context.Context) (*repro.Result, error)

	done chan struct{}

	// probe is the current attempt's executor; the Terminal transition
	// drops it (a finished run keeps its outcome, not its machine).
	probe atomic.Pointer[repro.Live]
	ckpt  atomic.Pointer[repro.Checkpoint]
	// yield distinguishes "someone wants this run to stop at its next
	// checkpoint" (pause request, preemption) from the chain-internal
	// checkpoints a CheckpointEvery run takes and rides through.
	yield atomic.Bool
	// snapshots counts the periodic snapshots a CheckpointEvery chain
	// has parked (not the terminal checkpoint of a paused run).
	snapshots atomic.Int64

	// Guarded by rn.mu.
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *repro.Result
	err       error
	// final is the counters a terminal run reports: its result's, or what
	// the Terminal transition read off the executor when there is none.
	final  *core.Snapshot
	liveAt int // index in rn.live while the run is live
	// startedCh is closed when an attempt begins; a preempted run gets a
	// fresh one for its next attempt (so it is guarded here, not immutable
	// like done). Terminal: done itself, or nil for a run that never started.
	startedCh chan struct{}
	// ctx/cancelCtx span the run, attemptCtx/cancelAttempt the current
	// dispatch: a preemption cancels the attempt, a user Cancel cancels ctx
	// (and with it every attempt); all nil once terminal. attempts counts
	// dispatches; preempting marks a run whose eviction is in flight.
	ctx           context.Context
	cancelCtx     context.CancelFunc
	attemptCtx    context.Context
	cancelAttempt context.CancelFunc
	attempts      int
	preempting    bool
	// stuck is the watchdog's diagnostic dump while the run is declared
	// stuck ("" otherwise).
	stuck string
}

// ID returns the runner-assigned identifier.
func (r *Run) ID() string { return r.id }

// Label returns the submission label.
func (r *Run) Label() string { return r.label }

// Tenant returns the submission's tenant ("" for anonymous work).
func (r *Run) Tenant() string { return r.tenant }

// State returns the current lifecycle state.
func (r *Run) State() State {
	r.rn.mu.Lock()
	defer r.rn.mu.Unlock()
	return r.state
}

// Times returns when the run was submitted, started and finished; zero
// times for transitions that have not happened. A preempted run's start
// time is its latest dispatch.
func (r *Run) Times() (submitted, started, finished time.Time) {
	r.rn.mu.Lock()
	defer r.rn.mu.Unlock()
	return r.submitted, r.started, r.finished
}

// Done returns a channel closed when the run is terminal.
func (r *Run) Done() <-chan struct{} { return r.done }

// Started returns a channel closed when the run's current attempt is
// dispatched out of the queue; a preempted run re-arms it for the next
// attempt. A run cancelled while still queued never signals it; wait on
// Done alongside it.
func (r *Run) Started() <-chan struct{} {
	r.rn.mu.Lock()
	defer r.rn.mu.Unlock()
	return r.startedCh
}

// Cancel requests cancellation: a queued run finalizes immediately as
// cancelled; a running run has its context cancelled and finalizes with
// context.Canceled once its processors drain out. Cancelling a terminal
// run is a no-op.
func (r *Run) Cancel() {
	r.rn.mu.Lock()
	if r.state == StateQueued {
		r.finalizeLocked(nil, context.Canceled)
	}
	cancel := r.cancelCtx
	r.rn.mu.Unlock()
	// For a running run, cancelling outside the lock lets the body's
	// drain path call back into the Runner freely.
	if cancel != nil {
		cancel()
	}
}

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
// latest periodic snapshot of a CheckpointEvery chain. Nil otherwise: a
// chain that finished done has nothing left to resume.
func (r *Run) Checkpoint() *repro.Checkpoint { return r.ckpt.Load() }

// Snapshots returns how many periodic snapshots a CheckpointEvery
// chain has parked so far (0 for unchained runs).
func (r *Run) Snapshots() int64 { return r.snapshots.Load() }

// emitSnapshot publishes the restore point a chain leg just parked as an
// EventSnapshot and returns once the consumer has seen it — a run parking
// restore points is paced by whoever makes them durable.
func (r *Run) emitSnapshot() {
	r.snapshots.Add(1)
	r.rn.mu.Lock()
	delivered := r.rn.emitLocked(Event{Kind: EventSnapshot, Run: r})
	r.rn.mu.Unlock()
	<-delivered
}

// heartbeat is the watchdog's progress figure, read off the run's probe.
// Any scheduling progress counts: a long-running chunk still advances
// Iterations, a drain still advances Exits. ok is false until the
// executor has published the probe — there is nothing to judge, or to
// dump, before that.
func (r *Run) heartbeat() (beat int64, ok bool) {
	lv := r.probe.Load()
	if lv == nil {
		return 0, false
	}
	sn := (*lv).LiveStats()
	return sn.Instances + sn.Exits + sn.Chunks + sn.Iterations, true
}

// diagnose renders the executor's scheduling state for a stuck-run
// report.
func (r *Run) diagnose() string {
	if lv := r.probe.Load(); lv != nil {
		if d, ok := (*lv).(core.Diagnoser); ok {
			return d.Diagnose()
		}
	}
	return "(the run's probe offers no diagnostic dump)"
}

// Result returns the run's outcome once terminal; while the run is live
// it returns an error. A cancelled run returns context.Canceled.
func (r *Run) Result() (*repro.Result, error) {
	r.rn.mu.Lock()
	defer r.rn.mu.Unlock()
	if !r.state.Terminal() {
		return nil, errNotFinished
	}
	return r.result, r.err
}

// Wait blocks until the run is terminal (returning its outcome) or ctx
// expires (returning ctx's error without affecting the run).
func (r *Run) Wait(ctx context.Context) (*repro.Result, error) {
	select {
	case <-r.done:
		return r.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Progress samples the run's counters into one snapshot: live from the
// executor while the run is in flight, afterwards from its Result (or,
// with none, from what its Terminal transition last read). It is safe to
// call at any time from any goroutine.
func (r *Run) Progress() Progress {
	p := Progress{ID: r.id, Label: r.label, Tenant: r.tenant}
	r.rn.mu.Lock()
	st, started, finished, err := r.state, r.started, r.finished, r.err
	p.Stuck = r.stuck
	// Under the lock: no sample pairs a live state with a dropped probe.
	lv, sn := r.probe.Load(), r.final
	r.rn.mu.Unlock()
	p.State = st.String()
	if !started.IsZero() {
		end := finished
		if end.IsZero() {
			end = time.Now()
		}
		p.Elapsed = end.Sub(started)
	}
	if lv != nil {
		live := (*lv).LiveStats()
		sn = &live
	}
	if sn != nil {
		p.Instances = sn.Instances
		p.InstancesDone = sn.Exits
		p.Iterations = sn.Iterations
		p.Chunks = sn.Chunks
		p.Efficiency = sn.Efficiency()
		p.FailedIterations = sn.FailedIterations
	}
	if st.Terminal() && err != nil {
		p.Error = err.Error()
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
		t := time.NewTicker(r.rn.cfg.SampleInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-r.done:
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
