// Package runmgr is the run-manager subsystem: a reusable, concurrent,
// cancellable job manager behind the public runner package and the
// loopschedd service.
//
// A Manager accepts job submissions, executes up to MaxConcurrent of
// them in parallel over a bounded worker budget, and tracks each run
// through the lifecycle
//
//	queued → running → done | failed | cancelled
//
// Every transition is published where it happens, as one ordered event
// stream (Config.OnEvent): nothing watches a run to learn its state.
//
// Runs are cancellable at any point: a queued run is finalized without
// ever starting; a running run has its context cancelled and is drained
// by the job itself (for scheduling runs, through the executor's
// stop-cause machinery in internal/core). The manager is deliberately
// ignorant of what a job computes — the repro-specific typing (compiled
// Programs in, Results and progress snapshots out) lives in package
// runner — so it can also manage sweeps, verification passes, or any
// other long-running work the serving layer grows.
package runmgr

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// State is a run's lifecycle state.
type State uint8

// Lifecycle states. Queued and Running are live; the rest are terminal.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
	// StateCheckpointed marks a run that paused at a checkpoint and
	// captured a resumable snapshot: terminal for this manager (the
	// worker slot is released), resumable by a future submission.
	StateCheckpointed
)

var stateNames = [...]string{
	StateQueued: "queued", StateRunning: "running", StateDone: "done",
	StateFailed: "failed", StateCancelled: "cancelled",
	StateCheckpointed: "checkpointed",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateDone }

// Manager errors.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("runmgr: manager closed")
	// ErrDuplicateID is returned by SubmitID when the identifier is
	// already taken. Callers that chose the ID themselves (the cluster
	// placement path) treat it as proof the run exists.
	ErrDuplicateID = errors.New("runmgr: run already exists")
	// ErrQueueFull is returned by Submit when QueueLimit runs are
	// already waiting.
	ErrQueueFull = errors.New("runmgr: queue full")
	// ErrNotFinished is returned by Run.Result while the run is live.
	ErrNotFinished = errors.New("runmgr: run not finished")
	// ErrCheckpointed is the terminal cause of a checkpointed run: a job
	// whose Run error wraps it finalizes as StateCheckpointed instead of
	// StateFailed. The job keeps the snapshot itself (the manager stays
	// payload-agnostic).
	ErrCheckpointed = errors.New("runmgr: run checkpointed")
)

// Config configures a Manager.
type Config struct {
	// MaxConcurrent is the worker budget: the maximum number of runs
	// executing simultaneously. Defaults to 1.
	MaxConcurrent int
	// QueueLimit caps the number of runs waiting to start; 0 means
	// unbounded. Submissions beyond the cap fail with ErrQueueFull
	// rather than blocking, so a serving frontend can shed load.
	QueueLimit int
	// Scheduler orders the queued runs; nil defaults to NewFIFO (strict
	// submission order). A Scheduler that also implements Preempter (WFQ)
	// may evict running runs in favor of higher-priority submissions.
	Scheduler Scheduler
	// Watchdog configures the stuck-run watchdog for every executing
	// run; the zero value disables it.
	Watchdog Watchdog
	// IDPrefix prefixes every manager-assigned run identifier
	// ("n1-" yields "n1-run-0001"). Cluster nodes set their node name
	// here so run IDs are unique across the whole cluster and any node
	// can route a poll by ID to the run's owner.
	IDPrefix string
	// OnEvent, if non-nil, receives every run's lifecycle as one sequence
	//
	//	Submitted (Started Snapshot* Preempted)* (Started Snapshot*)? Terminal
	//
	// with exactly one Terminal. Events are queued under the manager's
	// lock by the transition itself and delivered outside every lock, one
	// at a time, so the consumer sees all runs' events in transition order
	// and may block. SubmitID returns once its run's Submitted event has
	// been delivered, Drain once every event has; the consumer must not
	// call SubmitID or EmitSnapshot, which wait on their own delivery.
	OnEvent func(Event)
}

// EventKind names one step of a run's lifecycle.
type EventKind uint8

// Lifecycle events. The manager emits all but EventSnapshot, which is
// the job layer's (see EmitSnapshot).
const (
	EventSubmitted EventKind = iota
	EventStarted
	EventSnapshot
	EventPreempted
	EventTerminal
)

// Event is one lifecycle event of one run.
type Event struct {
	Kind EventKind
	Run  *Run
}

// Watchdog configures stuck-run detection. A run is stuck when its
// job's Heartbeat value has not advanced for a full Interval; the
// watchdog then captures the job's Diagnose dump, records it on the
// run (Run.Stuck), fires OnStuck, and — with CancelStuck — cancels the
// run. A run whose heartbeat later advances is cleared again.
type Watchdog struct {
	// Interval is the no-progress window; 0 disables the watchdog.
	Interval time.Duration
	// CancelStuck cancels a run once it is declared stuck (after the
	// diagnostic snapshot is captured).
	CancelStuck bool
	// OnStuck, if non-nil, is called (outside manager locks) each time
	// a run is declared stuck.
	OnStuck func(r *Run, diagnostic string)
}

// Job is one unit of work. Run is required.
//
// Heartbeat and Diagnose feed the stuck-run watchdog: Heartbeat returns
// a monotone progress figure (for scheduling runs, chunks claimed from
// the obs spine) and Diagnose renders the job's internal state when the
// figure stops advancing. Both may be nil — a job without a Heartbeat
// is never declared stuck.
type Job struct {
	Label     string
	Run       func(ctx context.Context) (any, error)
	Heartbeat func() int64
	Diagnose  func() string

	// Tenant, Weight and Priority are scheduling metadata consumed by
	// tenant-aware schedulers (WFQ); FIFO ignores them. Weight scales the
	// tenant's fair share (0 means 1); larger Priority values dispatch
	// first and may preempt strictly lower ones.
	Tenant   string
	Weight   int
	Priority int
	// Preempt, if non-nil, is the cooperative preemption hook: called
	// (outside manager locks) when a scheduler evicts this running job.
	// Returning true promises the job will yield shortly with an error
	// wrapping ErrCheckpointed — the manager then requeues the run, which
	// resumes from its snapshot on redispatch. Returning false (or a nil
	// hook) makes the manager cancel the attempt's context instead; the
	// run requeues and restarts from scratch.
	Preempt func() bool
	// Payload is the submitter's own handle for the run, opaque to the
	// manager: Run.Payload returns it, so an event consumer or a registry
	// lookup gets back to it without a second map keyed by run ID.
	Payload any
}

// Manager executes submitted jobs over a bounded worker budget.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	seq       int
	byID      map[string]*Run
	runs      []*Run    // submission order
	sched     Scheduler // waiting to start
	active    int
	preempted int
	closed    bool
	// census counts runs by state, all and per tenant; stalled counts the
	// live runs the watchdog declares stuck. The transitions keep them,
	// so reading them costs the same however many runs were ever served.
	census  census
	tenants map[string]*census
	stalled int
	// events is the undelivered tail of the event stream; pumping says a
	// pump goroutine is delivering it.
	events  []queuedEvent
	pumping bool
}

// census counts runs by lifecycle state.
type census [StateCheckpointed + 1]int

// queuedEvent is an event awaiting delivery; done is closed once the
// consumer has seen it.
type queuedEvent struct {
	ev   Event
	done chan struct{}
}

// New returns a Manager with the given configuration.
func New(cfg Config) *Manager {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = NewFIFO()
	}
	return &Manager{cfg: cfg, byID: map[string]*Run{}, sched: sched, tenants: map[string]*census{}}
}

// setStateLocked moves r to state s and the censuses with it.
func (m *Manager) setStateLocked(r *Run, s State) {
	t := m.tenants[r.job.Tenant]
	m.census[r.state]--
	t[r.state]--
	r.state = s
	m.census[s]++
	t[s]++
}

// emitLocked appends an event to the stream, makes sure a pump is
// delivering it, and returns a channel closed on delivery.
func (m *Manager) emitLocked(kind EventKind, r *Run) <-chan struct{} {
	done := make(chan struct{})
	if m.cfg.OnEvent == nil {
		close(done)
		return done
	}
	m.events = append(m.events, queuedEvent{Event{kind, r}, done})
	if !m.pumping {
		m.pumping = true
		go m.pump()
	}
	return done
}

// pump delivers queued events in order until none are left; it exits
// rather than idle, so a quiet manager holds no goroutine.
func (m *Manager) pump() {
	m.mu.Lock()
	for len(m.events) > 0 {
		batch := m.events
		m.events = nil
		m.mu.Unlock()
		for _, q := range batch {
			m.cfg.OnEvent(q.ev)
			close(q.done)
		}
		m.mu.Lock()
	}
	m.pumping = false
	m.mu.Unlock()
}

// runKey carries the executing *Run in the context handed to Job.Run.
type runKey struct{}

// EmitSnapshot publishes an EventSnapshot for the run whose Job.Run was
// handed ctx and returns once the consumer has seen it — a job parking
// restore points is paced by whoever makes them durable.
func EmitSnapshot(ctx context.Context) {
	r := ctx.Value(runKey{}).(*Run)
	r.mgr.mu.Lock()
	delivered := r.mgr.emitLocked(EventSnapshot, r)
	r.mgr.mu.Unlock()
	<-delivered
}

// Submit enqueues a job and returns its run handle. The job starts
// immediately if the worker budget has room, otherwise it waits in FIFO
// order.
func (m *Manager) Submit(job Job) (*Run, error) {
	return m.SubmitID("", job)
}

// SubmitID enqueues a job under a caller-chosen run identifier; an empty
// id gets the next manager-assigned one. Preserved identifiers are how
// the daemon's boot-time journal replay re-queues runs without renaming
// them: any trailing digits bump the manager's sequence so fresh
// submissions never collide with a replayed ID.
func (m *Manager) SubmitID(id string, job Job) (*Run, error) {
	if job.Run == nil {
		return nil, fmt.Errorf("runmgr: job without a Run function")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if m.cfg.QueueLimit > 0 && m.sched.Len() >= m.cfg.QueueLimit {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	if id == "" {
		m.seq++
		id = fmt.Sprintf("%srun-%04d", m.cfg.IDPrefix, m.seq)
	} else {
		if _, dup := m.byID[id]; dup {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrDuplicateID, id)
		}
		if n, ok := trailingNumber(id); ok && n > m.seq {
			m.seq = n
		}
	}
	r := &Run{
		id:        id,
		mgr:       m,
		job:       job,
		state:     StateQueued,
		submitted: time.Now(),
		startedCh: make(chan struct{}),
		done:      make(chan struct{}),
	}
	r.ctx, r.cancelCtx = context.WithCancel(context.WithValue(context.Background(), runKey{}, r))
	m.byID[r.id] = r
	m.runs = append(m.runs, r)
	if m.tenants[job.Tenant] == nil {
		m.tenants[job.Tenant] = &census{}
	}
	m.census[StateQueued]++
	m.tenants[job.Tenant][StateQueued]++
	delivered := m.emitLocked(EventSubmitted, r)
	m.sched.Push(r)
	m.dispatchLocked()
	victim := m.pickVictimLocked(r)
	m.mu.Unlock()
	if victim != nil {
		// The victim's Preempt hook (or attempt-context cancel) runs
		// outside the lock: either may call back into the manager while
		// the job drains.
		m.preempt(victim)
	}
	<-delivered
	return r, nil
}

// pickVictimLocked asks a preempting scheduler for a running victim when
// the freshly pushed run is still queued with every worker slot busy.
// The victim is marked preempting under the lock (so a run is never
// preempted twice concurrently); the caller delivers the preemption
// outside the lock.
func (m *Manager) pickVictimLocked(r *Run) *Run {
	p, ok := m.sched.(Preempter)
	if !ok || r.state != StateQueued || m.active < m.cfg.MaxConcurrent {
		return nil
	}
	running := make([]*Run, 0, m.active)
	for _, c := range m.runs {
		if c.state == StateRunning && !c.preempting {
			running = append(running, c)
		}
	}
	v := p.Victim(r, running)
	if v == nil || v.state != StateRunning || v.preempting {
		return nil
	}
	v.preempting = true
	return v
}

// preempt delivers a preemption decision to the victim, outside manager
// locks: cooperatively through the job's Preempt hook when it accepts,
// otherwise by cancelling the attempt's context. Either way the job's
// Run returns shortly and exec requeues the run.
func (m *Manager) preempt(v *Run) {
	if v.job.Preempt != nil && v.job.Preempt() {
		return
	}
	v.cancelAttempt()
}

// trailingNumber parses the decimal digits ending id ("run-0042" → 42).
func trailingNumber(id string) (int, bool) {
	end := len(id)
	start := end
	for start > 0 && id[start-1] >= '0' && id[start-1] <= '9' {
		start--
	}
	if start == end {
		return 0, false
	}
	n := 0
	for _, c := range id[start:end] {
		n = n*10 + int(c-'0')
		if n < 0 || n > 1<<30 {
			return 0, false
		}
	}
	return n, true
}

// dispatchLocked starts queued runs while the worker budget has room.
func (m *Manager) dispatchLocked() {
	for m.active < m.cfg.MaxConcurrent && m.sched.Len() > 0 {
		r := m.sched.Pop()
		if r == nil || r.state != StateQueued {
			continue // cancelled while waiting
		}
		m.setStateLocked(r, StateRunning)
		r.started = time.Now()
		r.attempts++
		// Each dispatch gets an attempt-scoped context derived from the
		// run's own, so a preemption cancel unwinds only this attempt
		// while a user cancel (r.cancelCtx) still reaches the job.
		r.attemptCtx, r.cancelAttempt = context.WithCancel(r.ctx)
		close(r.startedCh)
		m.emitLocked(EventStarted, r)
		m.active++
		go m.exec(r)
	}
}

func (m *Manager) exec(r *Run) {
	stopWatch := m.startWatchdog(r)
	ctx := r.attemptCtx // set under mu before this goroutine was spawned
	res, err := func() (res any, err error) {
		// A panicking job must finalize like any failed run — with the
		// stack preserved for diagnosis, and with finalizeLocked still
		// releasing the run's context (cancelCtx) so nothing derived
		// from it leaks. The goroutine-leak regression test pins this.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("runmgr: job panicked: %v\n%s", p, debug.Stack())
			}
		}()
		return r.job.Run(ctx)
	}()
	if stopWatch != nil {
		stopWatch()
	}
	m.mu.Lock()
	if r.preempting && r.ctx.Err() == nil && !r.state.Terminal() &&
		(errors.Is(err, ErrCheckpointed) || errors.Is(err, context.Canceled)) {
		// Preemption took effect: the attempt yielded (cooperatively with
		// a checkpoint, or through the attempt-context cancel). The run is
		// not terminal — it goes back to the queue and redispatches when
		// the scheduler next selects it; a checkpointing job resumes from
		// its snapshot, others restart from scratch. A user cancel
		// (r.ctx.Err() != nil) or a genuine outcome that raced the
		// preemption wins and finalizes normally below.
		r.preempting = false
		m.setStateLocked(r, StateQueued)
		r.started = time.Time{}
		r.startedCh = make(chan struct{})
		m.preempted++
		m.emitLocked(EventPreempted, r)
		m.sched.Push(r)
	} else {
		r.preempting = false
		r.finalizeLocked(res, err)
	}
	m.active--
	m.dispatchLocked()
	m.mu.Unlock()
}

// startWatchdog launches the stuck-run monitor for r, returning a stop
// function (nil when the watchdog is disabled or the job reports no
// heartbeat). The monitor polls the job's heartbeat once per quarter
// interval; when a full interval passes without the figure advancing it
// declares the run stuck, captures the diagnostic dump, and optionally
// cancels. Progress after a stuck declaration clears the flag again.
func (m *Manager) startWatchdog(r *Run) (stop func()) {
	wd := m.cfg.Watchdog
	if wd.Interval <= 0 || r.job.Heartbeat == nil {
		return nil
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := wd.Interval / 4
		if tick <= 0 {
			tick = wd.Interval
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		last := r.job.Heartbeat()
		lastAdvance := time.Now()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			now := r.job.Heartbeat()
			if now != last {
				last = now
				lastAdvance = time.Now()
				r.setStuck("")
				continue
			}
			if time.Since(lastAdvance) < wd.Interval {
				continue
			}
			if _, already := r.Stuck(); already {
				continue
			}
			diag := fmt.Sprintf("runmgr: run %s (%s) stuck: heartbeat pinned at %d for %v",
				r.id, r.job.Label, now, wd.Interval)
			if r.job.Diagnose != nil {
				diag += "\n" + r.job.Diagnose()
			}
			r.setStuck(diag)
			if wd.OnStuck != nil {
				wd.OnStuck(r, diag)
			}
			if wd.CancelStuck {
				// The verdict is final: stop monitoring so the heartbeat
				// blips of the drain itself cannot clear the diagnostic.
				r.Cancel()
				return
			}
		}
	}()
	return func() { close(quit); <-done }
}

// Stats is a point-in-time census of a manager's runs, for health and
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
	// Preempted counts preemption requeues: every time a scheduler
	// evicted a running run in favor of a higher-priority submission.
	Preempted int `json:"preempted"`
	// Scheduler names the queue policy ("fifo", "wfq").
	Scheduler string `json:"scheduler"`
	// MaxConcurrent echoes the configured worker budget.
	MaxConcurrent int `json:"max_concurrent"`
	// Closed reports whether the manager has stopped accepting work.
	Closed bool `json:"closed"`
}

// Stats returns the current run census.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Submitted:     len(m.runs),
		QueueDepth:    m.census[StateQueued],
		Running:       m.census[StateRunning],
		Done:          m.census[StateDone],
		Failed:        m.census[StateFailed],
		Cancelled:     m.census[StateCancelled],
		Checkpointed:  m.census[StateCheckpointed],
		Stalled:       m.stalled,
		Preempted:     m.preempted,
		Scheduler:     m.sched.Name(),
		MaxConcurrent: m.cfg.MaxConcurrent,
		Closed:        m.closed,
	}
}

// TenantLoad returns how many of the tenant's runs are waiting and
// executing right now.
func (m *Manager) TenantLoad(tenant string) (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.tenants[tenant]; t != nil {
		return t[StateQueued], t[StateRunning]
	}
	return 0, 0
}

// Get returns the run with the given ID.
func (m *Manager) Get(id string) (*Run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.byID[id]
	return r, ok
}

// Runs returns all runs in submission order.
func (m *Manager) Runs() []*Run {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Run, len(m.runs))
	copy(out, m.runs)
	return out
}

// Close stops accepting submissions and cancels every live run. It
// returns immediately; use Drain to wait for the cancelled runs to
// finish unwinding.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	for _, r := range m.Runs() {
		r.Cancel() // a no-op on the terminal ones
	}
}

// Drain blocks until every submitted run is terminal and its events have
// been delivered, or ctx expires.
func (m *Manager) Drain(ctx context.Context) error {
	for _, r := range m.Runs() {
		select {
		case <-r.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		select {
		case <-r.settled: // assigned before done was closed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Run is the handle of one submitted job.
type Run struct {
	id  string
	mgr *Manager
	job Job

	ctx       context.Context
	cancelCtx context.CancelFunc
	done      chan struct{}
	settled   <-chan struct{} // closed once the Terminal event was delivered

	// Guarded by mgr.mu.
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    any
	err       error
	// startedCh is closed when an attempt begins; a preempted run gets a
	// fresh channel for its next attempt (so it is guarded here, not
	// immutable like done).
	startedCh chan struct{}
	// attemptCtx/cancelAttempt scope the current dispatch: a preemption
	// cancels the attempt, a user Cancel cancels ctx (and with it every
	// attempt). attempts counts dispatches; preempting marks a run whose
	// eviction is in flight.
	attemptCtx    context.Context
	cancelAttempt context.CancelFunc
	attempts      int
	preempting    bool
	// stuck is the watchdog's diagnostic dump while the run is declared
	// stuck ("" otherwise); stuckAt is when it was declared.
	stuck   string
	stuckAt time.Time
}

// setStuck records or clears ("" clears) the watchdog's verdict.
func (r *Run) setStuck(diag string) {
	r.mgr.mu.Lock()
	defer r.mgr.mu.Unlock()
	if !r.state.Terminal() && (r.stuck == "") != (diag == "") {
		if diag == "" {
			r.mgr.stalled--
		} else {
			r.mgr.stalled++
		}
	}
	if diag == "" {
		r.stuck, r.stuckAt = "", time.Time{}
		return
	}
	r.stuck, r.stuckAt = diag, time.Now()
}

// Stuck returns the watchdog's diagnostic dump and whether the run is
// currently declared stuck. A run that resumed progress (or was never
// watched) reports false.
func (r *Run) Stuck() (diagnostic string, stuck bool) {
	r.mgr.mu.Lock()
	defer r.mgr.mu.Unlock()
	return r.stuck, r.stuck != ""
}

// finalizeLocked records the outcome and marks the run terminal.
// Callers hold mgr.mu.
func (r *Run) finalizeLocked(res any, err error) {
	if r.state.Terminal() {
		return
	}
	r.result, r.err = res, err
	state := StateFailed
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, ErrCheckpointed):
		state = StateCheckpointed
	case errors.Is(err, context.Canceled):
		state = StateCancelled
	}
	r.mgr.setStateLocked(r, state)
	if r.stuck != "" {
		r.mgr.stalled-- // the diagnostic stays on the run; it is no longer live
	}
	r.finished = time.Now()
	r.cancelCtx() // release the context's resources
	r.settled = r.mgr.emitLocked(EventTerminal, r)
	close(r.done)
}

// ID returns the manager-assigned run identifier.
func (r *Run) ID() string { return r.id }

// Label returns the submission label.
func (r *Run) Label() string { return r.job.Label }

// State returns the current lifecycle state.
func (r *Run) State() State {
	r.mgr.mu.Lock()
	defer r.mgr.mu.Unlock()
	return r.state
}

// Times returns the submission, start and finish times; zero times mean
// the run has not reached that point yet.
func (r *Run) Times() (submitted, started, finished time.Time) {
	r.mgr.mu.Lock()
	defer r.mgr.mu.Unlock()
	return r.submitted, r.started, r.finished
}

// Done returns a channel closed when the run is terminal.
func (r *Run) Done() <-chan struct{} { return r.done }

// Started returns a channel closed when the run's current attempt begins
// executing; a preempted run re-arms it for the next attempt. A run
// cancelled while still queued never starts — wait on Done alongside it.
func (r *Run) Started() <-chan struct{} {
	r.mgr.mu.Lock()
	defer r.mgr.mu.Unlock()
	return r.startedCh
}

// Tenant returns the submission's tenant key ("" for anonymous work).
func (r *Run) Tenant() string { return r.job.Tenant }

// Payload returns the submission's Job.Payload.
func (r *Run) Payload() any { return r.job.Payload }

// Attempts returns the number of times the run has been dispatched;
// values above 1 mean the run was preempted and redispatched.
func (r *Run) Attempts() int {
	r.mgr.mu.Lock()
	defer r.mgr.mu.Unlock()
	return r.attempts
}

// Cancel requests cancellation: a queued run finalizes immediately as
// cancelled; a running run has its context cancelled and finalizes when
// its job drains out. Cancelling a terminal run is a no-op.
func (r *Run) Cancel() {
	r.mgr.mu.Lock()
	if r.state == StateQueued {
		r.finalizeLocked(nil, context.Canceled)
	}
	r.mgr.mu.Unlock()
	// For a running job, cancelling outside the lock lets the job's
	// drain path call back into the manager freely.
	r.cancelCtx()
}

// Result returns the job's outcome once terminal; before that it
// returns ErrNotFinished.
func (r *Run) Result() (any, error) {
	r.mgr.mu.Lock()
	defer r.mgr.mu.Unlock()
	if !r.state.Terminal() {
		return nil, ErrNotFinished
	}
	return r.result, r.err
}

// Wait blocks until the run is terminal (returning its outcome) or ctx
// expires (returning ctx's error without affecting the run).
func (r *Run) Wait(ctx context.Context) (any, error) {
	select {
	case <-r.done:
		return r.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
