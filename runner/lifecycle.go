package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro"
)

// This file is the run lifecycle machine:
//
//	queued → running → done | failed | cancelled | checkpointed
//	            ↓ preempted
//	          queued
//
// Every transition happens under rn.mu, moves the censuses and the
// running/live sets with it, and queues the event that announces it.

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
	// captured a resumable snapshot: terminal for this Runner (the worker
	// slot is released), resumable by a future submission.
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

// census counts runs by lifecycle state.
type census [StateCheckpointed + 1]int

// EventKind names one step of a run's lifecycle.
type EventKind uint8

// Lifecycle events.
const (
	EventSubmitted EventKind = iota
	EventStarted
	EventSnapshot
	EventPreempted
	EventTerminal
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

// queuedEvent is an event awaiting delivery; done is closed once it has
// been folded and the consumer has seen it.
type queuedEvent struct {
	ev   Event
	done chan struct{}
}

// setStateLocked moves r to state s and the censuses with it.
func (rn *Runner) setStateLocked(r *Run, s State) {
	rn.census[r.state]--
	r.ledger.census[r.state]--
	r.state = s
	rn.census[s]++
	r.ledger.census[s]++
}

// emitLocked appends an event to the stream, makes sure a pump is
// delivering it, and returns a channel closed on delivery.
func (rn *Runner) emitLocked(ev Event) <-chan struct{} {
	done := make(chan struct{})
	rn.events = append(rn.events, queuedEvent{ev, done})
	rn.delivered = done
	if !rn.pumping {
		rn.pumping = true
		go rn.pump()
	}
	return done
}

// pump delivers queued events in order until none are left; it exits
// rather than idle, so a quiet Runner holds no goroutine.
func (rn *Runner) pump() {
	rn.mu.Lock()
	for len(rn.events) > 0 {
		batch := rn.events
		rn.events = nil
		rn.mu.Unlock()
		for _, q := range batch {
			rn.deliver(q.ev)
			close(q.done)
		}
		rn.mu.Lock()
	}
	rn.pumping = false
	rn.mu.Unlock()
}

// deliver is the one delivery step of an event: it folds the event into
// the tenant's lifetime tallies and the metrics, then hands it to
// Config.OnEvent. Outcomes fold once per run, on Terminal — a
// preempted-and-resumed run counts once, with its final result.
func (rn *Runner) deliver(ev Event) {
	r, t := ev.Run, ev.Run.ledger
	rn.mu.Lock()
	switch ev.Kind {
	case EventSubmitted:
		t.submitted++
	case EventPreempted:
		t.preempted++
	case EventTerminal:
		if r.err == nil {
			t.done++
		} else {
			t.failed++
		}
		if r.result != nil {
			t.iterations += r.result.Stats.Iterations
		}
	}
	rn.mu.Unlock()
	if rn.met != nil {
		switch ev.Kind {
		case EventSubmitted:
			rn.met.submitted.Inc()
			rn.tmet.submitted.With(t.name).Inc()
		case EventTerminal:
			// result and err are final once the run is terminal.
			rn.met.finish(r.result, r.err)
			rn.tmet.finish(t.name, r.result, r.err)
		}
	}
	if rn.cfg.OnEvent != nil {
		rn.cfg.OnEvent(ev)
	}
}

// submit registers r — its id (or none), label, tenant and body already
// set — under the Runner's lock: admission, the ID, the registry, the
// queue and the first dispatch are one step. It returns once the run's
// Submitted event, carrying record, has been delivered.
func (rn *Runner) submit(r *Run, record any) error {
	key := tenantName(r.tenant)
	ten := rn.cfg.Tenants[key]
	rn.mu.Lock()
	if rn.closed {
		rn.mu.Unlock()
		return ErrClosed
	}
	t := rn.ledgerLocked(key)
	if err := ten.admit(t); err != nil {
		t.rejected++
		rn.mu.Unlock()
		if rn.tmet != nil {
			rn.tmet.rejected.With(key).Inc()
		}
		return err
	}
	if rn.cfg.QueueLimit > 0 && rn.sched.len() >= rn.cfg.QueueLimit {
		rn.mu.Unlock()
		return ErrQueueFull
	}
	if r.id == "" {
		rn.seq++
		r.id = fmt.Sprintf("%srun-%04d", rn.cfg.IDPrefix, rn.seq)
	} else {
		if _, dup := rn.byID[r.id]; dup {
			rn.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrDuplicateID, r.id)
		}
		// Any trailing digits bump the sequence, so fresh submissions never
		// collide with a replayed ID.
		if n, ok := trailingNumber(r.id); ok && n > rn.seq {
			rn.seq = n
		}
	}
	r.rn, r.ledger = rn, t
	r.weight, r.priority = ten.Weight, ten.Priority
	r.submitted = time.Now()
	r.startedCh = make(chan struct{})
	r.done = make(chan struct{})
	r.ctx, r.cancelCtx = context.WithCancel(context.Background())
	rn.byID[r.id] = r
	rn.runs = append(rn.runs, r)
	r.liveAt = len(rn.live)
	rn.live = append(rn.live, r)
	rn.census[StateQueued]++
	t.census[StateQueued]++
	delivered := rn.emitLocked(Event{Kind: EventSubmitted, Run: r, Record: record})
	rn.sched.push(r)
	rn.dispatchLocked()
	victim := rn.pickVictimLocked(r)
	rn.mu.Unlock()
	if victim != nil {
		// The eviction runs outside the lock: the victim's executor (or the
		// attempt-context cancel) may call back into the Runner while the
		// run drains.
		victim.preempt()
	}
	<-delivered
	return nil
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

// pickVictimLocked asks a preempting scheduler for a running victim when
// the freshly pushed run is still queued with every worker slot busy. It
// offers exactly the running set — at most MaxConcurrent runs, however
// many the Runner has ever served. The victim is marked preempting under
// the lock (so a run is never preempted twice concurrently); the caller
// delivers the preemption outside it.
func (rn *Runner) pickVictimLocked(r *Run) *Run {
	p, ok := rn.sched.(preempter)
	if !ok || r.state != StateQueued || len(rn.running) < rn.cfg.MaxConcurrent {
		return nil
	}
	v := p.victim(r, rn.running)
	if v != nil {
		v.preempting = true
	}
	return v
}

// preempt delivers a preemption decision to the run, outside the
// Runner's lock: cooperatively through its executor's checkpoint request
// when the run has the seam — it then yields shortly with a snapshot and
// resumes from it on redispatch — otherwise by cancelling the attempt's
// context, and the run restarts from scratch. Either way the body
// returns shortly and exec requeues the run.
func (r *Run) preempt() {
	if r.RequestCheckpoint() {
		return
	}
	r.rn.mu.Lock()
	cancel := r.cancelAttempt
	r.rn.mu.Unlock()
	if cancel != nil { // nil: the victim finished first
		cancel()
	}
}

// dispatchLocked starts queued runs while the worker budget has room.
func (rn *Runner) dispatchLocked() {
	for len(rn.running) < rn.cfg.MaxConcurrent && rn.sched.len() > 0 {
		r := rn.sched.pop()
		if r == nil || r.state != StateQueued {
			continue // cancelled while waiting
		}
		rn.setStateLocked(r, StateRunning)
		r.started = time.Now()
		r.attempts++
		// Each dispatch gets an attempt-scoped context derived from the
		// run's own, so a preemption cancel unwinds only this attempt
		// while a user cancel (r.cancelCtx) still reaches the body.
		r.attemptCtx, r.cancelAttempt = context.WithCancel(r.ctx)
		close(r.startedCh)
		rn.emitLocked(Event{Kind: EventStarted, Run: r})
		rn.running = append(rn.running, r)
		go rn.exec(r)
	}
}

// exec runs one attempt of r and moves it on: back to the queue when a
// preemption took effect, to its terminal state otherwise.
func (rn *Runner) exec(r *Run) {
	stopWatch := rn.startWatchdog(r)
	ctx, body := r.attemptCtx, r.body // set under mu before this goroutine was spawned
	res, err := func() (res *repro.Result, err error) {
		// A panicking body must finalize like any failed run — with the
		// stack preserved for diagnosis, and with finalizeLocked still
		// releasing the run's context (cancelCtx) so nothing derived
		// from it leaks. The goroutine-leak regression test pins this.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("runner: run panicked: %v\n%s", p, debug.Stack())
			}
		}()
		return body(ctx)
	}()
	if stopWatch != nil {
		stopWatch()
	}
	rn.mu.Lock()
	for i, c := range rn.running {
		if c == r {
			rn.running = append(rn.running[:i], rn.running[i+1:]...)
			break
		}
	}
	if r.preempting && r.ctx.Err() == nil &&
		(errors.Is(err, repro.ErrCheckpointed) || errors.Is(err, context.Canceled)) {
		// Preemption took effect: the attempt yielded (cooperatively with
		// a checkpoint, or through the attempt-context cancel). The run is
		// not terminal — it goes back to the queue and redispatches when
		// the scheduler next selects it; a checkpointing run resumes from
		// its snapshot, others restart from scratch. A user cancel
		// (r.ctx.Err() != nil) or a genuine outcome that raced the
		// preemption wins and finalizes normally below.
		rn.setStateLocked(r, StateQueued)
		r.started = time.Time{}
		r.startedCh = make(chan struct{})
		rn.preempted++
		rn.emitLocked(Event{Kind: EventPreempted, Run: r})
		rn.sched.push(r)
	} else {
		r.finalizeLocked(res, err)
	}
	r.preempting = false
	rn.dispatchLocked()
	rn.mu.Unlock()
}

// finalizeLocked records the outcome and marks the run terminal.
// Callers hold rn.mu.
func (r *Run) finalizeLocked(res *repro.Result, err error) {
	if r.state.Terminal() {
		return
	}
	rn := r.rn
	r.result, r.err = res, err
	state := StateFailed
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, repro.ErrCheckpointed):
		state = StateCheckpointed
	case errors.Is(err, context.Canceled):
		state = StateCancelled
	}
	rn.setStateLocked(r, state)
	if r.stuck != "" {
		rn.stalled-- // the diagnostic stays on the run; it is no longer live
	}
	r.finished = time.Now()
	// Terminal is where a run lets go of its machine: the contexts, the
	// program and options its body holds, the executor behind the probe
	// (its counters read first when no result carries them) and, done,
	// the restore point of a chain with nothing left to resume.
	r.cancelCtx()
	r.ctx, r.cancelCtx, r.attemptCtx, r.cancelAttempt, r.body = nil, nil, nil, nil, nil
	if lv := r.probe.Swap(nil); res != nil {
		r.final = &res.Stats
	} else if lv != nil {
		sn := (*lv).LiveStats()
		r.final = &sn
	}
	if state == StateDone {
		r.ckpt.Store(nil)
	}
	if r.startedCh = nil; !r.started.IsZero() {
		r.startedCh = r.done
	}
	last := rn.live[len(rn.live)-1]
	rn.live[r.liveAt], last.liveAt = last, r.liveAt
	rn.live = rn.live[:len(rn.live)-1]
	rn.emitLocked(Event{Kind: EventTerminal, Run: r})
	close(r.done)
}

// startWatchdog launches the stuck-run monitor for r, returning a stop
// function (nil when the watchdog is disabled). The monitor polls the
// run's heartbeat once per quarter interval; when a full interval passes
// without the figure advancing it declares the run stuck, captures the
// diagnostic dump, records it on the run (Progress.Stuck), fires OnStuck
// and — with CancelStuck — cancels the run. Progress after a stuck
// declaration clears the flag again.
func (rn *Runner) startWatchdog(r *Run) (stop func()) {
	wd := rn.cfg.Watchdog
	if wd.Interval <= 0 {
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
		last, _ := r.heartbeat()
		lastAdvance, declared := time.Now(), false
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			now, ok := r.heartbeat()
			if !ok || now != last {
				last = now
				lastAdvance, declared = time.Now(), false
				r.setStuck("")
				continue
			}
			if declared || time.Since(lastAdvance) < wd.Interval {
				continue
			}
			declared = true
			diag := fmt.Sprintf("runner: run %s (%s) stuck: heartbeat pinned at %d for %v\n%s",
				r.id, r.label, now, wd.Interval, r.diagnose())
			r.setStuck(diag)
			if wd.OnStuck != nil {
				wd.OnStuck(r.id, r.label, diag)
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

// setStuck records or clears ("" clears) the watchdog's verdict.
func (r *Run) setStuck(diag string) {
	r.rn.mu.Lock()
	defer r.rn.mu.Unlock()
	if !r.state.Terminal() && (r.stuck == "") != (diag == "") {
		if diag == "" {
			r.rn.stalled--
		} else {
			r.rn.stalled++
		}
	}
	r.stuck = diag
}
