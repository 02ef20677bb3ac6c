package runner

// The Runner has one dispatch policy, per-tenant weighted-fair queueing
// with priority classes, and it is kept on the tenant ledgers under rn.mu:
// each ledger queues its tenant's runs in arrival order. Each dispatch
// charges the run's tenant one virtual slot scaled by the inverse of its
// weight, so under sustained backlog tenants receive dispatch slots in
// proportion to their weights (3:1 weights → 3:1 dispatches), while an
// idle tenant that returns is charged from the current virtual time
// rather than catching up on slots it never contended for.
//
// Priority classes sit above fairness: pop always serves the
// highest-priority tenant with a backlog, fairness arbitrates only within
// that class, and a queued run may preempt a running run of a strictly
// lower class. With one tenant the policy is submission order, and
// nothing is ever preempted.

// pushLocked queues r behind its tenant's earlier runs. A run cancelled
// while queued stays in its queue until popped — the dispatcher skips it —
// so rn.queued is an upper bound on the dispatchable backlog.
func (rn *Runner) pushLocked(r *Run) {
	t := r.ledger
	if len(t.q) == 0 && t.vtime < rn.vnow {
		// A tenant (re)joining the backlog starts from the current virtual
		// time: it competes fairly from now on, without a windfall for the
		// slots it sat out.
		t.vtime = rn.vnow
	}
	t.q = append(t.q, r)
	rn.queued++
}

// popLocked removes and returns the next run to dispatch, or nil when the
// queue is empty.
func (rn *Runner) popLocked() *Run {
	var best *ledger
	for _, t := range rn.ledgers {
		switch {
		case len(t.q) == 0:
		case best == nil:
			best = t
		case t.Priority != best.Priority:
			if t.Priority > best.Priority {
				best = t
			}
		case t.vtime != best.vtime:
			if t.vtime < best.vtime {
				best = t
			}
		case t.name < best.name: // deterministic tie-break
			best = t
		}
	}
	if best == nil {
		return nil
	}
	r := best.q[0]
	best.q = best.q[1:]
	rn.queued--
	// A backlogged tenant's virtual time accumulates freely — clamping it
	// to vnow here would flatten weighted shares to round-robin. vnow only
	// ratchets up, as the re-sync point for tenants that rejoin idle.
	best.vtime += 1 / float64(best.Weight)
	if best.vtime > rn.vnow {
		rn.vnow = best.vtime
	}
	return r
}

// pickVictimLocked picks the running run the freshly pushed r preempts,
// or nil: only when r is still queued with every worker slot busy, and
// only a run of strictly lower priority (never a peer — weighted fairness
// within a class is served by the queue, not by eviction). Among the
// strictly-lower running runs the lowest priority loses; ties prefer the
// most recently started victim, which forfeits the least progress. The
// scan covers exactly the running set — at most MaxConcurrent runs,
// however many the Runner has ever served. The victim is marked
// preempting under the lock, so a run is never preempted twice
// concurrently; the caller delivers the preemption outside it.
func (rn *Runner) pickVictimLocked(r *Run) *Run {
	if r.state != StateQueued || len(rn.running) < rn.cfg.MaxConcurrent {
		return nil
	}
	var victim *Run
	for _, c := range rn.running {
		p := c.ledger.Priority
		if c.preempting || p >= r.ledger.Priority {
			continue
		}
		if victim == nil || p < victim.ledger.Priority ||
			(p == victim.ledger.Priority && c.started.After(victim.started)) {
			victim = c
		}
	}
	if victim != nil {
		victim.preempting = true
	}
	return victim
}
