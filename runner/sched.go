package runner

import (
	"fmt"
	"sort"
)

// scheduler orders the Runner's queued runs. Every method is called with
// the Runner's lock held, so implementations need no locking of their
// own; they must not call back into the Runner or the Run handles. pop
// may return a run that was cancelled while queued — the dispatcher
// skips those — so len is an upper bound on the dispatchable backlog.
type scheduler interface {
	// name identifies the policy ("fifo", "wfq") for stats and logs.
	name() string
	// push adds a queued run.
	push(r *Run)
	// pop removes and returns the next run to dispatch, or nil when the
	// queue is empty.
	pop() *Run
	// len reports the number of queued entries.
	len() int
}

// preempter is an optional scheduler extension. When a push leaves a run
// queued while every worker slot is busy, the Runner offers the
// scheduler the running set; returning a victim preempts it (the victim
// is requeued — with its checkpoint when it yields one — and the freed
// slot dispatches the queue head). Returning nil declines. fifo
// deliberately does not implement it: submission order admits no
// urgency, so nothing ever outranks a running run.
type preempter interface {
	// victim picks a running run to preempt in favor of the queued run,
	// or nil to decline. A run whose preempting flag is set is already
	// being evicted and must not be picked again.
	victim(queued *Run, running []*Run) *Run
}

// SchedulerNames lists the policy names Config.Scheduler accepts (besides
// "", which means the first).
func SchedulerNames() []string { return []string{"fifo", "wfq"} }

// newScheduler builds a scheduler by policy name.
func newScheduler(name string) (scheduler, error) {
	switch name {
	case "", "fifo":
		return &fifo{}, nil
	case "wfq":
		return &wfq{tenants: map[string]*wfqTenant{}}, nil
	}
	return nil, fmt.Errorf("runner: unknown scheduler %q (known: %v)", name, SchedulerNames())
}

// fifo dispatches runs in strict submission order, ignoring tenants,
// weights and priorities.
type fifo struct {
	q []*Run
}

func (f *fifo) name() string { return "fifo" }

func (f *fifo) push(r *Run) { f.q = append(f.q, r) }

func (f *fifo) pop() *Run {
	if len(f.q) == 0 {
		return nil
	}
	r := f.q[0]
	f.q = f.q[1:]
	return r
}

func (f *fifo) len() int { return len(f.q) }

// wfq is a per-tenant weighted-fair queueing scheduler with priority
// classes. Each dispatch charges the run's tenant one virtual slot
// scaled by the inverse of its weight, so under sustained backlog
// tenants receive dispatch slots in proportion to their weights (3:1
// weights → 3:1 dispatches), while an idle tenant that returns is
// charged from the current virtual time rather than catching up on
// slots it never contended for.
//
// Priority classes sit above fairness: pop always serves the highest
// priority present in any queue head, and fairness arbitrates only
// within that class. Within one tenant, runs are ordered by priority
// (descending) then arrival.
type wfq struct {
	tenants map[string]*wfqTenant
	vnow    float64
	queued  int
}

type wfqTenant struct {
	name   string
	weight float64
	vtime  float64
	q      []*Run
}

func (w *wfq) name() string { return "wfq" }

func (w *wfq) push(r *Run) {
	name := r.ledger.name
	t := w.tenants[name]
	if t == nil {
		t = &wfqTenant{name: name, weight: 1}
		w.tenants[name] = t
	}
	if r.weight > 0 {
		t.weight = float64(r.weight)
	}
	if len(t.q) == 0 {
		// A tenant (re)joining the backlog starts from the current
		// virtual time: it competes fairly from now on, without a
		// windfall for the slots it sat out.
		if t.vtime < w.vnow {
			t.vtime = w.vnow
		}
	}
	// Insert by priority (descending), stable in arrival order, so a
	// tenant's urgent run does not queue behind its own bulk work.
	i := sort.Search(len(t.q), func(i int) bool { return t.q[i].priority < r.priority })
	t.q = append(t.q, nil)
	copy(t.q[i+1:], t.q[i:])
	t.q[i] = r
	w.queued++
}

func (w *wfq) pop() *Run {
	var best *wfqTenant
	for _, t := range w.tenants {
		if len(t.q) == 0 {
			continue
		}
		if best == nil {
			best = t
			continue
		}
		tp, bp := t.q[0].priority, best.q[0].priority
		switch {
		case tp != bp:
			if tp > bp {
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
	w.queued--
	// A backlogged tenant's virtual time accumulates freely — clamping it
	// to vnow here would flatten weighted shares to round-robin. vnow only
	// ratchets up, as the re-sync point for tenants that rejoin idle.
	best.vtime += 1 / best.weight
	if best.vtime > w.vnow {
		w.vnow = best.vtime
	}
	return r
}

func (w *wfq) len() int { return w.queued }

// victim implements preempter: the queued run preempts only a running
// run of strictly lower priority (never a peer — weighted fairness
// within a class is served by the queue, not by eviction). Among the
// strictly-lower running runs the lowest priority loses; ties prefer
// the most recently started victim, which forfeits the least progress.
func (w *wfq) victim(queued *Run, running []*Run) *Run {
	var victim *Run
	for _, r := range running {
		if r.preempting || r.priority >= queued.priority {
			continue
		}
		if victim == nil ||
			r.priority < victim.priority ||
			(r.priority == victim.priority && r.started.After(victim.started)) {
			victim = r
		}
	}
	return victim
}
