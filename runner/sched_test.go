package runner

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro"
)

// qrun builds a bare queued run for scheduler unit tests (no Runner).
func qrun(id, tenant string, weight, prio int) *Run {
	return &Run{id: id, tenant: tenant, ledger: &ledger{name: tenantName(tenant)}, weight: weight, priority: prio}
}

// TestFIFOGoldenSequence pins the default scheduler to strict submission
// order — the manager's historical queue-slice behavior.
func TestFIFOGoldenSequence(t *testing.T) {
	f := &fifo{}
	for i := 0; i < 5; i++ {
		f.push(qrun(fmt.Sprintf("r%d", i), "", 0, 0))
	}
	for i := 0; i < 5; i++ {
		r := f.pop()
		if r == nil || r.id != fmt.Sprintf("r%d", i) {
			t.Fatalf("pop %d = %v, want r%d", i, r, i)
		}
	}
	if f.pop() != nil || f.len() != 0 {
		t.Fatalf("drained FIFO not empty")
	}
}

// TestWFQWeightedShare pins the fair-share contract: under sustained
// backlog, tenants with 3:1 weights receive dispatch slots in a 3:1
// ratio over any window that is a multiple of the schedule period.
func TestWFQWeightedShare(t *testing.T) {
	w, _ := newScheduler("wfq")
	for i := 0; i < 20; i++ {
		w.push(qrun(fmt.Sprintf("a%d", i), "alpha", 3, 0))
		w.push(qrun(fmt.Sprintf("b%d", i), "beta", 1, 0))
	}
	counts := map[string]int{}
	for i := 0; i < 12; i++ {
		r := w.pop()
		if r == nil {
			t.Fatalf("pop %d: empty", i)
		}
		counts[r.tenant]++
	}
	if counts["alpha"] != 9 || counts["beta"] != 3 {
		t.Fatalf("12 dispatches split %v, want alpha:9 beta:3", counts)
	}
}

// TestWFQIdleTenantNoWindfall: a tenant that sat out does not bank
// credit — after rejoining it still shares 1:1 with an equal-weight
// tenant instead of monopolizing the queue to "catch up".
func TestWFQIdleTenantNoWindfall(t *testing.T) {
	w, _ := newScheduler("wfq")
	for i := 0; i < 10; i++ {
		w.push(qrun(fmt.Sprintf("a%d", i), "alpha", 1, 0))
	}
	for i := 0; i < 6; i++ { // alpha runs alone for a while
		w.pop()
	}
	for i := 0; i < 10; i++ { // beta joins late
		w.push(qrun(fmt.Sprintf("b%d", i), "beta", 1, 0))
	}
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		counts[w.pop().tenant]++
	}
	if counts["alpha"] != 4 || counts["beta"] != 4 {
		t.Fatalf("post-join dispatches split %v, want 4:4", counts)
	}
}

// TestWFQPriorityClasses: priority sits above fairness — the highest
// priority present always dispatches first, and a tenant's urgent run
// does not queue behind its own bulk work.
func TestWFQPriorityClasses(t *testing.T) {
	w, _ := newScheduler("wfq")
	w.push(qrun("bulk1", "alpha", 1, 0))
	w.push(qrun("bulk2", "alpha", 1, 0))
	w.push(qrun("other", "beta", 1, 0))
	w.push(qrun("urgent", "alpha", 1, 5))
	order := []string{}
	for w.len() > 0 {
		order = append(order, w.pop().id)
	}
	if order[0] != "urgent" {
		t.Fatalf("dispatch order %v, want urgent first", order)
	}
}

// TestWFQVictimSelection pins the preemption policy: only strictly
// lower priorities are evicted, the lowest loses, and ties forfeit the
// most recently started run (least progress lost).
func TestWFQVictimSelection(t *testing.T) {
	w, _ := newScheduler("wfq")
	mk := func(id string, prio int, started time.Time) *Run {
		r := qrun(id, "t", 1, prio)
		r.state = StateRunning
		r.started = started
		return r
	}
	t0 := time.Now()
	peer := mk("peer", 3, t0)
	oldLow := mk("old-low", 1, t0)
	newLow := mk("new-low", 1, t0.Add(time.Second))
	queued := qrun("q", "t", 1, 3)
	if v := w.(preempter).victim(queued, []*Run{peer}); v != nil {
		t.Fatalf("preempted equal-priority peer %s", v.id)
	}
	if v := w.(preempter).victim(queued, []*Run{peer, oldLow, newLow}); v != newLow {
		t.Fatalf("victim = %v, want the most recently started low-priority run", v)
	}
	newLow.preempting = true // its eviction is already in flight
	if v := w.(preempter).victim(queued, []*Run{peer, oldLow, newLow}); v != oldLow {
		t.Fatalf("victim = %v, want the low-priority run not already being evicted", v)
	}
}

// TestManagerPreemptCooperative drives the full preemption state
// machine with a checkpointing run: a higher-priority submission evicts
// the running run through its probe's checkpoint seam, the run requeues
// (attempt count grows), and it finishes after the urgent run releases
// the slot.
func TestManagerPreemptCooperative(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, Scheduler: "wfq", Tenants: classes})
	defer rn.Close()

	probe := yielder()
	proceed := make(chan struct{})
	resumed := &repro.Result{}
	attempts := 0
	low := mustSubmit(t, rn, probe.attach(&Run{label: "low"}), func(context.Context) (*repro.Result, error) {
		attempts++
		if attempts == 1 {
			<-probe.yield
			return nil, fmt.Errorf("yielding: %w", yielded())
		}
		<-proceed
		return resumed, nil
	})
	<-low.Started()

	high := mustSubmit(t, rn, &Run{label: "high", tenant: "high"}, noop)
	if _, err := high.Wait(context.Background()); err != nil {
		t.Fatalf("urgent run: %v", err)
	}
	close(proceed)
	res, err := low.Wait(context.Background())
	if err != nil || res != resumed {
		t.Fatalf("preempted run finished (%v, %v), want resumed", res, err)
	}
	if got := attemptsOf(low); got != 2 {
		t.Errorf("attempts = %d, want 2 (dispatched, preempted, redispatched)", got)
	}
	if st := rn.Stats(); st.Preempted != 1 || st.Scheduler != "wfq" {
		t.Errorf("stats = %+v, want Preempted 1 under wfq", st)
	}
}

// TestManagerPreemptNonCheckpointable: a run without the checkpoint seam
// is evicted through its attempt context and restarts from scratch; the
// run's own context stays live, so the restart is not a user cancel.
func TestManagerPreemptNonCheckpointable(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, Scheduler: "wfq", Tenants: classes})
	defer rn.Close()

	attempts := make(chan int, 2)
	second := &repro.Result{}
	n := 0
	low := mustSubmit(t, rn, &Run{label: "low"}, func(ctx context.Context) (*repro.Result, error) {
		n++
		attempts <- n
		if n == 1 {
			<-ctx.Done() // evicted via the attempt context
			return nil, ctx.Err()
		}
		return second, nil
	})
	if a := <-attempts; a != 1 {
		t.Fatalf("first attempt numbered %d", a)
	}
	high := mustSubmit(t, rn, &Run{label: "high", tenant: "urgent"}, noop)
	if _, err := high.Wait(context.Background()); err != nil {
		t.Fatalf("urgent run: %v", err)
	}
	res, err := low.Wait(context.Background())
	if err != nil || res != second {
		t.Fatalf("restarted run finished (%v, %v)", res, err)
	}
	if got := low.State(); got != StateDone {
		t.Errorf("state = %v, want done", got)
	}
}

// TestManagerPreemptUserCancelWins: a user cancel that lands while the
// preemption is in flight finalizes the run as cancelled — it is not
// resurrected into the queue.
func TestManagerPreemptUserCancelWins(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, Scheduler: "wfq", Tenants: classes})
	defer rn.Close()

	low := mustSubmit(t, rn, &Run{label: "low"}, untilCancelled)
	<-low.Started()
	low.Cancel()
	if _, err := low.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if got := low.State(); got != StateCancelled {
		t.Fatalf("state = %v, want cancelled", got)
	}
}

// TestFIFONeverPreempts: the default scheduler does not implement the
// preempter seam, so a high-priority submission waits its turn.
func TestFIFONeverPreempts(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, Tenants: classes})
	defer rn.Close()

	release := make(chan struct{})
	first := mustSubmit(t, rn, &Run{label: "first"}, func(ctx context.Context) (*repro.Result, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("first run evicted: %w", ctx.Err())
		}
	})
	<-first.Started()
	second := mustSubmit(t, rn, &Run{label: "urgent", tenant: "urgent"}, noop)
	if st := second.State(); st != StateQueued {
		t.Fatalf("urgent run under fifo is %v, want queued", st)
	}
	close(release)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := second.Wait(context.Background()); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if st := rn.Stats(); st.Preempted != 0 || st.Scheduler != "fifo" {
		t.Errorf("stats = %+v, want zero preemptions under fifo", st)
	}
}
