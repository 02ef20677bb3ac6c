package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro"
)

// qrun builds a bare queued run of tenant on rn's ledgers, for
// dispatch-policy unit tests that push and pop without executing.
func qrun(rn *Runner, id, tenant string) *Run {
	return &Run{id: id, tenant: tenant, ledger: rn.ledgerLocked(tenantName(tenant))}
}

// TestFIFOGoldenSequence pins single-tenant dispatch to strict submission
// order — the manager's historical queue-slice behavior: with one tenant
// and one worker slot, N submissions start in the order they were made.
func TestFIFOGoldenSequence(t *testing.T) {
	const n = 8
	rn := New(Config{MaxConcurrent: 1})
	defer rn.Close()
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("r%d", i)
		mustSubmit(t, rn, &Run{label: label}, func(context.Context) (*repro.Result, error) {
			if i == 0 {
				<-gate // hold the slot until the backlog is queued
			}
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
			return nil, nil
		})
	}
	if st := rn.Stats(); st.QueueDepth != n-1 {
		t.Fatalf("queue depth %d behind the held run, want %d", st.QueueDepth, n-1)
	}
	close(gate)
	drainRunner(t, rn)
	if len(order) != n {
		t.Fatalf("%d of %d runs dispatched", len(order), n)
	}
	for i, label := range order {
		if want := fmt.Sprintf("r%d", i); label != want {
			t.Fatalf("dispatch order %v, want submission order", order)
		}
	}
}

// TestWFQWeightedShare pins the fair-share contract: under sustained
// backlog, tenants with 3:1 weights receive dispatch slots in a 3:1
// ratio over any window that is a multiple of the schedule period.
func TestWFQWeightedShare(t *testing.T) {
	rn := New(Config{Tenants: map[string]Tenant{"alpha": {Weight: 3}, "beta": {Weight: 1}}})
	for i := 0; i < 20; i++ {
		rn.pushLocked(qrun(rn, fmt.Sprintf("a%d", i), "alpha"))
		rn.pushLocked(qrun(rn, fmt.Sprintf("b%d", i), "beta"))
	}
	counts := map[string]int{}
	for i := 0; i < 12; i++ {
		r := rn.popLocked()
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
	rn := New(Config{})
	for i := 0; i < 10; i++ {
		rn.pushLocked(qrun(rn, fmt.Sprintf("a%d", i), "alpha"))
	}
	for i := 0; i < 6; i++ { // alpha runs alone for a while
		rn.popLocked()
	}
	for i := 0; i < 10; i++ { // beta joins late
		rn.pushLocked(qrun(rn, fmt.Sprintf("b%d", i), "beta"))
	}
	counts := map[string]int{}
	for i := 0; i < 8; i++ {
		counts[rn.popLocked().tenant]++
	}
	if counts["alpha"] != 4 || counts["beta"] != 4 {
		t.Fatalf("post-join dispatches split %v, want 4:4", counts)
	}
}

// TestWFQPriorityClasses: priority sits above fairness — the highest
// priority present always dispatches first, however much lower-class work
// queued before it. A class is a tenant attribute, so the urgent run is
// its own tenant's.
func TestWFQPriorityClasses(t *testing.T) {
	rn := New(Config{Tenants: map[string]Tenant{"urgent": {Priority: 5}}})
	rn.pushLocked(qrun(rn, "bulk1", "alpha"))
	rn.pushLocked(qrun(rn, "bulk2", "alpha"))
	rn.pushLocked(qrun(rn, "other", "beta"))
	rn.pushLocked(qrun(rn, "urgent", "urgent"))
	order := []string{}
	for rn.queued > 0 {
		order = append(order, rn.popLocked().id)
	}
	if order[0] != "urgent" {
		t.Fatalf("dispatch order %v, want urgent first", order)
	}
}

// TestWFQVictimSelection pins the preemption policy: only strictly
// lower priorities are evicted, the lowest loses, and ties forfeit the
// most recently started run (least progress lost).
func TestWFQVictimSelection(t *testing.T) {
	rn := New(Config{Tenants: map[string]Tenant{"peer": {Priority: 3}, "low": {Priority: 1}}})
	mk := func(id, tenant string, started time.Time) *Run {
		r := qrun(rn, id, tenant)
		r.state = StateRunning
		r.started = started
		return r
	}
	t0 := time.Now()
	peer := mk("peer", "peer", t0)
	oldLow := mk("old-low", "low", t0)
	newLow := mk("new-low", "low", t0.Add(time.Second))
	queued := qrun(rn, "q", "peer")
	if rn.running = []*Run{peer}; rn.pickVictimLocked(queued) != nil {
		t.Fatalf("preempted equal-priority peer")
	}
	rn.running = []*Run{peer, oldLow, newLow}
	if v := rn.pickVictimLocked(queued); v != newLow {
		t.Fatalf("victim = %v, want the most recently started low-priority run", v)
	}
	// The pick marked newLow: its eviction is in flight, so it is not
	// picked again.
	if !newLow.preempting {
		t.Fatal("the picked victim is not marked preempting")
	}
	if v := rn.pickVictimLocked(queued); v != oldLow {
		t.Fatalf("victim = %v, want the low-priority run not already being evicted", v)
	}
}

// TestManagerPreemptCooperative drives the full preemption state
// machine with a checkpointing run: a higher-priority submission evicts
// the running run through its probe's checkpoint seam, the run requeues
// (attempt count grows), and it finishes after the urgent run releases
// the slot.
func TestManagerPreemptCooperative(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, Tenants: classes})
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
	if st := rn.Stats(); st.Preempted != 1 {
		t.Errorf("stats = %+v, want Preempted 1", st)
	}
}

// TestManagerPreemptNonCheckpointable: a run without the checkpoint seam
// is evicted through its attempt context and restarts from scratch; the
// run's own context stays live, so the restart is not a user cancel.
func TestManagerPreemptNonCheckpointable(t *testing.T) {
	rn := New(Config{MaxConcurrent: 1, Tenants: classes})
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
	rn := New(Config{MaxConcurrent: 1, Tenants: classes})
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
