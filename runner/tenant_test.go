package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// TestTenantAdmission pins the per-tenant admission contract: MaxQueued
// rejects waiting submissions with ErrTenantQueueFull, MaxInflight
// rejects live ones with ErrTenantInflight, other tenants are
// unaffected, and a slot freed by completion re-admits.
func TestTenantAdmission(t *testing.T) {
	rn := New(Config{
		MaxConcurrent: 1,
		Tenants: map[string]Tenant{
			"alpha": {MaxQueued: 1, MaxInflight: 2},
		},
	})
	defer rn.Close()

	gate := make(chan struct{})
	submit := func(tenant string) (*Run, error) {
		return rn.Submit(Submission{
			Program: gatedProgram(t, 8, gate),
			Options: repro.Options{Procs: 2},
			Tenant:  tenant,
		})
	}
	first, err := submit("alpha") // dispatches (running)
	if err != nil {
		t.Fatal(err)
	}
	<-first.Started()
	if _, err := submit("alpha"); err != nil { // queued: 1 of 1
		t.Fatal(err)
	}
	if _, err := submit("alpha"); !errors.Is(err, ErrTenantInflight) {
		t.Fatalf("third alpha submission: %v, want ErrTenantInflight", err)
	}
	if _, err := submit("beta"); err != nil { // other tenants unaffected
		t.Fatalf("beta submission rejected: %v", err)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rn.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := submit("alpha"); err != nil { // slots freed: re-admitted
		t.Fatalf("post-drain alpha submission rejected: %v", err)
	}
	rows := rn.TenantStats()
	byName := map[string]TenantStats{}
	for _, r := range rows {
		byName[r.Tenant] = r
	}
	if a := byName["alpha"]; a.Rejected != 1 || a.Submitted != 3 {
		t.Errorf("alpha census = %+v, want 3 submitted, 1 rejected", a)
	}
}

// TestTenantQueueCap: MaxQueued alone (no inflight cap) sheds only the
// waiting excess.
func TestTenantQueueCap(t *testing.T) {
	rn := New(Config{
		MaxConcurrent: 1,
		Tenants:       map[string]Tenant{"alpha": {MaxQueued: 1}},
	})
	defer rn.Close()
	gate := make(chan struct{})
	defer close(gate)
	first, err := rn.Submit(Submission{
		Program: gatedProgram(t, 8, gate), Options: repro.Options{Procs: 2}, Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	<-first.Started()
	if _, err := rn.Submit(Submission{
		Program: finiteProgram(t, 8), Options: repro.Options{Procs: 2}, Tenant: "alpha"}); err != nil {
		t.Fatal(err)
	}
	_, err = rn.Submit(Submission{
		Program: finiteProgram(t, 8), Options: repro.Options{Procs: 2}, Tenant: "alpha"})
	if !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("overflow submission: %v, want ErrTenantQueueFull", err)
	}
}

// TestAnonymousIsOneTenant pins the one tenant key: keyless work and
// work submitted as "anonymous" are the same tenant — one admission
// quota (the one configured under "anonymous"), one ledger, one census
// row, one metrics label — while each handle still reports the tenant it
// was submitted with.
func TestAnonymousIsOneTenant(t *testing.T) {
	reg := obs.NewRegistry()
	rn := New(Config{
		MaxConcurrent: 1,
		Metrics:       reg,
		Tenants:       map[string]Tenant{"anonymous": {Weight: 2, MaxInflight: 2}},
	})
	defer rn.Close()
	gate := make(chan struct{})
	submit := func(tenant string) (*Run, error) {
		return rn.Submit(Submission{Program: gatedProgram(t, 8, gate), Options: repro.Options{Procs: 2}, Tenant: tenant})
	}
	keyless, err := submit("")
	if err != nil {
		t.Fatal(err)
	}
	named, err := submit("anonymous")
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"", "anonymous"} {
		if _, err := submit(tenant); !errors.Is(err, ErrTenantInflight) {
			t.Errorf("third submission as %q: %v, want ErrTenantInflight from the shared quota", tenant, err)
		}
	}
	if keyless.Tenant() != "" || named.Tenant() != "anonymous" {
		t.Errorf("handles report tenants %q and %q, want what was submitted", keyless.Tenant(), named.Tenant())
	}
	<-keyless.Started()
	rows := rn.TenantStats()
	if len(rows) != 1 {
		t.Fatalf("TenantStats has %d rows, want the one anonymous tenant: %+v", len(rows), rows)
	}
	want := TenantStats{Tenant: "anonymous", Weight: 2, MaxInflight: 2, Queued: 1, Running: 1, Submitted: 2, Rejected: 2}
	if rows[0] != want {
		t.Errorf("anonymous row = %+v, want %+v", rows[0], want)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rn.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WriteProm(&sb)
	if !strings.Contains(sb.String(), `runner_tenant_runs_done_total{tenant="anonymous"} 2`) ||
		strings.Contains(sb.String(), `tenant=""`) {
		t.Errorf("metrics do not carry the two runs under the one label:\n%s", sb.String())
	}
}

// TestWFQFairnessIterations is the fairness regression test on the
// virtual engine: two backlogged tenants with 3:1 weights submit
// identical programs through a Runner with one worker slot; over
// the completed prefix, their executed-iteration shares must match the
// weights within ε. Runs execute deterministically on the virtual
// engine, so the only nondeterminism is dispatch completion order.
func TestWFQFairnessIterations(t *testing.T) {
	rn := New(Config{
		MaxConcurrent: 1,
		Tenants: map[string]Tenant{
			"gold":   {Weight: 3},
			"bronze": {Weight: 1},
		},
	})
	defer rn.Close()

	// One long-running anchor keeps the slot busy while both tenants
	// queue their backlog, so the scheduler sees sustained contention.
	gate := make(chan struct{})
	anchor, err := rn.Submit(Submission{
		Program: gatedProgram(t, 4, gate), Options: repro.Options{Procs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	<-anchor.Started()

	const each = 12
	const iters = 40
	var runs []*Run
	for i := 0; i < each; i++ {
		for _, tenant := range []string{"gold", "bronze"} {
			r, err := rn.Submit(Submission{
				Program: finiteProgram(t, iters),
				Options: repro.Options{Procs: 4, Scheme: "gss"},
				Tenant:  tenant,
				Label:   fmt.Sprintf("%s-%d", tenant, i),
			})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, r)
		}
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := rn.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Everything eventually completes (work conservation); fairness shows
	// in the dispatch ORDER. Reconstruct it from the per-run start times
	// and check the 3:1 iteration share over the first schedule windows.
	sort := func(rs []*Run) {
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0; j-- {
				_, si, _ := rs[j].Times()
				_, sp, _ := rs[j-1].Times()
				if si.Before(sp) {
					rs[j], rs[j-1] = rs[j-1], rs[j]
				} else {
					break
				}
			}
		}
	}
	sort(runs)
	window := 16 // a multiple of the 3:1 schedule period (4)
	gold, bronze := int64(0), int64(0)
	for _, r := range runs[:window] {
		res, err := r.Result()
		if err != nil {
			t.Fatalf("run %s: %v", r.ID(), err)
		}
		switch r.Tenant() {
		case "gold":
			gold += res.Stats.Iterations
		case "bronze":
			bronze += res.Stats.Iterations
		}
	}
	if gold+bronze != int64(window)*iters {
		t.Fatalf("window executed %d iterations, want %d", gold+bronze, int64(window)*iters)
	}
	ratio := float64(gold) / float64(bronze)
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("iteration share gold:bronze = %d:%d (ratio %.2f), want 3:1 within ε", gold, bronze, ratio)
	}
}

// TestPreemptResumeExactIterations is the preemption-transparency
// acceptance test: a checkpointable low-priority run is preempted by a
// high-priority submission, requeues with its snapshot, resumes on
// redispatch, and its final Result reports the exact iteration total of
// an uninterrupted run — nothing lost at the preemption, nothing
// repeated (the kernel's resume conformance suites pin the multiset;
// cumulative Stats pin it end-to-end here).
func TestPreemptResumeExactIterations(t *testing.T) {
	rn := New(Config{
		MaxConcurrent: 1,
		Tenants: map[string]Tenant{
			"bulk":   {Priority: 0},
			"urgent": {Priority: 5},
		},
	})
	defer rn.Close()

	const bound = 600
	started := make(chan struct{})
	var once bool
	low, err := rn.Submit(Submission{
		Program: finiteProgram(t, bound),
		Options: repro.Options{
			Procs:          2,
			Scheme:         "ss",
			Checkpointable: true,
			Observe: func(repro.Live) {
				if !once {
					once = true
					close(started)
				}
			},
		},
		Tenant: "bulk",
		Label:  "bulk-work",
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	high, err := rn.Submit(Submission{
		Program: finiteProgram(t, 40),
		Options: repro.Options{Procs: 2},
		Tenant:  "urgent",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := high.Wait(ctx); err != nil {
		t.Fatalf("urgent run: %v", err)
	}
	res, err := low.Wait(ctx)
	if err != nil {
		t.Fatalf("preempted run: %v", err)
	}
	if res.Stats.Iterations != bound {
		t.Errorf("preempted+resumed run executed %d iterations, want exactly %d", res.Stats.Iterations, bound)
	}
	if st := rn.Stats(); st.Preempted > 0 {
		// Preemption landed (it can race completion of a short run; the
		// iteration exactness above must hold either way).
		if got := attemptsOf(low); got < 2 {
			t.Errorf("preempted run has %d attempt(s), want >= 2", got)
		}
	}
}

// TestTenantMetricsRendered: the per-tenant counter families render in
// the Prometheus text format with one HELP/TYPE block per bare name and
// one labeled sample per tenant.
func TestTenantMetricsRendered(t *testing.T) {
	reg := obs.NewRegistry()
	rn := New(Config{MaxConcurrent: 2, Metrics: reg})
	defer rn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tenant := range []string{"alpha", ""} {
		r, err := rn.Submit(Submission{
			Program: finiteProgram(t, 16),
			Options: repro.Options{Procs: 2},
			Tenant:  tenant,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The metrics fold asynchronously on handle finalization.
	deadline := time.Now().Add(10 * time.Second)
	var text string
	for {
		var sb strings.Builder
		reg.WriteProm(&sb)
		text = sb.String()
		if strings.Contains(text, `runner_tenant_runs_done_total{tenant="alpha"} 1`) &&
			strings.Contains(text, `runner_tenant_runs_done_total{tenant="anonymous"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant metrics never rendered; got:\n%s", text)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := strings.Count(text, "# TYPE runner_tenant_runs_done_total counter"); n != 1 {
		t.Errorf("HELP/TYPE block rendered %d times, want once", n)
	}
	if !strings.Contains(text, `runner_tenant_iterations_total{tenant="alpha"} 16`) {
		t.Errorf("missing per-tenant iteration sample:\n%s", text)
	}
}

// TestBudgetThroughRunner: a budgeted submission surfaces the typed
// error through the handle, counts in the budget metric, and — when
// checkpointable — parks a resumable snapshot that a resubmission
// completes from.
func TestBudgetThroughRunner(t *testing.T) {
	reg := obs.NewRegistry()
	rn := New(Config{MaxConcurrent: 1, Metrics: reg})
	defer rn.Close()
	prog := finiteProgram(t, 64)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	r, err := rn.Submit(Submission{
		Program: prog,
		Options: repro.Options{
			Procs:            2,
			BudgetIterations: 20,
			Checkpointable:   true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(ctx); !errors.Is(err, repro.ErrBudgetExceeded) {
		t.Fatalf("budgeted run returned %v, want ErrBudgetExceeded", err)
	}
	ck := r.Checkpoint()
	if ck == nil {
		t.Fatal("budget-exceeded checkpointable run parked no snapshot")
	}
	rest, err := rn.Submit(Submission{
		Program: prog,
		Options: repro.Options{Procs: 2, Resume: ck},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rest.Wait(ctx)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Stats.Iterations != 64 {
		t.Errorf("resumed run's cumulative iterations = %d, want 64", res.Stats.Iterations)
	}
}
