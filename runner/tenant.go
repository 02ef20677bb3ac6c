package runner

import (
	"errors"
	"sort"

	"repro"
	"repro/internal/obs"
)

// Tenant admission errors. A serving frontend maps both to HTTP 429.
var (
	// ErrTenantQueueFull reports a submission rejected because the
	// tenant's MaxQueued runs are already waiting.
	ErrTenantQueueFull = errors.New("runner: tenant queue limit reached")
	// ErrTenantInflight reports a submission rejected because the tenant
	// already has MaxInflight live (queued or running) runs.
	ErrTenantInflight = errors.New("runner: tenant inflight limit reached")
)

// Tenant is one tenant's scheduling identity and admission limits.
// The zero value is the default tenant: weight 1, priority 0, no caps.
type Tenant struct {
	// Weight scales the tenant's fair share of dispatch slots (0 means 1).
	Weight int `json:"weight,omitempty"`
	// Priority is the tenant's scheduling class: larger values dispatch
	// first and may preempt strictly lower running runs.
	Priority int `json:"priority,omitempty"`
	// MaxQueued caps the tenant's waiting submissions; exceeding it
	// rejects with ErrTenantQueueFull. 0 is unbounded.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxInflight caps the tenant's live (queued + running) runs;
	// exceeding it rejects with ErrTenantInflight. 0 is unbounded.
	MaxInflight int `json:"max_inflight,omitempty"`
}

// tenantName is the one tenant key: keyless work ("" on a Submission) is
// the tenant named "anonymous" — in Config.Tenants, in admission, in the
// ledgers and their queues and in the metrics labels. Only Run.Tenant and
// Progress.Tenant still say "", what was submitted.
func tenantName(t string) string {
	if t == "" {
		return "anonymous"
	}
	return t
}

// ledger is one tenant's record, guarded by rn.mu: its configuration
// (Weight at least 1), the census of its runs by state, kept by the
// transitions, its lifetime outcome tallies, folded from the event stream,
// and its dispatch queue (sched.go).
type ledger struct {
	name string
	Tenant
	census census

	submitted, done, failed, rejected, preempted int64
	iterations                                   int64

	// q holds the tenant's queued runs in arrival order; vtime is the
	// virtual time its dispatches have been charged, 1/Weight each.
	q     []*Run
	vtime float64
}

// ledgerLocked returns (creating if needed) the tenant's ledger.
func (rn *Runner) ledgerLocked(name string) *ledger {
	t := rn.ledgers[name]
	if t == nil {
		t = &ledger{name: name, Tenant: rn.cfg.Tenants[name]}
		t.Weight = max(t.Weight, 1)
		rn.ledgers[name] = t
	}
	return t
}

// admit enforces the tenant's admission limits against its live runs.
// Callers hold rn.mu, so the check and the submit are one step.
func (t *ledger) admit() error {
	queued, running := t.census[StateQueued], t.census[StateRunning]
	if t.MaxInflight > 0 && queued+running >= t.MaxInflight {
		return ErrTenantInflight
	}
	if t.MaxQueued > 0 && queued >= t.MaxQueued {
		return ErrTenantQueueFull
	}
	return nil
}

// tenantMetrics is the labeled-counter mirror of the tallies, rendered
// into /metrics; nil when the Runner has no registry.
type tenantMetrics struct {
	submitted, done, failed, rejected *obs.CounterVec
	iterations                        *obs.CounterVec
}

func newTenantMetrics(reg *obs.Registry) *tenantMetrics {
	return &tenantMetrics{
		submitted: reg.CounterVec("runner_tenant_runs_submitted_total",
			"Runs accepted by Submit, by tenant.", "tenant"),
		done: reg.CounterVec("runner_tenant_runs_done_total",
			"Runs finished successfully, by tenant.", "tenant"),
		failed: reg.CounterVec("runner_tenant_runs_failed_total",
			"Runs finalized with an error, by tenant.", "tenant"),
		rejected: reg.CounterVec("runner_tenant_rejected_total",
			"Submissions rejected by tenant admission control.", "tenant"),
		iterations: reg.CounterVec("runner_tenant_iterations_total",
			"Loop iterations executed by finished runs, by tenant.", "tenant"),
	}
}

// finish folds one terminal run into the tenant's labeled counters.
func (m *tenantMetrics) finish(name string, res *repro.Result, err error) {
	if err == nil {
		m.done.With(name).Inc()
	} else {
		m.failed.With(name).Inc()
	}
	if res != nil {
		m.iterations.With(name).Add(res.Stats.Iterations)
	}
}

// TenantStats is one tenant's census row: configuration, live load, and
// lifetime outcome tallies.
type TenantStats struct {
	Tenant      string `json:"tenant"`
	Weight      int    `json:"weight"`
	Priority    int    `json:"priority"`
	MaxQueued   int    `json:"max_queued,omitempty"`
	MaxInflight int    `json:"max_inflight,omitempty"`
	Queued      int    `json:"queued"`
	Running     int    `json:"running"`
	Submitted   int64  `json:"submitted"`
	Done        int64  `json:"done"`
	Failed      int64  `json:"failed"`
	Rejected    int64  `json:"rejected"`
	Preempted   int64  `json:"preempted"`
	Iterations  int64  `json:"iterations"`
}

// TenantStats returns the per-tenant census, sorted by tenant name: one
// snapshot under the Runner's lock. Configured tenants appear even before
// their first submission (New opens their ledgers); the anonymous tenant
// appears once keyless work has been seen.
func (rn *Runner) TenantStats() []TenantStats {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	out := make([]TenantStats, 0, len(rn.ledgers))
	for _, t := range rn.ledgers {
		out = append(out, TenantStats{
			Tenant: t.name, Weight: t.Weight, Priority: t.Priority,
			MaxQueued: t.MaxQueued, MaxInflight: t.MaxInflight,
			Queued: t.census[StateQueued], Running: t.census[StateRunning],
			Submitted: t.submitted, Done: t.done, Failed: t.failed,
			Rejected: t.rejected, Preempted: t.preempted, Iterations: t.iterations,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
