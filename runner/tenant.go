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
	// Weight scales the tenant's fair share under the wfq scheduler
	// (0 means 1). FIFO ignores it.
	Weight int `json:"weight,omitempty"`
	// Priority is the tenant's scheduling class under wfq: larger values
	// dispatch first and may preempt strictly lower running runs.
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
// scheduler's queues, in the ledgers and in the metrics labels. Only
// Run.Tenant and Progress.Tenant still say "", what was submitted.
func tenantName(t string) string {
	if t == "" {
		return "anonymous"
	}
	return t
}

// ledger is one tenant's books, guarded by rn.mu: the census of its runs
// by state, kept by the transitions, and its lifetime outcome tallies,
// folded from the event stream.
type ledger struct {
	name   string
	census census

	submitted, done, failed, rejected, preempted int64
	iterations                                   int64
}

// ledgerLocked returns (creating if needed) the tenant's ledger.
func (rn *Runner) ledgerLocked(name string) *ledger {
	t := rn.ledgers[name]
	if t == nil {
		t = &ledger{name: name}
		rn.ledgers[name] = t
	}
	return t
}

// admit enforces the tenant's admission limits against its live runs.
// Callers hold rn.mu, so the check and the submit are one step.
func (lim Tenant) admit(t *ledger) error {
	queued, running := t.census[StateQueued], t.census[StateRunning]
	if lim.MaxInflight > 0 && queued+running >= lim.MaxInflight {
		return ErrTenantInflight
	}
	if lim.MaxQueued > 0 && queued >= lim.MaxQueued {
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
// their first submission; the anonymous tenant appears once keyless work
// has been seen.
func (rn *Runner) TenantStats() []TenantStats {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	out := make([]TenantStats, 0, len(rn.ledgers)+len(rn.cfg.Tenants))
	row := func(name string, t *ledger) {
		cfg := rn.cfg.Tenants[name]
		r := TenantStats{
			Tenant: name, Weight: max(cfg.Weight, 1), Priority: cfg.Priority,
			MaxQueued: cfg.MaxQueued, MaxInflight: cfg.MaxInflight,
		}
		if t != nil {
			r.Queued, r.Running = t.census[StateQueued], t.census[StateRunning]
			r.Submitted, r.Done, r.Failed = t.submitted, t.done, t.failed
			r.Rejected, r.Preempted, r.Iterations = t.rejected, t.preempted, t.iterations
		}
		out = append(out, r)
	}
	for name, t := range rn.ledgers {
		row(name, t)
	}
	for name := range rn.cfg.Tenants {
		if rn.ledgers[name] == nil {
			row(name, nil)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
