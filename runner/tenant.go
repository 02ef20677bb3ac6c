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

// tenantName normalizes the metrics/census key for a submission tenant.
func tenantName(t string) string {
	if t == "" {
		return "anonymous"
	}
	return t
}

// tenantTally is one tenant's lifetime outcome tally, guarded by rn.mu.
type tenantTally struct {
	submitted, done, failed, rejected, preempted int64
	iterations                                   int64
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

// admit enforces the tenant's admission limits against its live runs,
// which the manager counts at each transition. Callers hold rn.subMu, so
// the counts can only fall between this check and the submit.
func (rn *Runner) admit(tenant string) error {
	lim := rn.tenants[tenant]
	if lim.MaxInflight <= 0 && lim.MaxQueued <= 0 {
		return nil
	}
	queued, running := rn.mgr.TenantLoad(tenant)
	if lim.MaxInflight > 0 && queued+running >= lim.MaxInflight {
		return ErrTenantInflight
	}
	if lim.MaxQueued > 0 && queued >= lim.MaxQueued {
		return ErrTenantQueueFull
	}
	return nil
}

// tally returns (creating if needed) the tenant's tally. Callers hold
// rn.mu.
func (rn *Runner) tally(name string) *tenantTally {
	t := rn.tallies[name]
	if t == nil {
		t = &tenantTally{}
		rn.tallies[name] = t
	}
	return t
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

// TenantStats returns the per-tenant census, sorted by tenant name.
// Configured tenants appear even before their first submission; the
// anonymous tenant appears once keyless work has been seen.
func (rn *Runner) TenantStats() []TenantStats {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	rows := map[string]*TenantStats{}
	row := func(name string) *TenantStats {
		r := rows[name]
		if r == nil {
			r = &TenantStats{Tenant: name, Weight: 1}
			rows[name] = r
		}
		return r
	}
	for name, t := range rn.tenants {
		r := row(tenantName(name))
		if t.Weight > 0 {
			r.Weight = t.Weight
		}
		r.Priority = t.Priority
		r.MaxQueued = t.MaxQueued
		r.MaxInflight = t.MaxInflight
	}
	for name, t := range rn.tallies {
		r := row(name)
		r.Submitted = t.submitted
		r.Done = t.done
		r.Failed = t.failed
		r.Rejected = t.rejected
		r.Preempted = t.preempted
		r.Iterations = t.iterations
	}
	for name, r := range rows {
		r.Queued, r.Running = rn.mgr.TenantLoad(name)
		if name == tenantName("") {
			q, run := rn.mgr.TenantLoad("")
			r.Queued += q
			r.Running += run
		}
	}
	out := make([]TenantStats, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
