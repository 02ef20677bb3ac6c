// Package benchkit is the deterministic ledger behind cmd/benchsuite and
// `make bench`: every scenario runs on the virtual-time multiprocessor,
// so its makespan, utilization, overhead and access counts are exact
// functions of the code, and a committed BENCH_*.json is a golden file
// `make verify-gates` compares exactly. Wall clock is bench/'s ledger
// (BENCHMARK.json), not this one's.
//
// The kit has three parts:
//
//   - a scenario registry (Default) spanning workloads × low-level
//     schemes × task-pool variants × claim-path knobs; `benchsuite
//     sweep` runs ad-hoc scenarios through the same Run;
//   - Run: each scenario runs twice, the two runs must agree on every
//     metric (a mismatch fails the run), and the File records one value
//     per metric, one scenario to a line;
//   - Compare: a candidate must hold exactly the baseline's scenarios
//     and values; an adaptive scenario may instead get worse by at most
//     10 % on makespan, utilization, overhead and accesses.
//
// The metrics mirror the paper's Section IV quantities: virtual
// makespan and utilization (eq. 1's eta), total scheduling-overhead
// time (the O1/O2/O3 decomposition via core.Snapshot.OverheadTime),
// synchronization access counts, SEARCH calls, low-level chunk fetches,
// load imbalance, and the per-event costs ns_per_claim and sweep_ns.
package benchkit

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/loopir"
)

// Scenario is one registered benchmark case: a workload builder plus a
// fully specified run configuration.
type Scenario struct {
	// Name uniquely identifies the scenario, conventionally
	// "workload/scheme[/pool]/engine" (pool omitted when per-loop).
	Name string
	// Workload names the workload family (registry key, e.g. "adjoint").
	Workload string
	// Nest builds the workload's nest; called once per Run.
	Nest func() *loopir.Nest
	// Opts is the complete run configuration (procs, scheme, pool,
	// virtual-machine costs). The engine must be the virtual one.
	Opts repro.Options
	// Tags select subsets: "smoke" marks the fast sanity slice run in CI.
	Tags []string
}

// adaptive reports whether the scenario runs the online adaptive
// policy. Adaptive scenarios are exempt from cross-file equality: the
// fitter's trajectory is part of the algorithm under development, so a
// baseline holds them within a band, not to their exact values.
func (s Scenario) adaptive() bool { return strings.HasPrefix(s.scheme(), "auto") }

// scheme returns the scenario's scheme spec ("" normalizes to ss).
func (s Scenario) scheme() string {
	if s.Opts.Scheme == "" {
		return "ss"
	}
	return s.Opts.Scheme
}

// validateScenarios checks registry invariants: non-empty unique names,
// a workload builder, valid options and the virtual engine — what
// Compare and the determinism contract rely on.
func validateScenarios(scs []Scenario) error {
	seen := map[string]bool{}
	for _, s := range scs {
		if s.Name == "" {
			return fmt.Errorf("benchkit: scenario with empty name")
		}
		if seen[s.Name] {
			return fmt.Errorf("benchkit: duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Nest == nil {
			return fmt.Errorf("benchkit: scenario %q has no workload builder", s.Name)
		}
		if err := s.Opts.Validate(); err != nil {
			return fmt.Errorf("benchkit: scenario %q: %w", s.Name, err)
		}
		if e := s.Opts.Engine; e != "" && e != repro.EngineVirtual {
			return fmt.Errorf("benchkit: scenario %q: engine %q is not deterministic (wall clock is bench/'s ledger)", s.Name, e)
		}
	}
	return nil
}
