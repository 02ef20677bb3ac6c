package benchkit

import (
	"fmt"
	"maps"
	"regexp"
	"slices"
	"time"

	"repro"
	"repro/internal/machine"
)

// Filter returns the scenarios whose name or any tag matches the
// regular expression expr; an empty expr selects everything.
func Filter(scs []Scenario, expr string) ([]Scenario, error) {
	if expr == "" {
		return scs, nil
	}
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("benchkit: bad filter %q: %w", expr, err)
	}
	var out []Scenario
	for _, s := range scs {
		if re.MatchString(s.Name) {
			out = append(out, s)
			continue
		}
		for _, t := range s.Tags {
			if re.MatchString(t) {
				out = append(out, s)
				break
			}
		}
	}
	return out, nil
}

// Run runs every scenario twice on the virtual engine and returns the
// ledger. The two runs of a scenario must agree on every metric: that
// is the engine's determinism contract, and a mismatch means
// nondeterminism leaked into the simulator — a bug worth failing the
// whole suite over. logf, if non-nil, receives one progress line per
// scenario.
func Run(scs []Scenario, logf func(format string, args ...any)) (*File, error) {
	if err := validateScenarios(scs); err != nil {
		return nil, err
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("benchkit: no scenarios selected")
	}
	f := &File{}
	for _, s := range scs {
		start := time.Now()
		m, err := runTwice(s)
		if err != nil {
			return nil, fmt.Errorf("benchkit: scenario %q: %w", s.Name, err)
		}
		if logf != nil {
			logf("%-40s %v", s.Name, time.Since(start).Round(time.Millisecond))
		}
		f.Scenarios = append(f.Scenarios, Result{Name: s.Name, Adaptive: s.adaptive(), Metrics: m})
	}
	return f, nil
}

// runTwice compiles the scenario once, runs it twice, and returns the
// first run's metrics once the second has matched them exactly. The
// second run is verified against the sequential reference (exactly-once
// and precedence): recording its trace charges no machine time, so a
// ledger figure is one that a checked run produced.
func runTwice(s Scenario) (map[string]float64, error) {
	prog, err := repro.Compile(s.Nest())
	if err != nil {
		return nil, err
	}
	first, err := measure(prog, s.Opts)
	if err != nil {
		return nil, err
	}
	verified := s.Opts
	verified.Verify = true
	second, err := measure(prog, verified)
	if err != nil {
		return nil, err
	}
	for _, name := range slices.Sorted(maps.Keys(first)) {
		if a, b := first[name], second[name]; a != b {
			return nil, fmt.Errorf("determinism violation: %s %v (run 1) vs %v (run 2)", name, a, b)
		}
	}
	return first, nil
}

// measure runs prog once and reads its simulator metrics.
func measure(prog *repro.Program, opts repro.Options) (map[string]float64, error) {
	res, err := prog.Run(opts)
	if err != nil {
		return nil, err
	}
	var accesses int64
	for _, a := range res.Accesses {
		accesses += a
	}
	st := res.Stats
	m := map[string]float64{
		"makespan":    float64(res.Makespan),
		"utilization": res.Utilization,
		"overhead":    float64(st.OverheadTime()),
		"accesses":    float64(accesses),
		"searches":    float64(st.Searches),
		"chunks":      float64(st.Chunks),
		// imbalance is max/mean of per-processor busy time: the
		// load-balance column of a sweep.
		"imbalance": machine.Imbalance(res.Busy),
		// ns_per_claim is the low-level scheduling cost per claimed chunk
		// (O1 time / chunks): what one pass through the bound
		// ChunkCalculator costs, dispatch included.
		"ns_per_claim": 0,
		// sweep_ns is the medium-level cost per pool sweep (O2 time /
		// SEARCH sweeps): what one pass over the SW control word(s) and
		// the retest/lock protocol costs, tracked across sharding and
		// combining variants.
		"sweep_ns": 0,
	}
	if st.Chunks > 0 {
		m["ns_per_claim"] = float64(st.O1Time) / float64(st.Chunks)
	}
	if st.Search.Sweeps > 0 {
		m["sweep_ns"] = float64(st.O2Time) / float64(st.Search.Sweeps)
	}
	return m, nil
}
