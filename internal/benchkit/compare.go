package benchkit

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// DefaultThreshold is the relative median movement a gated metric must
// exceed (outside the noise interval) to count as a regression.
const DefaultThreshold = 0.10

// Delta is one scenario metric's old-versus-new comparison.
type Delta struct {
	Scenario string
	Metric   string
	Old, New Metric
	// Ratio is new median / old median (1 = unchanged). Zero old
	// medians yield ratio 1 when new is also zero, else +Inf.
	Ratio float64
	// Gated reports whether the metric participates in regression
	// gating (both files must agree).
	Gated bool
	// Regression is true when the metric is gated, moved in the worse
	// direction beyond the threshold, and the two confidence intervals
	// are disjoint (the movement is outside measured noise).
	Regression bool
}

// Comparison is the full result of comparing two files.
type Comparison struct {
	Deltas []Delta
	// MissingOld/MissingNew list scenario names present in only one
	// file (renamed, added or removed scenarios — reported, not gated).
	MissingOld []string
	MissingNew []string
}

// Regressions returns the deltas flagged as regressions.
func (c *Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// Compare matches scenarios by name and evaluates every metric present
// in both files. threshold <= 0 uses DefaultThreshold.
func Compare(old, new *File, threshold float64) (*Comparison, error) {
	if err := old.Validate(); err != nil {
		return nil, fmt.Errorf("benchkit: baseline: %w", err)
	}
	if err := new.Validate(); err != nil {
		return nil, fmt.Errorf("benchkit: candidate: %w", err)
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	oldBy := map[string]ScenarioResult{}
	for _, sc := range old.Scenarios {
		oldBy[sc.Name] = sc
	}
	c := &Comparison{}
	seen := map[string]bool{}
	for _, nsc := range new.Scenarios {
		osc, ok := oldBy[nsc.Name]
		if !ok {
			c.MissingOld = append(c.MissingOld, nsc.Name)
			continue
		}
		seen[nsc.Name] = true
		for _, mname := range nsc.MetricNames() {
			nm := nsc.Metrics[mname]
			om, ok := osc.Metrics[mname]
			if !ok {
				continue
			}
			c.Deltas = append(c.Deltas, compareMetric(nsc.Name, mname, om, nm, threshold))
		}
	}
	for _, osc := range old.Scenarios {
		if !seen[osc.Name] {
			c.MissingNew = append(c.MissingNew, osc.Name)
		}
	}
	sort.Slice(c.Deltas, func(i, j int) bool {
		if c.Deltas[i].Scenario != c.Deltas[j].Scenario {
			return c.Deltas[i].Scenario < c.Deltas[j].Scenario
		}
		return c.Deltas[i].Metric < c.Deltas[j].Metric
	})
	return c, nil
}

// hostSideMetrics are measured on the host (wall clock, allocator), not
// inside the simulated machine, so they are exempt from cross-file
// bit-identity.
var hostSideMetrics = map[string]bool{
	"wall_ns":        true,
	"allocs":         true,
	"bytes_per_iter": true,
}

// BitIdentical extends the virtual engine's determinism contract across
// files: every scenario deterministic in both files must report exactly
// the baseline's value for every simulator metric present in both
// (host-side metrics — wall_ns, allocs, bytes_per_iter — are exempt).
// It returns one message per violation; empty means bit-identical.
func BitIdentical(old, new *File) []string {
	oldBy := map[string]ScenarioResult{}
	for _, sc := range old.Scenarios {
		oldBy[sc.Name] = sc
	}
	var out []string
	for _, nsc := range new.Scenarios {
		osc, ok := oldBy[nsc.Name]
		if !ok || !nsc.Deterministic || !osc.Deterministic {
			continue
		}
		for _, mname := range nsc.MetricNames() {
			if hostSideMetrics[mname] {
				continue
			}
			om, ok := osc.Metrics[mname]
			if !ok {
				continue
			}
			if nm := nsc.Metrics[mname]; nm.Median != om.Median {
				out = append(out, fmt.Sprintf("%s %s: %g, baseline %g", nsc.Name, mname, nm.Median, om.Median))
			}
		}
	}
	return out
}

func compareMetric(scenario, name string, om, nm Metric, threshold float64) Delta {
	d := Delta{
		Scenario: scenario,
		Metric:   name,
		Old:      om,
		New:      nm,
		Gated:    om.Gate && nm.Gate,
	}
	switch {
	case om.Median == 0 && nm.Median == 0:
		d.Ratio = 1
	case om.Median == 0:
		d.Ratio = math.Inf(1)
	default:
		d.Ratio = nm.Median / om.Median
	}
	if !d.Gated {
		return d
	}
	if om.Better == BetterMore {
		// Worse = smaller. Regress when the new median fell below
		// (1-threshold)·old and the intervals are disjoint.
		d.Regression = nm.Median < om.Median*(1-threshold) && nm.CIHi < om.CILo
	} else {
		// Worse = larger.
		d.Regression = nm.Median > om.Median*(1+threshold) && nm.CILo > om.CIHi
	}
	return d
}

// WriteTable renders the comparison as an aligned text table: one row
// per gated metric plus any non-gated metric that moved more than 1%,
// regressions marked. It reports how many rows were suppressed.
func (c *Comparison) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-42s %-12s %14s %14s %8s  %s\n", "SCENARIO", "METRIC", "OLD", "NEW", "DELTA", "")
	hidden := 0
	for _, d := range c.Deltas {
		moved := d.Ratio < 0.99 || d.Ratio > 1.01
		if !d.Gated && !moved {
			hidden++
			continue
		}
		mark := ""
		if d.Regression {
			mark = "REGRESSION"
		} else if d.Gated {
			mark = "ok"
		}
		fmt.Fprintf(w, "%-42s %-12s %14.4g %14.4g %+7.1f%%  %s\n",
			d.Scenario, d.Metric, d.Old.Median, d.New.Median, (d.Ratio-1)*100, mark)
	}
	if hidden > 0 {
		fmt.Fprintf(w, "(%d unchanged non-gated metrics hidden)\n", hidden)
	}
	for _, n := range c.MissingOld {
		fmt.Fprintf(w, "NOTE: scenario %q has no baseline entry\n", n)
	}
	for _, n := range c.MissingNew {
		fmt.Fprintf(w, "NOTE: scenario %q missing from candidate\n", n)
	}
}
