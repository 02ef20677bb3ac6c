package benchkit

import (
	"fmt"
	"maps"
	"slices"
)

// band is how much worse than its baseline an adaptive scenario may get
// on a banded metric.
const band = 0.10

// banded maps the metrics an adaptive scenario is held to within band
// to whether higher is better. Its other metrics are not gated: the
// fitter's trajectory is the algorithm under development.
var banded = map[string]bool{
	"makespan":    false,
	"utilization": true,
	"overhead":    false,
	"accesses":    false,
}

// Compare checks a candidate ledger against a baseline and returns one
// message per violation; none means the candidate passes. The two files
// must name the same scenarios — one missing from either side fails,
// since baselines are regenerated on purpose. Every metric the baseline
// carries must be in the candidate: equal to it for a deterministic
// scenario, worse by at most band on a banded metric for an adaptive
// one.
func Compare(base, cand *File) []string {
	baseBy, candBy := base.byName(), cand.byName()
	var out []string
	for _, b := range base.Scenarios {
		c, ok := candBy[b.Name]
		if !ok {
			out = append(out, b.Name+": missing from candidate")
			continue
		}
		for _, name := range slices.Sorted(maps.Keys(b.Metrics)) {
			want := b.Metrics[name]
			got, ok := c.Metrics[name]
			switch {
			case !ok:
				out = append(out, fmt.Sprintf("%s %s: missing from candidate", b.Name, name))
			case !b.Adaptive && got != want:
				out = append(out, fmt.Sprintf("%s %s: %v, baseline %v", b.Name, name, got, want))
			case b.Adaptive && worse(name, got, want):
				out = append(out, fmt.Sprintf("%s %s: %v, baseline %v (more than %.0f%% worse)",
					b.Name, name, got, want, band*100))
			}
		}
	}
	for _, c := range cand.Scenarios {
		if _, ok := baseBy[c.Name]; !ok {
			out = append(out, c.Name+": missing from baseline")
		}
	}
	return out
}

// worse reports whether got is worse than want by more than band on a
// banded metric.
func worse(metric string, got, want float64) bool {
	higherBetter, ok := banded[metric]
	switch {
	case !ok:
		return false
	case higherBetter:
		return got < want*(1-band)
	default:
		return got > want*(1+band)
	}
}
