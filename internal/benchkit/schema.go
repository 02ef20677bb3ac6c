package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SchemaVersion is the result-file format version. Compare refuses to
// mix versions; bump it whenever a field changes meaning.
const SchemaVersion = 1

// Metric direction labels.
const (
	// BetterLess marks metrics where smaller is better (times, counts).
	BetterLess = "less"
	// BetterMore marks metrics where larger is better (utilization).
	BetterMore = "more"
)

// File is one suite run: environment fingerprint, run configuration,
// and per-scenario metric summaries. It is the unit written to
// BENCH_<rev>.json and consumed by Compare.
type File struct {
	SchemaVersion int              `json:"schema_version"`
	CreatedUnix   int64            `json:"created_unix"`
	Env           Env              `json:"env"`
	Config        RunConfig        `json:"config"`
	Scenarios     []ScenarioResult `json:"scenarios"`
}

// ScenarioResult is one scenario's measured outcome.
type ScenarioResult struct {
	Name     string   `json:"name"`
	Workload string   `json:"workload"`
	Scheme   string   `json:"scheme"`
	Pool     string   `json:"pool"`
	Engine   string   `json:"engine"`
	Procs    int      `json:"procs"`
	Tags     []string `json:"tags,omitempty"`
	// Deterministic is true for every scenario but the adaptive ones:
	// its simulator metrics were verified bit-identical across reps and
	// must match a baseline's exactly (BitIdentical).
	Deterministic bool `json:"deterministic"`
	// Metrics maps metric name (makespan, utilization, overhead,
	// accesses, searches, chunks, imbalance, …) to its summary.
	Metrics map[string]Metric `json:"metrics"`
}

// Metric is one measured quantity's summary plus its comparison
// semantics.
type Metric struct {
	// Unit is a display unit ("ns", "vtime", "ratio", "count").
	Unit string `json:"unit"`
	// Better is BetterLess or BetterMore.
	Better string `json:"better"`
	// Gate marks the metric as regression-gating for Compare: the
	// deterministic simulator quantities gate, host-side columns never do.
	Gate    bool `json:"gate"`
	Summary      // inlined: n, median, min, mean, mad, ci_lo, ci_hi
}

// Validate checks the file against the schema invariants Compare and
// downstream tooling rely on.
func (f *File) Validate() error {
	if f.SchemaVersion != SchemaVersion {
		return fmt.Errorf("benchkit: schema version %d, tool expects %d", f.SchemaVersion, SchemaVersion)
	}
	if len(f.Scenarios) == 0 {
		return fmt.Errorf("benchkit: result file has no scenarios")
	}
	seen := map[string]bool{}
	for _, sc := range f.Scenarios {
		if sc.Name == "" {
			return fmt.Errorf("benchkit: scenario with empty name")
		}
		if seen[sc.Name] {
			return fmt.Errorf("benchkit: duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		if len(sc.Metrics) == 0 {
			return fmt.Errorf("benchkit: scenario %q has no metrics", sc.Name)
		}
		for name, m := range sc.Metrics {
			if m.Better != BetterLess && m.Better != BetterMore {
				return fmt.Errorf("benchkit: scenario %q metric %q: bad direction %q", sc.Name, name, m.Better)
			}
			if m.N <= 0 {
				return fmt.Errorf("benchkit: scenario %q metric %q: no samples", sc.Name, name)
			}
			if m.CILo > m.Median || m.CIHi < m.Median {
				return fmt.Errorf("benchkit: scenario %q metric %q: interval [%g, %g] excludes median %g",
					sc.Name, name, m.CILo, m.CIHi, m.Median)
			}
		}
	}
	return nil
}

// MetricNames returns the sorted metric names of a scenario result (for
// stable rendering).
func (sc ScenarioResult) MetricNames() []string {
	names := make([]string, 0, len(sc.Metrics))
	for n := range sc.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteFile validates the result and writes it as indented JSON.
func (f *File) WriteFile(path string) error {
	if err := f.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and validates a result file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchkit: %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("benchkit: %s: %w", path, err)
	}
	return &f, nil
}
