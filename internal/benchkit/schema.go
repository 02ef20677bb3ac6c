package benchkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// File is one ledger: a Result per scenario, in run order. It is the
// unit written to BENCH_<rev>.json and read back by Compare.
type File struct {
	Scenarios []Result `json:"scenarios"`
}

// Result is one scenario's figures: one value per metric (makespan,
// utilization, overhead, accesses, searches, chunks, imbalance,
// ns_per_claim, sweep_ns).
type Result struct {
	Name string `json:"name"`
	// Adaptive marks a scenario that runs the online adaptive policy:
	// Compare holds it within a band of the baseline, not to its exact
	// values.
	Adaptive bool               `json:"adaptive,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
}

// byName indexes the ledger's results by scenario name.
func (f *File) byName() map[string]Result {
	m := make(map[string]Result, len(f.Scenarios))
	for _, r := range f.Scenarios {
		m[r.Name] = r
	}
	return m
}

// WriteFile writes the ledger as JSON, one scenario to a line, so a
// regenerated baseline diffs scenario by scenario.
func (f *File) WriteFile(path string) error {
	var b bytes.Buffer
	b.WriteString("{\"scenarios\": [\n")
	for i, r := range f.Scenarios {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.WriteString("  ")
		b.Write(line)
		if i < len(f.Scenarios)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// Load reads a ledger. It refuses unknown fields (a file in another
// format), a file without scenarios, and unnamed or duplicate ones.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("benchkit: %s: %w", path, err)
	}
	if len(f.Scenarios) == 0 {
		return nil, fmt.Errorf("benchkit: %s: no scenarios", path)
	}
	seen := map[string]bool{}
	for _, r := range f.Scenarios {
		if r.Name == "" || seen[r.Name] {
			return nil, fmt.Errorf("benchkit: %s: empty or duplicate scenario name %q", path, r.Name)
		}
		seen[r.Name] = true
	}
	return &f, nil
}
