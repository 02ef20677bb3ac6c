package benchkit

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mkFile builds a one-scenario ledger holding the given metrics.
func mkFile(name string, adaptive bool, metrics map[string]float64) *File {
	return &File{Scenarios: []Result{{Name: name, Adaptive: adaptive, Metrics: metrics}}}
}

// autoFile is the adaptive scenario with the four banded metrics.
func autoFile(makespan, utilization, overhead, accesses float64) *File {
	return mkFile("irregular/auto/virtual", true, map[string]float64{
		"makespan": makespan, "utilization": utilization, "overhead": overhead, "accesses": accesses,
		"chunks": 100,
	})
}

func TestCompareIdenticalPasses(t *testing.T) {
	f := mkFile("w/ss/virtual", false, map[string]float64{"makespan": 1000, "utilization": 0.9})
	if viol := Compare(f, f); len(viol) != 0 {
		t.Fatalf("identical files produced violations: %v", viol)
	}
	a := autoFile(1000, 0.9, 200, 50)
	if viol := Compare(a, a); len(viol) != 0 {
		t.Fatalf("identical adaptive files produced violations: %v", viol)
	}
}

// TestBitIdentical: a deterministic scenario must equal the baseline
// exactly — a one-unit drift in any of its values fails, whichever way
// it moves and whether or not the adaptive band would pass it.
func TestBitIdentical(t *testing.T) {
	base := map[string]float64{"makespan": 1000, "utilization": 0.9, "overhead": 200,
		"accesses": 50, "searches": 7, "chunks": 100, "imbalance": 1.25, "ns_per_claim": 12.5, "sweep_ns": 30}
	old := mkFile("w/ss/virtual", false, base)
	for name, v := range base {
		for _, d := range []float64{+1, -1} {
			moved := map[string]float64{}
			for k, x := range base {
				moved[k] = x
			}
			moved[name] = v + d
			viol := Compare(old, mkFile("w/ss/virtual", false, moved))
			if len(viol) != 1 || !strings.Contains(viol[0], name) {
				t.Errorf("%s %+g: violations %v, want one naming the metric", name, d, viol)
			}
		}
	}
	// A metric the baseline does not carry (an older file) is not gated;
	// one the candidate lacks is.
	if viol := Compare(mkFile("w/ss/virtual", false, map[string]float64{"makespan": 1000}), old); len(viol) != 0 {
		t.Fatalf("extra candidate metrics flagged: %v", viol)
	}
	if viol := Compare(old, mkFile("w/ss/virtual", false, map[string]float64{"makespan": 1000})); len(viol) != len(base)-1 {
		t.Fatalf("candidate missing %d metrics: violations %v", len(base)-1, viol)
	}
}

// TestCompareBelowThresholdSuppresses: the adaptive scenario may get
// worse by up to 10 % on a banded metric.
func TestCompareBelowThresholdSuppresses(t *testing.T) {
	old := autoFile(1000, 0.9, 200, 50)
	if viol := Compare(old, autoFile(1090, 0.9, 200, 50)); len(viol) != 0 {
		t.Fatalf("auto makespan +9%% must pass: %v", viol)
	}
	if viol := Compare(old, autoFile(1100, 0.82, 220, 55)); len(viol) != 0 {
		t.Fatalf("auto at exactly the band must pass: %v", viol)
	}
}

func TestCompareDoubleSlowdownFails(t *testing.T) {
	old := autoFile(1000, 0.9, 200, 50)
	for _, c := range []struct {
		metric string
		cand   *File
	}{
		{"makespan", autoFile(1110, 0.9, 200, 50)},
		{"makespan", autoFile(2000, 0.9, 200, 50)},
		{"overhead", autoFile(1000, 0.9, 221, 50)},
		{"accesses", autoFile(1000, 0.9, 200, 56)},
	} {
		viol := Compare(old, c.cand)
		if len(viol) != 1 || !strings.Contains(viol[0], c.metric) {
			t.Errorf("auto %s beyond the band: violations %v, want one", c.metric, viol)
		}
	}
}

func TestCompareBetterMoreDirection(t *testing.T) {
	old := autoFile(1000, 0.9, 200, 50)
	if viol := Compare(old, autoFile(1000, 0.4, 200, 50)); len(viol) != 1 {
		t.Fatalf("auto utilization drop not flagged: %v", viol)
	}
	if viol := Compare(old, autoFile(500, 0.95, 100, 25)); len(viol) != 0 {
		t.Fatalf("auto improvement flagged: %v", viol)
	}
}

// TestCompareUngatedNeverRegresses: the adaptive scenario's metrics
// outside the band (chunks, searches, …) may move freely.
func TestCompareUngatedNeverRegresses(t *testing.T) {
	old := autoFile(1000, 0.9, 200, 50)
	cand := autoFile(1000, 0.9, 200, 50)
	cand.Scenarios[0].Metrics["chunks"] = 1e6
	if viol := Compare(old, cand); len(viol) != 0 {
		t.Fatalf("ungated adaptive metric gated: %v", viol)
	}
}

// TestCompareMissingScenariosReported: a scenario on one side only
// fails the compare, in either direction.
func TestCompareMissingScenariosReported(t *testing.T) {
	two := &File{Scenarios: []Result{
		{Name: "a/ss/virtual", Metrics: map[string]float64{"makespan": 1}},
		{Name: "b/ss/virtual", Metrics: map[string]float64{"makespan": 2}},
	}}
	one := &File{Scenarios: two.Scenarios[:1]}
	viol := Compare(two, one)
	if len(viol) != 1 || viol[0] != "b/ss/virtual: missing from candidate" {
		t.Fatalf("baseline scenario missing from candidate: %v", viol)
	}
	viol = Compare(one, two)
	if len(viol) != 1 || viol[0] != "b/ss/virtual: missing from baseline" {
		t.Fatalf("candidate scenario missing from baseline: %v", viol)
	}
}

// TestCompareRejectsBadSchema: Load refuses a file in another format
// (the summary-per-metric schema the ledger used to write), an empty
// one and duplicate scenario names.
func TestCompareRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"old.json":   `{"schema_version": 1, "scenarios": [{"name": "a", "metrics": {"makespan": {"median": 1}}}]}`,
		"empty.json": `{"scenarios": []}`,
		"dup.json":   `{"scenarios": [{"name": "a", "metrics": {}}, {"name": "a", "metrics": {}}]}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
