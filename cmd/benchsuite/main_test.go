package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchkit"
)

// runFiltered executes the given suite subset into path.
func runFiltered(t *testing.T, filter, path string) {
	t.Helper()
	var sb strings.Builder
	err := run([]string{"run", "-filter", filter, "-q", "-o", path}, &sb)
	if err != nil {
		t.Fatalf("benchsuite run: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "wrote "+path) {
		t.Fatalf("run output missing write confirmation:\n%s", sb.String())
	}
}

// runSmoke executes the suite's smoke slice into path.
func runSmoke(t *testing.T, path string) {
	t.Helper()
	runFiltered(t, "smoke", path)
}

func TestRunWritesValidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_a.json")
	runSmoke(t, path)
	f, err := benchkit.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Scenarios) == 0 {
		t.Fatal("no scenarios in result")
	}
	for _, sc := range f.Scenarios {
		if !strings.HasSuffix(sc.Name, "/virtual") || sc.Adaptive || len(sc.Metrics) != 9 {
			t.Fatalf("scenario %q: adaptive %v, %d metrics", sc.Name, sc.Adaptive, len(sc.Metrics))
		}
	}
}

func TestCompareSameBaselineExitsZero(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "BENCH_a.json")
	b := filepath.Join(dir, "BENCH_b.json")
	// The ledger is deterministic, so exit 0 is guaranteed rather than
	// probabilistic.
	runFiltered(t, "smoke|contention", a)
	runFiltered(t, "smoke|contention", b)
	var sb strings.Builder
	if err := run([]string{"compare", a, b}, &sb); err != nil {
		t.Fatalf("same-baseline compare failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "scenarios match") {
		t.Fatalf("compare output:\n%s", sb.String())
	}
}

func TestCompareSyntheticSlowdownExitsNonzero(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_base.json")
	slow := filepath.Join(dir, "BENCH_slow.json")
	runSmoke(t, base)

	// Synthesize a candidate whose makespans are one unit longer.
	f, err := benchkit.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range f.Scenarios {
		sc.Metrics["makespan"]++
	}
	if err := f.WriteFile(slow); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	err = run([]string{"compare", base, slow}, &sb)
	if !errors.Is(err, errRegression) {
		t.Fatalf("one-unit drift: err = %v, want errRegression\n%s", err, sb.String())
	}
	if got := strings.Count(sb.String(), "MISMATCH: "); got != len(f.Scenarios) {
		t.Fatalf("%d MISMATCH lines for %d drifted scenarios:\n%s", got, len(f.Scenarios), sb.String())
	}
}

// TestCompareMissingScenarioFails: a candidate holding a subset of the
// committed baseline's scenarios fails, and so does a baseline holding
// a subset of the candidate's.
func TestCompareMissingScenarioFails(t *testing.T) {
	one := filepath.Join(t.TempDir(), "BENCH_one.json")
	runFiltered(t, "^flat/ss/virtual$", one)
	for _, args := range [][]string{
		{"compare", "../../BENCH_pr22.json", one},
		{"compare", one, "../../BENCH_pr22.json"},
	} {
		var sb strings.Builder
		err := run(args, &sb)
		if !errors.Is(err, errRegression) || !strings.Contains(sb.String(), "adjoint/ss/virtual: missing from") {
			t.Errorf("%v: err = %v\n%s", args, err, sb.String())
		}
	}
}

// TestCommittedBaselines: both committed files load, and each names
// exactly the registry's scenarios, in registry order.
func TestCommittedBaselines(t *testing.T) {
	scs := benchkit.Default()
	for _, path := range []string{"../../BENCH_pr22.json", "../../BENCH_pr16.json"} {
		f, err := benchkit.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Scenarios) != len(scs) {
			t.Fatalf("%s holds %d scenarios, registry has %d", path, len(f.Scenarios), len(scs))
		}
		for i, r := range f.Scenarios {
			if r.Name != scs[i].Name {
				t.Errorf("%s scenario %d is %q, registry's is %q", path, i, r.Name, scs[i].Name)
			}
		}
	}
}

func TestListAndErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"list"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "adjoint/gss/virtual") {
		t.Fatalf("list output:\n%s", sb.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if !strings.HasSuffix(name, "/virtual") && !strings.HasSuffix(line, " scenarios") {
			t.Errorf("list prints a non-virtual scenario: %q", line)
		}
	}
	if err := run(nil, &sb); err == nil {
		t.Fatal("missing subcommand not rejected")
	}
	if err := run([]string{"nope"}, &sb); err == nil {
		t.Fatal("unknown subcommand not rejected")
	}
	if err := run([]string{"run", "-filter", "matches-nothing-xyz"}, &sb); err == nil {
		t.Fatal("empty selection not rejected")
	}
	if err := run([]string{"compare", "only-one.json"}, &sb); err == nil {
		t.Fatal("compare with one file not rejected")
	}
	// The ledger has no -reps or -bit-identical flag.
	for _, args := range [][]string{
		{"run", "-reps", "2"},
		{"compare", "-bit-identical", "a.json", "b.json"},
	} {
		if err := run(args, &sb); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestSchemaFieldsStable pins the JSON surface: a "scenarios" list,
// one line each, of {name, adaptive?, metrics{name: value}}.
func TestSchemaFieldsStable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_s.json")
	runSmoke(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scenarios []map[string]json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Scenarios) == 0 || strings.Count(string(raw), "\n") != len(doc.Scenarios)+2 {
		t.Fatalf("want one line per scenario:\n%s", raw)
	}
	for _, sc := range doc.Scenarios {
		var metrics map[string]float64
		if err := json.Unmarshal(sc["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if _, ok := sc["name"]; !ok || len(sc) != 2 || len(metrics) != 9 {
			t.Fatalf("scenario object %v: want name and nine metrics", sc)
		}
	}
}
