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
	err := run([]string{"run", "-filter", filter, "-reps", "2", "-warmup", "0", "-q", "-o", path}, &sb)
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
		if sc.Engine != "virtual" || !sc.Deterministic {
			t.Fatalf("scenario %q: engine %q, deterministic %v", sc.Name, sc.Engine, sc.Deterministic)
		}
	}
}

func TestCompareSameBaselineExitsZero(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "BENCH_a.json")
	b := filepath.Join(dir, "BENCH_b.json")
	// Gated metrics are bit-identical across runs, so exit 0 is
	// guaranteed rather than probabilistic.
	runFiltered(t, "smoke|contention", a)
	runFiltered(t, "smoke|contention", b)
	var sb strings.Builder
	if err := run([]string{"compare", a, b}, &sb); err != nil {
		t.Fatalf("same-baseline compare failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "no regressions") {
		t.Fatalf("compare output:\n%s", sb.String())
	}
}

func TestCompareSyntheticSlowdownExitsNonzero(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_base.json")
	slow := filepath.Join(dir, "BENCH_slow.json")
	runSmoke(t, base)

	// Synthesize a candidate where every gated metric is 2x worse.
	f, err := benchkit.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	for si := range f.Scenarios {
		for name, m := range f.Scenarios[si].Metrics {
			if !m.Gate {
				continue
			}
			scale := 2.0
			if m.Better == benchkit.BetterMore {
				scale = 0.5
			}
			m.Median *= scale
			m.Min *= scale
			m.Mean *= scale
			m.CILo *= scale
			m.CIHi *= scale
			f.Scenarios[si].Metrics[name] = m
		}
	}
	if err := f.WriteFile(slow); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	err = run([]string{"compare", base, slow}, &sb)
	if !errors.Is(err, errRegression) {
		t.Fatalf("2x slowdown: err = %v, want errRegression\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Fatalf("delta table missing REGRESSION rows:\n%s", sb.String())
	}
}

func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "prof")
	path := filepath.Join(dir, "BENCH_p.json")
	var sb strings.Builder
	err := run([]string{"run", "-filter", "^many/ss/virtual$", "-reps", "1", "-warmup", "0", "-q",
		"-o", path, "-cpuprofile", prof, "-memprofile", prof, "-trace", prof}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("profile dir has %d files, want 3", len(entries))
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
}

// TestSchemaFieldsStable pins the JSON surface: renaming these fields is
// a schema change and must bump benchkit.SchemaVersion.
func TestSchemaFieldsStable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_s.json")
	runSmoke(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema_version", "created_unix", "env", "config", "scenarios"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("result file missing top-level %q:\n%s", key, raw[:200])
		}
	}
	if v := doc["schema_version"].(float64); int(v) != benchkit.SchemaVersion {
		t.Fatalf("schema_version = %v", v)
	}
}
