package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSweepGoldens pins the fold of cmd/sweep into the ledger: the
// goldens are the deleted binary's stdout at its last commit, and the
// view over benchkit.Run reproduces them byte for byte. The adjoint grid
// is pinned in CSV, at equal or finer precision than its table, and the
// table renderer and header by the file golden.
func TestSweepGoldens(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"sweep_csv.golden", []string{"-workload", "adjoint", "-procs", "1,2,4,8", "-schemes", "ss,css:8,gss", "-csv"}},
		{"sweep_file.golden", []string{"-file", "testdata/sweep_file.loop", "-procs", "1,4",
			"-schemes", "ss,css:4,gss", "-pool", "distributed", "-access", "5"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := run(append([]string{"sweep"}, c.args...), &sb); err != nil {
				t.Fatal(err)
			}
			if sb.String() != string(want) {
				t.Errorf("sweep %v:\n%s\nwant:\n%s", c.args, sb.String(), want)
			}
		})
	}
}

// TestSweepSpeedupShape: on a coarse uniform loop speedup grows with P
// to near-linear, and the P=1 ss cell is the baseline itself.
func TestSweepSpeedupShape(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"sweep", "-workload", "flat", "-procs", "1,2,4,8", "-schemes", "ss,gss", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+8 {
		t.Fatalf("rows = %d, want header + 8:\n%s", len(recs), sb.String())
	}
	first, prev := map[string]float64{}, map[string]float64{}
	for _, r := range recs[1:] {
		procs, scheme := r[0], r[1]
		speedup, err := strconv.ParseFloat(r[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if speedup <= prev[scheme] {
			t.Errorf("%s: speedup not increasing at P=%s:\n%s", scheme, procs, sb.String())
		}
		prev[scheme] = speedup
		if procs == "1" {
			first[scheme] = speedup
			if scheme == "SS" && speedup != 1 {
				t.Errorf("P=1 SS speedup = %v, want 1", speedup)
			}
		}
		// Near-linear, and never better than 8 of the scheme's own P=1 run
		// (a chunked scheme beats the ss baseline already at P=1).
		if procs == "8" && (speedup < 5 || speedup > 8.01*first[scheme]) {
			t.Errorf("%s: speedup at P=8 = %v (P=1: %v), want near-linear", scheme, speedup, first[scheme])
		}
	}
}

// TestSweepDefaults: no flags is the adjoint workload over
// procs {1,2,4,8,16} x schemes {ss,css:8,gss,tss,fsc}.
func TestSweepDefaults(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"sweep", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(sb.String(), "\n") - 1; rows != 25 {
		t.Errorf("rows = %d, want 25:\n%s", rows, sb.String())
	}
}

func TestSweepPoolAndErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"sweep", "-workload", "many", "-procs", "2", "-schemes", "ss", "-pool", "distributed"}, &sb); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.loop")
	if err := os.WriteFile(bad, []byte("doall I = 1.. {"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-procs", "0"},
		{"-procs", "x"},
		{"-pool", "warp"},
		{"-schemes", "bogus"},
		{"-file", "/does/not/exist"},
		{"-file", bad},
	} {
		if err := run(append([]string{"sweep"}, args...), &sb); err == nil {
			t.Errorf("sweep %v accepted", args)
		}
	}
}
