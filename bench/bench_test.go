package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"
)

// tiny keeps the whole smoke test to a few seconds.
var tiny = sizing{
	setupReps:  1,
	fineIters:  2_000,
	nestedInst: 200,
	warmupOps:  1,
	seedRuns:   8,
	warmRuns:   6,
	ops:        map[string]int{"kernel_fine": 20, "kernel_nested": 20, "serve_durable": 40, "serve_cluster3": 40},
	probeReps:  3,
	streamOps:  1,
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	Why  string `json:"why"`
}

// TestMetricsMatchBenchmarkJSON runs every workload untraced and traced
// at tiny sizes and checks that what is emitted is exactly what
// BENCHMARK.json declares: each name once, with the declared unit and a
// finite value, no failed op.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames)
	}
	// The op counts are frozen in BENCHMARK.json: each "why" states its own.
	opsRE := regexp.MustCompile(`; (\d+) ops`)
	for _, w := range decl.Workloads {
		m := opsRE.FindStringSubmatch(w.Why)
		if m == nil || m[1] != strconv.Itoa(reference.ops[w.Name]) {
			t.Errorf("%s: BENCHMARK.json says %v, the harness measures %d ops", w.Name, m, reference.ops[w.Name])
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			res, err := runWorkload(io.Discard, name, 1, 10, traced, tiny)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !nameRE.MatchString(d.Name):
					t.Errorf("declared name %q is not a legal metric name", d.Name)
				case !ok:
					t.Errorf("%s traced=%v: declared metric %s not emitted", name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", name, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.Name, m.Value)
				}
			}
			if traced && res.Metrics["throughput"].Unit != "units/s" {
				t.Errorf("%s: throughput unit %q", name, res.Metrics["throughput"].Unit)
			}
			if traced {
				if _, err := os.Stat("out/" + name + ".trace.json"); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestSeedMakesInputs: the same seed gives the same inputs, another seed
// other ones.
func TestSeedMakesInputs(t *testing.T) {
	for _, name := range []string{"kernel_fine", "kernel_nested"} {
		if a, b := kernelSize(name, 7, reference), kernelSize(name, 7, reference); a != b {
			t.Errorf("%s: seed 7 gave sizes %d and %d", name, a, b)
		}
		sizes := map[int64]bool{}
		for seed := int64(1); seed <= 8; seed++ {
			sizes[kernelSize(name, seed, reference)] = true
		}
		if len(sizes) < 4 {
			t.Errorf("%s: 8 seeds gave only %d sizes", name, len(sizes))
		}
	}
	order := func(seed int64) []int {
		s, err := newServe("serve_durable", seed, tiny)
		if err != nil {
			t.Fatal(err)
		}
		return s.order
	}
	if a, b := order(7), order(7); !slices.Equal(a, b) {
		t.Errorf("seed 7 gave program cycles %v and %v", a, b)
	}
	orders := map[[4]int]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		orders[[4]int(order(seed))] = true
	}
	if len(orders) < 3 {
		t.Errorf("8 seeds gave only %d program cycles", len(orders))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

// sleeper is a workload whose op takes a millisecond.
type sleeper struct{}

func (sleeper) setUp() error    { return nil }
func (sleeper) tearDown()       {}
func (sleeper) verify() error   { return nil }
func (sleeper) pids() []int     { return nil }
func (sleeper) baseline() error { return nil }
func (sleeper) op(int, *tracer, int) (int64, error) {
	time.Sleep(time.Millisecond)
	return 1, nil
}
func (sleeper) layers(*tracer, phase, map[string]float64) error { return nil }

// TestPhaseIsFixedWorkUnderACap: a phase is its op count, cut into equal
// blocks; the wall cap cuts it short and says so.
func TestPhaseIsFixedWorkUnderACap(t *testing.T) {
	ph, err := runPhase(sleeper{}, 0, 25, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.ops != 25 || ph.truncated || len(ph.latMs) != 25 || len(ph.blocks) != phaseBlocks {
		t.Errorf("25 ops under a long cap: ops %d truncated %v samples %d blocks %d", ph.ops, ph.truncated, len(ph.latMs), len(ph.blocks))
	}
	for _, b := range ph.blocks {
		if b.ops < 2 || b.ops > 3 || b.units != int64(b.ops) {
			t.Errorf("block of %d ops, %d units; want 2 or 3 of each", b.ops, b.units)
		}
	}
	ph, err = runPhase(sleeper{}, 0, 100_000, 30*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ph.truncated || ph.ops == 0 || ph.ops >= 100_000 || ph.throughput() <= 0 {
		t.Errorf("100000 ops under a 30 ms cap: ops %d truncated %v throughput %v", ph.ops, ph.truncated, ph.throughput())
	}
}
