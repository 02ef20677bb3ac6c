package benchkit

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/loopir"
	"repro/internal/workload"
)

func TestDefaultRegistryShape(t *testing.T) {
	scs := Default()
	if err := validateScenarios(scs); err != nil {
		t.Fatal(err)
	}
	if len(scs) < 12 {
		t.Fatalf("registry has %d scenarios, want >= 12", len(scs))
	}
	workloads := map[string]bool{}
	schemes := map[string]bool{}
	smoke := 0
	for _, s := range scs {
		workloads[s.Workload] = true
		schemes[s.scheme()] = true
		// The ledger is deterministic: every registered scenario is
		// virtual, and its name says so (the baselines key on it).
		if e := s.Opts.Engine; e != "" && e != repro.EngineVirtual {
			t.Errorf("scenario %q runs on engine %q", s.Name, e)
		}
		if !strings.HasSuffix(s.Name, "/virtual") {
			t.Errorf("scenario name %q lacks the /virtual suffix", s.Name)
		}
		for _, tag := range s.Tags {
			if tag == "smoke" {
				smoke++
			}
		}
	}
	if len(workloads) < 3 {
		t.Fatalf("registry covers %d workloads, want >= 3", len(workloads))
	}
	if len(schemes) < 2 {
		t.Fatalf("registry covers %d schemes, want >= 2", len(schemes))
	}
	if smoke == 0 {
		t.Fatal("registry has no smoke-tagged scenarios")
	}
}

func TestFilter(t *testing.T) {
	scs := Default()
	smoke, err := Filter(scs, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(smoke) == 0 || len(smoke) == len(scs) {
		t.Fatalf("smoke filter selected %d of %d", len(smoke), len(scs))
	}
	byName, err := Filter(scs, "^adjoint/gss/virtual$")
	if err != nil {
		t.Fatal(err)
	}
	if len(byName) != 1 {
		t.Fatalf("exact-name filter selected %d scenarios", len(byName))
	}
	if _, err := Filter(scs, "("); err == nil {
		t.Fatal("bad regexp not rejected")
	}
}

// tinyScenarios is a fast two-scenario suite (a static scheme and the
// adaptive one) for exercising Run end to end.
func tinyScenarios() []Scenario {
	mk := func() *loopir.Nest { return workload.UniformDoall(64, 10) }
	return []Scenario{
		{
			Name: "tiny/ss/virtual", Workload: "tiny", Nest: mk,
			Opts: repro.Options{Procs: 4, Scheme: "ss", Engine: repro.EngineVirtual, AccessCost: 10},
			Tags: []string{"smoke"},
		},
		{
			Name: "tiny/auto/virtual", Workload: "tiny", Nest: mk,
			Opts: repro.Options{Procs: 4, Scheme: "auto", AccessCost: 10},
		},
	}
}

// metricNames are the nine simulator metrics every result carries.
var metricNames = []string{"makespan", "utilization", "overhead", "accesses", "searches",
	"chunks", "imbalance", "ns_per_claim", "sweep_ns"}

func TestRunProducesValidFile(t *testing.T) {
	f, err := Run(tinyScenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Scenarios) != 2 {
		t.Fatalf("got %d scenario results", len(f.Scenarios))
	}
	for _, sc := range f.Scenarios {
		if len(sc.Metrics) != len(metricNames) {
			t.Errorf("scenario %q has metrics %v, want exactly %v", sc.Name, sc.Metrics, metricNames)
		}
		for _, name := range metricNames {
			if _, ok := sc.Metrics[name]; !ok {
				t.Fatalf("scenario %q missing metric %q", sc.Name, name)
			}
		}
		if sc.Metrics["makespan"] <= 0 {
			t.Fatalf("scenario %q: makespan %v", sc.Name, sc.Metrics["makespan"])
		}
	}
	if f.Scenarios[0].Adaptive {
		t.Fatal("static scenario marked adaptive")
	}
	if !f.Scenarios[1].Adaptive {
		t.Fatal("auto scenario not marked adaptive")
	}
}

func TestRunFileRoundTrip(t *testing.T) {
	f, err := Run(tinyScenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, back) {
		t.Fatalf("round trip changed the file:\n%+v\nvs\n%+v", f, back)
	}
	// One scenario to a line: the file is a golden table.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != len(f.Scenarios)+2 {
		t.Fatalf("file has %d lines for %d scenarios:\n%s", lines, len(f.Scenarios), raw)
	}
	// Two runs of the same scenarios must compare clean.
	f2, err := Run(tinyScenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if viol := Compare(f, f2); len(viol) != 0 {
		t.Fatalf("same-code compare failed: %v", viol)
	}
}

// TestCheckDeterminism: a scenario whose second run differs from its
// first fails Run. The planted body works one unit longer on every run
// than on the one before, so the two runs' makespans cannot agree.
func TestCheckDeterminism(t *testing.T) {
	var runs atomic.Int64
	drift := []Scenario{{
		Name: "drift/ss/virtual", Workload: "drift",
		Nest: func() *loopir.Nest {
			return loopir.MustBuild(func(b *loopir.B) {
				b.DoallLeaf("D", loopir.Const(16), func(e loopir.Env, iv loopir.IVec, j int64) {
					if j == 1 {
						runs.Add(1)
					}
					e.Work(10 + runs.Load())
				})
			})
		},
		Opts: repro.Options{Procs: 1, Scheme: "ss", AccessCost: 10},
	}}
	_, err := Run(drift, nil)
	if err == nil || !strings.Contains(err.Error(), "determinism violation") {
		t.Fatalf("planted nondeterminism: err = %v, want a determinism violation", err)
	}
	if _, err := Run(tinyScenarios(), nil); err != nil {
		t.Fatalf("deterministic scenarios: %v", err)
	}
}

// TestIrregularFamilyGatesAuto is the acceptance gate for the adaptive
// policy: on the phase-varying irregular family, auto's virtual
// makespan must land within 10% of the best static scheme and strictly
// beat the worst. It runs the registered irregular scenarios through
// Run, so the gate measures exactly what `make bench` would record.
func TestIrregularFamilyGatesAuto(t *testing.T) {
	scs, err := Filter(Default(), "^irregular/")
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(IrregularSchemes()) {
		t.Fatalf("irregular family has %d scenarios, want %d", len(scs), len(IrregularSchemes()))
	}
	f, err := Run(scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var auto float64
	best, worst := -1.0, -1.0
	bestName, worstName := "", ""
	for i, sc := range f.Scenarios {
		ms := sc.Metrics["makespan"]
		if ms <= 0 {
			t.Fatalf("scenario %q reports makespan %g", sc.Name, ms)
		}
		if scs[i].scheme() == "auto" {
			auto = ms
			if !sc.Adaptive {
				t.Errorf("auto scenario not marked adaptive (exempt from cross-file equality)")
			}
			continue
		}
		if sc.Adaptive {
			t.Errorf("static virtual scenario %q marked adaptive", sc.Name)
		}
		if best < 0 || ms < best {
			best, bestName = ms, sc.Name
		}
		if worst < 0 || ms > worst {
			worst, worstName = ms, sc.Name
		}
	}
	if auto == 0 || best < 0 {
		t.Fatal("family missing auto or static results")
	}
	t.Logf("auto %.0f, best static %.0f (%s), worst static %.0f (%s)",
		auto, best, bestName, worst, worstName)
	if auto > best*1.10 {
		t.Errorf("auto makespan %.0f exceeds 1.10 x best static %.0f (%s)", auto, best, bestName)
	}
	if auto >= worst {
		t.Errorf("auto makespan %.0f not below worst static %.0f (%s)", auto, worst, worstName)
	}
}

func TestRunRejectsBadSuite(t *testing.T) {
	if _, err := Run(nil, nil); err == nil {
		t.Fatal("empty suite not rejected")
	}
	dup := []Scenario{tinyScenarios()[0], tinyScenarios()[0]}
	if _, err := Run(dup, nil); err == nil {
		t.Fatal("duplicate names not rejected")
	}
	bad := tinyScenarios()[:1]
	bad[0].Opts.Scheme = "no-such-scheme"
	if _, err := Run(bad, nil); err == nil {
		t.Fatal("invalid options not rejected")
	}
	// Wall clock belongs to bench/: a goroutine-engine scenario is refused.
	for _, eng := range repro.KnownEngines() {
		sc := tinyScenarios()[:1]
		sc[0].Opts.Engine = repro.EngineKind(eng)
		_, err := Run(sc, nil)
		if virtual := eng == string(repro.EngineVirtual); (err == nil) != virtual {
			t.Fatalf("engine %q: err = %v", eng, err)
		}
	}
}
