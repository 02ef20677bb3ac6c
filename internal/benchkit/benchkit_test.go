package benchkit

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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
// adaptive one) for exercising the repetition controller end to end.
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

func TestRunProducesValidFile(t *testing.T) {
	f, err := Run(tinyScenarios(), RunConfig{Reps: 3, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Scenarios) != 2 {
		t.Fatalf("got %d scenario results", len(f.Scenarios))
	}
	for _, sc := range f.Scenarios {
		for _, name := range []string{"wall_ns", "makespan", "utilization", "imbalance", "overhead", "accesses", "searches", "chunks", "allocs"} {
			m, ok := sc.Metrics[name]
			if !ok {
				t.Fatalf("scenario %q missing metric %q", sc.Name, name)
			}
			if m.N != 3 {
				t.Fatalf("scenario %q metric %q has %d samples, want 3", sc.Name, name, m.N)
			}
		}
	}
	virt := f.Scenarios[0]
	if !virt.Deterministic {
		t.Fatalf("virtual scenario not marked deterministic: %+v", virt)
	}
	// Bit-identical repetitions ⇒ zero spread on the simulator metrics.
	for _, name := range []string{"makespan", "utilization", "accesses"} {
		m := virt.Metrics[name]
		if m.MAD != 0 || m.CILo != m.CIHi {
			t.Fatalf("virtual metric %q has spread: %+v", name, m)
		}
		if !m.Gate {
			t.Fatalf("virtual metric %q should gate", name)
		}
	}
	auto := f.Scenarios[1]
	if auto.Deterministic {
		t.Fatal("adaptive scenario marked deterministic")
	}
	for _, sc := range f.Scenarios {
		if sc.Engine != "virtual" || sc.Metrics["wall_ns"].Gate || !sc.Metrics["makespan"].Gate {
			t.Fatalf("scenario %q: engine %q, gates mis-set: %+v", sc.Name, sc.Engine, sc.Metrics)
		}
	}
	if f.Env.GoVersion == "" || f.Env.NumCPU <= 0 {
		t.Fatalf("fingerprint incomplete: %+v", f.Env)
	}
}

func TestRunFileRoundTrip(t *testing.T) {
	f, err := Run(tinyScenarios()[:1], RunConfig{Reps: 2, Warmup: 0})
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
	a, _ := json.Marshal(f)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Fatalf("round trip changed the file:\n%s\nvs\n%s", a, b)
	}
	// Two runs of the same deterministic scenario must compare clean.
	f2, err := Run(tinyScenarios()[:1], RunConfig{Reps: 2, Warmup: 0})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compare(f, f2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if regs := c.Regressions(); len(regs) != 0 {
		t.Fatalf("same-baseline compare regressed: %+v", regs)
	}
}

func TestRunProfileCapture(t *testing.T) {
	dir := t.TempDir()
	_, err := Run(tinyScenarios()[:1], RunConfig{
		Reps: 2, Warmup: 0,
		CPUProfileDir: dir, MemProfileDir: dir, TraceDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tiny_ss_virtual.cpu.pprof", "tiny_ss_virtual.mem.pprof", "tiny_ss_virtual.trace"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		if st.Size() == 0 && name != "tiny_ss_virtual.cpu.pprof" {
			t.Fatalf("profile %s is empty", name)
		}
	}
}

func TestCheckDeterminism(t *testing.T) {
	same := []repSample{{makespan: 10, utilization: 0.5}, {makespan: 10, utilization: 0.5}}
	if err := checkDeterminism(same); err != nil {
		t.Fatal(err)
	}
	drift := []repSample{{makespan: 10}, {makespan: 11}}
	if err := checkDeterminism(drift); err == nil {
		t.Fatal("makespan drift not caught")
	}
	udrift := []repSample{{utilization: 0.5}, {utilization: 0.6}}
	if err := checkDeterminism(udrift); err == nil {
		t.Fatal("utilization drift not caught")
	}
}

// TestIrregularFamilyGatesAuto is the acceptance gate for the adaptive
// policy: on the phase-varying irregular family, auto's virtual
// makespan must land within 10% of the best static scheme and strictly
// beat the worst. It runs the registered irregular scenarios directly
// (one rep each — the virtual engine is deterministic), so the gate
// measures exactly what `make bench` would record.
func TestIrregularFamilyGatesAuto(t *testing.T) {
	scs, err := Filter(Default(), "^irregular/")
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != len(IrregularSchemes()) {
		t.Fatalf("irregular family has %d scenarios, want %d", len(scs), len(IrregularSchemes()))
	}
	f, err := Run(scs, RunConfig{Reps: 1, Warmup: 0})
	if err != nil {
		t.Fatal(err)
	}
	var auto float64
	best, worst := -1.0, -1.0
	bestName, worstName := "", ""
	for _, sc := range f.Scenarios {
		ms := sc.Metrics["makespan"].Median
		if ms <= 0 {
			t.Fatalf("scenario %q reports makespan %g", sc.Name, ms)
		}
		if sc.Scheme == "auto" {
			auto = ms
			if sc.Deterministic {
				t.Errorf("auto scenario marked deterministic (exempt from cross-file bit-identity)")
			}
			continue
		}
		if !sc.Deterministic {
			t.Errorf("static virtual scenario %q not marked deterministic", sc.Name)
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
	if _, err := Run(nil, RunConfig{Reps: 1}); err == nil {
		t.Fatal("empty suite not rejected")
	}
	dup := []Scenario{tinyScenarios()[0], tinyScenarios()[0]}
	if _, err := Run(dup, RunConfig{Reps: 1}); err == nil {
		t.Fatal("duplicate names not rejected")
	}
	bad := tinyScenarios()[:1]
	bad[0].Opts.Scheme = "no-such-scheme"
	if _, err := Run(bad, RunConfig{Reps: 1}); err == nil {
		t.Fatal("invalid options not rejected")
	}
	// Wall clock belongs to bench/: a goroutine-engine scenario is refused.
	for _, eng := range repro.KnownEngines() {
		sc := tinyScenarios()[:1]
		sc[0].Opts.Engine = repro.EngineKind(eng)
		_, err := Run(sc, RunConfig{Reps: 1})
		if virtual := eng == string(repro.EngineVirtual); (err == nil) != virtual {
			t.Fatalf("engine %q: err = %v", eng, err)
		}
	}
}
