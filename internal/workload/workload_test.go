package workload

import (
	"testing"

	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/refexec"
)

func stdRun(t *testing.T, nest *loopir.Nest) *refexec.Result {
	t.Helper()
	std, err := nest.Standardize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := descr.Compile(std); err != nil {
		t.Fatal(err)
	}
	r, err := refexec.Run(std)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFig1Shape(t *testing.T) {
	cfg := DefaultFig1()
	std := Fig1Std(cfg)
	leaves := std.Leaves()
	if len(leaves) != 8 {
		t.Fatalf("Fig1 has %d leaves, want 8", len(leaves))
	}
	want := "ABCDEFGH"
	for i, l := range leaves {
		if l.Label != string(want[i]) {
			t.Errorf("leaf %d = %q, want %q", i, l.Label, string(want[i]))
		}
	}
	r := stdRun(t, Fig1(cfg))
	// Instances: A x2, B x4, C x4, D x4, E x2, F x1, H x1 = 18.
	if len(r.Instances) != 18 {
		t.Errorf("Fig1 default executes %d instances, want 18", len(r.Instances))
	}
	// Iterations: (2+4+4+4+2)*4... A:2x4 B:4x4 C:4x4 D:4x4 E:2x4 F:4 H:4 = 72.
	if r.Iterations != 72 {
		t.Errorf("iterations = %d, want 72", r.Iterations)
	}
}

func TestFig1FalseCond(t *testing.T) {
	cfg := DefaultFig1()
	cfg.CondP = func() bool { return false }
	r := stdRun(t, Fig1(cfg))
	keys := r.Keys()
	if keys["G()"] != 1 || keys["F()"] != 0 {
		t.Errorf("FALSE condition should select G: %v", keys)
	}
}

func TestAdjointConvolutionWork(t *testing.T) {
	r := stdRun(t, AdjointConvolution(10, 2))
	// Total work = grain * sum_{j=1..10} (10-j+1) = 2 * 55 = 110.
	if r.TotalWork != 110 {
		t.Errorf("total work = %d, want 110", r.TotalWork)
	}
	if r.Iterations != 10 {
		t.Errorf("iterations = %d, want 10", r.Iterations)
	}
}

func TestTriangularShape(t *testing.T) {
	r := stdRun(t, Triangular(5, 1))
	// Iterations = sum_{k=1..5} (5-k) = 4+3+2+1+0 = 10; the K=5 instance
	// is zero-trip.
	if r.Iterations != 10 {
		t.Errorf("iterations = %d, want 10", r.Iterations)
	}
	if len(r.Instances) != 5 {
		t.Errorf("instances = %d, want 5 (one per pivot)", len(r.Instances))
	}
	if r.Instances[4].Bound != 0 {
		t.Errorf("last pivot instance bound = %d, want 0", r.Instances[4].Bound)
	}
}

func TestWavefrontWork(t *testing.T) {
	r := stdRun(t, Wavefront(8, 1, 3, 7))
	if r.TotalWork != 8*(3+7) {
		t.Errorf("total work = %d, want 80", r.TotalWork)
	}
	std, _ := Wavefront(8, 2, 3, 7).Standardize()
	leaf := std.Leaves()[0]
	if leaf.Kind != loopir.KindDoacross || leaf.Dist != 2 || !leaf.ManualSync {
		t.Errorf("wavefront leaf = kind %v dist %d manual %v", leaf.Kind, leaf.Dist, leaf.ManualSync)
	}
}

func TestBranchySelectsBranches(t *testing.T) {
	r := stdRun(t, Branchy(6, 3, 2, 100, 1))
	keys := r.Keys()
	// I=3,6 heavy; I=1,2,4,5 light.
	heavy, light := 0, 0
	for k, n := range keys {
		switch k[0] {
		case 'H':
			heavy += n
		case 'L':
			light += n
		}
	}
	if heavy != 2 || light != 4 {
		t.Errorf("heavy=%d light=%d, want 2, 4 (%v)", heavy, light, keys)
	}
	if r.TotalWork != 2*3*100+4*2*1 {
		t.Errorf("total work = %d, want 608", r.TotalWork)
	}
}

func TestUniformDoall(t *testing.T) {
	r := stdRun(t, UniformDoall(100, 5))
	if r.Iterations != 100 || r.TotalWork != 500 {
		t.Errorf("iters=%d work=%d", r.Iterations, r.TotalWork)
	}
}

func TestManyInstances(t *testing.T) {
	std, err := ManyInstances(4, 12, 2, 1).Standardize()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := descr.Compile(std)
	if err != nil {
		t.Fatal(err)
	}
	if prog.M != 4 {
		t.Fatalf("M = %d, want 4 distinct leaves", prog.M)
	}
	r, err := refexec.Run(std)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Instances) != 12 {
		t.Errorf("instances = %d, want 12", len(r.Instances))
	}
	if r.Iterations != 24 {
		t.Errorf("iterations = %d, want 24", r.Iterations)
	}
	// Round-robin: each of the 4 leaves gets 3 instances.
	perLeaf := map[string]int{}
	for _, in := range r.Instances {
		perLeaf[in.Leaf.Label]++
	}
	for l, n := range perLeaf {
		if n != 3 {
			t.Errorf("leaf %s has %d instances, want 3", l, n)
		}
	}
}

func TestVarianceDoallDeterministic(t *testing.T) {
	a := stdRun(t, VarianceDoall(200, 10, 90, 7))
	b := stdRun(t, VarianceDoall(200, 10, 90, 7))
	if a.TotalWork != b.TotalWork {
		t.Errorf("same seed gave different work: %d vs %d", a.TotalWork, b.TotalWork)
	}
	c := stdRun(t, VarianceDoall(200, 10, 90, 8))
	if a.TotalWork == c.TotalWork {
		t.Error("different seeds gave identical work (suspicious)")
	}
	// Costs lie in [base, base+spread].
	if a.TotalWork < 200*10 || a.TotalWork > 200*100 {
		t.Errorf("total work %d outside [2000,20000]", a.TotalWork)
	}
	// Zero spread degenerates to uniform.
	u := stdRun(t, VarianceDoall(50, 7, 0, 1))
	if u.TotalWork != 350 {
		t.Errorf("spread-0 work = %d, want 350", u.TotalWork)
	}
}

func TestBimodalDoall(t *testing.T) {
	r := stdRun(t, BimodalDoall(1000, 1, 100, 10, 3))
	// Expect roughly 1/10 heavy iterations: total in a sane band.
	light, heavy := int64(1), int64(100)
	min := 1000 * light
	max := 1000 * heavy
	if r.TotalWork <= min || r.TotalWork >= max {
		t.Errorf("total work %d outside (%d,%d)", r.TotalWork, min, max)
	}
	heavyCount := (r.TotalWork - 1000*light) / (heavy - light)
	if heavyCount < 50 || heavyCount > 200 {
		t.Errorf("heavy iterations = %d, want near 100", heavyCount)
	}
	// Deterministic.
	r2 := stdRun(t, BimodalDoall(1000, 1, 100, 10, 3))
	if r.TotalWork != r2.TotalWork {
		t.Error("bimodal workload not deterministic")
	}
}

func TestReverseAdjointWork(t *testing.T) {
	r := stdRun(t, ReverseAdjoint(10, 2))
	// Total = 2 * sum_{j=1..10} j = 110.
	if r.TotalWork != 110 {
		t.Errorf("total work = %d, want 110", r.TotalWork)
	}
}

func TestRandomGeneratesValidPrograms(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		nest := Random(seed, DefaultRandConfig())
		std, err := nest.Standardize()
		if err != nil {
			t.Fatalf("seed %d: standardize: %v", seed, err)
		}
		if _, err := descr.Compile(std); err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		if _, err := refexec.Run(std); err != nil {
			t.Fatalf("seed %d: refexec: %v", seed, err)
		}
	}
}

func TestRandomIsDeterministic(t *testing.T) {
	cfg := DefaultRandConfig()
	for seed := int64(0); seed < 20; seed++ {
		a, _ := Random(seed, cfg).Standardize()
		b, _ := Random(seed, cfg).Standardize()
		ra, _ := refexec.Run(a)
		rb, _ := refexec.Run(b)
		if ra.Iterations != rb.Iterations || ra.TotalWork != rb.TotalWork ||
			len(ra.Instances) != len(rb.Instances) {
			t.Fatalf("seed %d: nondeterministic generation", seed)
		}
	}
}

func TestRandomCoversFeatures(t *testing.T) {
	// Across many seeds the generator must exercise all construct kinds.
	kinds := map[loopir.Kind]bool{}
	leaves, doacross, zeroBounds := 0, 0, 0
	for seed := int64(0); seed < 300; seed++ {
		nest := Random(seed, DefaultRandConfig())
		nest.Walk(func(nd *loopir.Node, _ int) {
			kinds[nd.Kind] = true
			if nd.IsLeaf() {
				leaves++
				if nd.Kind == loopir.KindDoacross {
					doacross++
				}
			}
			if nd.Kind.IsLoop() {
				if v, ok := nd.Bound.IsStatic(); ok && v == 0 {
					zeroBounds++
				}
			}
		})
	}
	for _, k := range []loopir.Kind{loopir.KindDoall, loopir.KindDoacross, loopir.KindSerial, loopir.KindIf} {
		if !kinds[k] {
			t.Errorf("generator never produced %v", k)
		}
	}
	if doacross == 0 || zeroBounds == 0 {
		t.Errorf("coverage: doacross=%d zeroBounds=%d", doacross, zeroBounds)
	}
}

// TestBuiltinTable: the CLIs print the table in name order and resolve
// names through Lookup; sizes and grain override only when positive.
func TestBuiltinTable(t *testing.T) {
	for i, w := range Builtins {
		if i > 0 && Builtins[i-1].Name >= w.Name {
			t.Errorf("table not in name order at %q", w.Name)
		}
		if got, ok := Lookup(w.Name); !ok || got.Desc != w.Desc {
			t.Errorf("Lookup(%q) = %+v, %v", w.Name, got, ok)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found an unknown name")
	}
	flat, _ := Lookup("flat")
	if got := stdRun(t, flat.Make(0, 0, 1)).Iterations; got != 2000 {
		t.Errorf("flat default = %d iterations, want 2000", got)
	}
	if got := stdRun(t, flat.Make(7, 3, 1)).Iterations; got != 7 {
		t.Errorf("flat -n 7 = %d iterations", got)
	}
}
