package workload

import "repro/internal/loopir"

// Builtin is one named workload of the command-line tools: loopsched,
// dotgraph and `benchsuite sweep` all resolve -workload through this
// table, so a name means one nest at one default size everywhere.
// (benchkit's registry pins its own sizes: the committed baseline
// depends on them.)
type Builtin struct {
	Name, Desc string
	// Make builds the nest; n and grain override the default size and
	// iteration cost when positive, seed drives the random workload.
	Make func(n, grain, seed int64) *loopir.Nest
}

// Lookup returns the built-in workload with the given name.
func Lookup(name string) (Builtin, bool) {
	for _, w := range Builtins {
		if w.Name == name {
			return w, true
		}
	}
	return Builtin{}, false
}

// Builtins lists the built-in workloads in name order.
var Builtins = []Builtin{
	{"adjoint", "decreasing-cost adjoint convolution", func(n, grain, _ int64) *loopir.Nest {
		return AdjointConvolution(defN(n, 512), defN(grain, 4))
	}},
	{"branchy", "IF-THEN-ELSE nest with 40:1 branch costs", func(n, grain, _ int64) *loopir.Nest {
		return Branchy(defN(n, 24), 64, 16, defN(grain, 200), 5)
	}},
	{"fig1", "the paper's Fig. 1 example program", func(n, grain, _ int64) *loopir.Nest {
		cfg := DefaultFig1()
		if n > 0 {
			cfg.NA, cfg.NB, cfg.NC, cfg.ND, cfg.NE, cfg.NF, cfg.NG, cfg.NH = n, n, n, n, n, n, n, n
		}
		if grain > 0 {
			cfg.IterCost = grain
		}
		return Fig1(cfg)
	}},
	{"flat", "single flat Doall loop", func(n, grain, _ int64) *loopir.Nest {
		return UniformDoall(defN(n, 2000), defN(grain, 100))
	}},
	{"many", "many small instances across 12 inner loops", func(n, grain, _ int64) *loopir.Nest {
		return ManyInstances(12, defN(n, 96), 4, defN(grain, 30))
	}},
	{"radjoint", "increasing-cost reverse adjoint convolution", func(n, grain, _ int64) *loopir.Nest {
		return ReverseAdjoint(defN(n, 512), defN(grain, 4))
	}},
	{"random", "seeded random general nest", func(_, _, seed int64) *loopir.Nest {
		return Random(seed, DefaultRandConfig())
	}},
	{"triangular", "Gaussian-elimination-shaped triangular nest", func(n, grain, _ int64) *loopir.Nest {
		return Triangular(defN(n, 64), defN(grain, 50))
	}},
	{"wavefront", "distance-1 Doacross recurrence", func(n, grain, _ int64) *loopir.Nest {
		g := defN(grain, 100)
		return Wavefront(defN(n, 200), 1, g/10+1, g)
	}},
}

func defN(v, d int64) int64 {
	if v > 0 {
		return v
	}
	return d
}
