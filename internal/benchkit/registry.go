package benchkit

import (
	"repro"
	"repro/internal/loopir"
	"repro/internal/workload"
)

// Suite configuration shared by every default scenario: 8 processors
// and the standard virtual access cost, matching the experiment
// settings of EXPERIMENTS.md.
const (
	defaultProcs      = 8
	defaultAccessCost = 10
)

// Default returns the registered scenario suite, every scenario on the
// virtual machine:
//
//   - a core matrix of three workload families (adjoint — decreasing
//     iteration cost, flat — uniform cost, branchy — bimodal
//     IF-dominated cost) × two low-level schemes (ss, gss);
//   - chunked-scheme and Doacross extensions (flat/css:8,
//     wavefront/css:2);
//   - the task-pool ablation: the many-instances workload through the
//     paper's per-loop pool, the single shared list, and the
//     work-stealing distributed pool;
//   - the contention (claim-path) and irregular (adaptive) families.
//
// Scenario names are "workload/scheme[/variant]/virtual" — the suffix is
// what the committed baselines key on; "smoke" tags the fast sanity
// slice CI runs on every push.
func Default() []Scenario {
	type wl struct {
		name string
		mk   func() *loopir.Nest
		tags []string
	}
	workloads := []wl{
		{"adjoint", func() *loopir.Nest { return workload.AdjointConvolution(256, 4) }, nil},
		// Smoke: the cheapest workload under each scheme.
		{"flat", func() *loopir.Nest { return workload.UniformDoall(2048, 100) }, []string{"smoke"}},
		{"branchy", func() *loopir.Nest { return workload.Branchy(24, 64, 16, 200, 5) }, nil},
	}

	var out []Scenario
	add := func(wname string, mk func() *loopir.Nest, scheme, pool string, tags ...string) {
		name := wname + "/" + scheme
		if pool != "" && pool != "per-loop" {
			name += "/" + pool
		}
		name += "/virtual"
		out = append(out, Scenario{
			Name:     name,
			Workload: wname,
			Nest:     mk,
			Opts: repro.Options{
				Procs:      defaultProcs,
				Scheme:     scheme,
				Pool:       pool,
				AccessCost: defaultAccessCost,
			},
			Tags: tags,
		})
	}

	for _, w := range workloads {
		for _, scheme := range []string{"ss", "gss"} {
			add(w.name, w.mk, scheme, "", w.tags...)
		}
	}

	// Chunked scheme and Doacross coverage.
	add("flat", func() *loopir.Nest { return workload.UniformDoall(2048, 100) }, "css:8", "")
	add("wavefront", func() *loopir.Nest { return workload.Wavefront(240, 1, 10, 90) }, "css:2", "")

	// Task-pool ablation on the pool-stressing workload (experiment E5).
	manyNest := func() *loopir.Nest { return workload.ManyInstances(8, 64, 4, 30) }
	add("many", manyNest, "ss", "per-loop", "smoke")
	add("many", manyNest, "ss", "single")
	add("many", manyNest, "ss", "distributed")

	// Contention family (claim-path ablation): tiny-body nests at high
	// P, where nearly all virtual time is synchronization — the regime
	// the batched-claim, SW-sharding and combining knobs exist for. Each
	// variant gets its own scenario name (the committed baselines pin
	// the family since BENCH_pr16.json):
	//
	//   - contention/*: a flat grain-1 doall under ss and css:4, plain
	//     vs ClaimBatch 8 (b8) vs software combining (comb);
	//   - contention-pool/*: the many-instances pool flood, plain vs a
	//     4-way sharded SW control word (shard4).
	addC := func(variant string, mk func() *loopir.Nest, wname, scheme string, mut func(*repro.Options)) {
		o := repro.Options{
			Procs:      2 * defaultProcs,
			Scheme:     scheme,
			AccessCost: defaultAccessCost,
		}
		if mut != nil {
			mut(&o)
		}
		name := wname + "/" + scheme
		if variant != "" {
			name += "/" + variant
		}
		name += "/virtual"
		out = append(out, Scenario{
			Name: name, Workload: wname, Nest: mk, Opts: o,
			Tags: []string{"contention"},
		})
	}
	tiny := func() *loopir.Nest { return workload.UniformDoall(4096, 1) }
	for _, scheme := range []string{"ss", "css:4"} {
		addC("", tiny, "contention", scheme, nil)
		addC("b8", tiny, "contention", scheme, func(o *repro.Options) { o.ClaimBatch = 8 })
		addC("comb", tiny, "contention", scheme, func(o *repro.Options) { o.CombineClaims = true })
	}
	flood := func() *loopir.Nest { return workload.ManyInstances(16, 96, 4, 1) }
	addC("", flood, "contention-pool", "ss", nil)
	addC("shard4", flood, "contention-pool", "ss", func(o *repro.Options) { o.SWShards = 4 })

	// Adaptive-scheduling family: the phase-varying irregular workload
	// under the online auto policy and the static roster it chooses
	// from. Small grain against a raised access cost makes per-claim
	// overhead the dominant term, so the family spreads widely — the
	// gate (TestIrregularFamilyGatesAuto, make verify-gates) holds auto
	// to within 10% of the best static scheme and strictly better than
	// the worst.
	for _, scheme := range IrregularSchemes() {
		add("irregular", IrregularNest, scheme, "", "adapt")
	}

	return out
}

// IrregularNest builds the adaptive-family workload at its registered
// size (16 phases so the adaptation tax of the first instances
// amortizes; grain 5 against the suite's access cost puts claim
// overhead in charge).
func IrregularNest() *loopir.Nest { return workload.Irregular(16, 2048, 5, 1) }

// IrregularSchemes is the scheme roster of the adaptive scenario
// family: the auto policy first, then the static schemes it competes
// against (and draws its candidates from).
func IrregularSchemes() []string {
	return []string{"auto", "ss", "css:64", "gss", "fac2", "tfss"}
}
