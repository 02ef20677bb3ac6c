package repro

// Benchmark harness: one benchmark per reproduced figure/result (see
// DESIGN.md's per-experiment index). Benchmarks on the virtual machine are
// deterministic; custom metrics report the quantities the paper's analysis
// is about (virtual makespan, utilization) alongside Go's wall-clock
// numbers. Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// benchRun executes the nest once per b.N iteration on a fresh virtual
// machine and reports virtual makespan and utilization.
func benchRun(b *testing.B, mk func() *loopir.Nest, vcfg vmachine.Config, ccfg core.Config) {
	b.Helper()
	std, err := mk().Standardize()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := descr.Compile(std)
	if err != nil {
		b.Fatal(err)
	}
	var rep *core.Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := ccfg
		cfg.Engine = vmachine.New(vcfg)
		rep, err = core.Run(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Makespan), "vtime")
	b.ReportMetric(rep.Utilization(), "utilization")
}

// BenchmarkTaskPoolFig1 (F7): the Fig. 1 program through the task pool.
func BenchmarkTaskPoolFig1(b *testing.B) {
	for _, scheme := range []lowsched.Scheme{lowsched.SS{}, lowsched.GSS{}} {
		b.Run(scheme.Name(), func(b *testing.B) {
			cfg := workload.DefaultFig1()
			cfg.NA, cfg.NB, cfg.NC, cfg.ND, cfg.NE, cfg.NF, cfg.NG, cfg.NH = 16, 16, 16, 16, 16, 16, 16, 16
			benchRun(b, func() *loopir.Nest { return workload.Fig1(cfg) },
				vmachine.Config{P: 8, AccessCost: 10},
				core.Config{Scheme: scheme})
		})
	}
}

// BenchmarkUtilizationModel (E1): eq. (1) grain sweep.
func BenchmarkUtilizationModel(b *testing.B) {
	for _, tau := range []int64{20, 100, 500, 2000} {
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			benchRun(b, func() *loopir.Nest { return workload.UniformDoall(2000, tau) },
				vmachine.Config{P: 8, AccessCost: 10},
				core.Config{Scheme: lowsched.SS{}})
		})
	}
}

// BenchmarkChunkSweep (E2): eq. (2)/(7) chunk-size sweep.
func BenchmarkChunkSweep(b *testing.B) {
	for _, k := range []int64{1, 8, 64, 512, 2048} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchRun(b, func() *loopir.Nest { return workload.UniformDoall(4096, 30) },
				vmachine.Config{P: 8, AccessCost: 15},
				core.Config{Scheme: lowsched.CSS{K: k}})
		})
	}
}

// BenchmarkDoacrossChunk (E3): chunking a distance-1 Doacross loop.
func BenchmarkDoacrossChunk(b *testing.B) {
	for _, k := range []int64{1, 2, 5, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchRun(b, func() *loopir.Nest { return workload.Wavefront(240, 1, 10, 90) },
				vmachine.Config{P: 8, AccessCost: 2},
				core.Config{Scheme: lowsched.CSS{K: k}})
		})
	}
}

// BenchmarkSchemeComparison (E4): low-level schemes on irregular loops.
func BenchmarkSchemeComparison(b *testing.B) {
	schemes := []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 8}, lowsched.CSS{K: 64},
		lowsched.GSS{}, lowsched.TSS{}, lowsched.FSC{}, lowsched.AFS{},
	}
	loads := map[string]func() *loopir.Nest{
		"adjoint":  func() *loopir.Nest { return workload.AdjointConvolution(512, 4) },
		"radjoint": func() *loopir.Nest { return workload.ReverseAdjoint(512, 4) },
		"branchy":  func() *loopir.Nest { return workload.Branchy(24, 64, 16, 200, 5) },
	}
	for name, mk := range loads {
		for _, s := range schemes {
			b.Run(name+"/"+s.Name(), func(b *testing.B) {
				benchRun(b, mk, vmachine.Config{P: 8, AccessCost: 10}, core.Config{Scheme: s})
			})
		}
	}
}

// BenchmarkPoolScaling (E5): m parallel lists vs a single list.
func BenchmarkPoolScaling(b *testing.B) {
	for _, P := range []int{4, 16} {
		for _, kind := range []core.PoolKind{core.PoolPerLoop, core.PoolSingleList} {
			name := fmt.Sprintf("P=%d/multi", P)
			if kind == core.PoolSingleList {
				name = fmt.Sprintf("P=%d/single", P)
			}
			b.Run(name, func(b *testing.B) {
				benchRun(b, func() *loopir.Nest { return workload.ManyInstances(12, 96, 4, 30) },
					vmachine.Config{P: P, AccessCost: 10},
					core.Config{Pool: kind})
			})
		}
	}
}

// BenchmarkTwoLevelVsOS (E6): self-scheduling vs per-dispatch OS cost.
func BenchmarkTwoLevelVsOS(b *testing.B) {
	cfg := workload.DefaultFig1()
	cfg.NA, cfg.NB, cfg.NC, cfg.ND, cfg.NE, cfg.NF, cfg.NG, cfg.NH = 16, 16, 16, 16, 16, 16, 16, 16
	for _, d := range []int64{0, 2000, 20000} {
		b.Run(fmt.Sprintf("dispatch=%d", d), func(b *testing.B) {
			benchRun(b, func() *loopir.Nest { return workload.Fig1(cfg) },
				vmachine.Config{P: 8, AccessCost: 10},
				core.Config{DispatchCost: d})
		})
	}
}

// BenchmarkCombining (E7): serialized vs combining fetch-and-add.
func BenchmarkCombining(b *testing.B) {
	for _, comb := range []bool{false, true} {
		name := "serialized"
		if comb {
			name = "combining"
		}
		b.Run(name, func(b *testing.B) {
			benchRun(b, func() *loopir.Nest { return workload.UniformDoall(2000, 5) },
				vmachine.Config{P: 16, AccessCost: 10, Combining: comb},
				core.Config{Scheme: lowsched.SS{}})
		})
	}
}

// BenchmarkStaticVsDynamic (E10): static pre-assignment vs dynamic
// self-scheduling on a bimodal load.
func BenchmarkStaticVsDynamic(b *testing.B) {
	for _, s := range []lowsched.Scheme{
		lowsched.StaticBlock{}, lowsched.StaticCyclic{}, lowsched.SS{}, lowsched.GSS{},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			benchRun(b, func() *loopir.Nest { return workload.BimodalDoall(2048, 10, 1000, 16, 99) },
				vmachine.Config{P: 8, AccessCost: 10},
				core.Config{Scheme: s})
		})
	}
}

// BenchmarkPoolLocality (E11): task-pool structures under NUMA penalties.
func BenchmarkPoolLocality(b *testing.B) {
	for _, pen := range []int64{0, 80} {
		for _, kind := range []core.PoolKind{core.PoolPerLoop, core.PoolDistributed} {
			b.Run(fmt.Sprintf("penalty=%d/%s", pen, kind), func(b *testing.B) {
				benchRun(b, func() *loopir.Nest { return workload.ManyInstances(12, 96, 4, 30) },
					vmachine.Config{P: 8, AccessCost: 10, RemotePenalty: pen},
					core.Config{Pool: kind})
			})
		}
	}
}

// BenchmarkSections (E8): parallel sections vs serialized bodies.
func BenchmarkSections(b *testing.B) {
	mk := func(parallel bool) func() *loopir.Nest {
		return func() *loopir.Nest {
			return loopir.MustBuild(func(bb *loopir.B) {
				sec := func(name string, n, g int64) func(*loopir.B) {
					return func(bb *loopir.B) {
						bb.DoallLeaf(name, loopir.Const(n), func(e loopir.Env, iv loopir.IVec, j int64) {
							e.Work(g)
						})
					}
				}
				if parallel {
					bb.Sections("PAR", sec("X", 24, 200), sec("Y", 48, 50), sec("Z", 8, 100))
				} else {
					sec("X", 24, 200)(bb)
					sec("Y", 48, 50)(bb)
					sec("Z", 8, 100)(bb)
				}
			})
		}
	}
	b.Run("sections", func(b *testing.B) {
		benchRun(b, mk(true), vmachine.Config{P: 8, AccessCost: 5}, core.Config{})
	})
	b.Run("serialized", func(b *testing.B) {
		benchRun(b, mk(false), vmachine.Config{P: 8, AccessCost: 5}, core.Config{})
	})
}

// BenchmarkLangParse measures the mini-language frontend.
func BenchmarkLangParse(b *testing.B) {
	src := `
doall I = 1..2 {
  doall A = 1..4 { work 100 }
  serial K = 1..2 {
    doall C = 1..4 { work 100 }
    doall D = 1..4 { work 100 }
  }
}
if (1 == 1) { doall F = 1..4 { work 100 } } else { doall G = 1..4 { work 100 } }`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures the descriptor compiler (Figs. 5-6 pipeline).
func BenchmarkCompile(b *testing.B) {
	nest := workload.Fig1(workload.DefaultFig1())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		std, err := nest.Standardize()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := descr.Compile(std); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraph measures macro-dataflow graph construction (Fig. 4).
func BenchmarkGraph(b *testing.B) {
	std := workload.Fig1Std(workload.DefaultFig1())
	prog, err := descr.Compile(std)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		descr.BuildGraph(prog)
	}
}

// BenchmarkRealEngine runs the scheduler on real goroutines (wall-clock
// numbers; Work is accounted, not slept).
func BenchmarkRealEngine(b *testing.B) {
	for _, P := range []int{2, 8} {
		b.Run(fmt.Sprintf("P=%d", P), func(b *testing.B) {
			std := workload.Fig1Std(workload.DefaultFig1())
			prog, err := descr.Compile(std)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(prog, core.Config{
					Engine: machine.NewReal(machine.RealConfig{P: P}),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIterationOverhead measures the per-iteration scheduling cost on
// the real engine: a flat loop with empty bodies isolates O1.
func BenchmarkIterationOverhead(b *testing.B) {
	for _, scheme := range []lowsched.Scheme{lowsched.SS{}, lowsched.CSS{K: 64}, lowsched.GSS{}} {
		b.Run(scheme.Name(), func(b *testing.B) {
			nest := loopir.MustBuild(func(bb *loopir.B) {
				bb.DoallLeaf("E", loopir.Const(int64(b.N)+1), func(loopir.Env, loopir.IVec, int64) {})
			})
			std, err := nest.Standardize()
			if err != nil {
				b.Fatal(err)
			}
			prog, err := descr.Compile(std)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := core.Run(prog, core.Config{
				Engine: machine.NewReal(machine.RealConfig{P: 8}),
				Scheme: scheme,
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchKernel is one op of the repo benchmark's kernel workloads
// (bench/kernel.go) per b.N iteration: the compiled nest through the
// library API on the real engine under ss at P = min(NumCPU, 4),
// reported as wall nanoseconds per leaf iteration.
func benchKernel(b *testing.B, nest *loopir.Nest) {
	prog, err := Compile(nest)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Procs: min(runtime.NumCPU(), 4), Scheme: "ss", Engine: EngineReal}
	var iters int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prog.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		iters += res.Stats.Iterations
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
}

// BenchmarkKernelFine is the benchmark's kernel_fine nest: one instance,
// one fetch-and-add per iteration — the O1 term of eq. (2).
func BenchmarkKernelFine(b *testing.B) { benchKernel(b, workload.UniformDoall(400000, 1)) }

// BenchmarkKernelNested is the benchmark's kernel_nested nest: 50k
// four-iteration instances per loop — ENTER/EXIT and SEARCH, O3 and O2.
func BenchmarkKernelNested(b *testing.B) { benchKernel(b, workload.ManyInstances(8, 50000, 4, 1)) }

// BenchmarkKernelScaling is the scaling family over the benchmark's two
// kernel nests: P = 1, 2, 4, … NumCPU on the real engine under ss. Each
// leg reports wall ns per leaf iteration, the measured speedup over a
// P=1 run of the same nest taken just before the timed loop, and the
// utilization eq. (1) predicts from the leg's own counters
// (tau, O1, O2/n, O3/N read off its Stats) — the method of "OpenMP Loop
// Scheduling Revisited": judge the claim path per workload, with the
// paper's terms as the ledger. P·eta_eq1 falling behind the measured
// speedup's ideal P is the overhead the ledger sees; speedup falling
// behind P·eta_eq1 is time it does not (idling, memory traffic).
func BenchmarkKernelScaling(b *testing.B) {
	nests := []struct {
		name string
		mk   func() *loopir.Nest
	}{
		{"fine", func() *loopir.Nest { return workload.UniformDoall(400000, 1) }},
		{"nested", func() *loopir.Nest { return workload.ManyInstances(8, 50000, 4, 1) }},
	}
	var procs []int
	for p := 1; p < runtime.NumCPU(); p *= 2 {
		procs = append(procs, p)
	}
	procs = append(procs, runtime.NumCPU())
	for _, n := range nests {
		prog, err := Compile(n.mk())
		if err != nil {
			b.Fatal(err)
		}
		nsPerIter := func(b *testing.B, p, runs int) (float64, core.Snapshot) {
			var st core.Snapshot
			var iters int64
			t0 := time.Now()
			for i := 0; i < runs; i++ {
				res, err := prog.Run(Options{Procs: p, Scheme: "ss", Engine: EngineReal})
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
				iters += st.Iterations
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(iters), st
		}
		for _, p := range procs {
			b.Run(fmt.Sprintf("%s/P=%d", n.name, p), func(b *testing.B) {
				serial, _ := nsPerIter(b, 1, 1)
				b.ResetTimer()
				ns, st := nsPerIter(b, p, b.N)
				b.StopTimer()
				b.ReportMetric(ns, "ns/iter")
				b.ReportMetric(serial/ns, "speedup")
				// tau/(tau + O1 + O2/n + O3/N) with every term a per-iteration
				// average of the leg's counters is body/(body + O1 + O2 + O3).
				b.ReportMetric(st.Efficiency(), "eta_eq1")
			})
		}
	}
}
