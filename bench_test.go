package repro

// Wall-clock micro-benchmarks of the host-side code: the frontend and
// descriptor compiler, the real engine's claim path and the virtual
// engine's cost per served run (the Kernel* and VirtualServed funcs are
// one op of bench/'s kernel and serve workloads without the daemon, for
// profiling while you work). Virtual-time results are not benchmarked
// here (VirtualServed only asserts its makespans): the
// configurations of the paper's figures run — and are asserted — in
// internal/experiments (E1-E11, F7), and the deterministic baseline is
// benchkit's (`make bench`). Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/workload"
)

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
// the real engine: a flat loop with empty bodies isolates O1. It runs at
// benchKernel's P = min(NumCPU, 4): more workers than CPUs would time
// goroutines yielding to each other, not the claim path.
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
				Engine: machine.NewReal(machine.RealConfig{P: min(runtime.NumCPU(), 4)}),
				Scheme: scheme,
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchKernel is one op of the repo benchmark's kernel workloads
// (bench/kernel.go) per b.N iteration: the compiled nest through the
// library API on the real engine under ss at P = min(NumCPU, 4) — opts
// adds to that — reported as wall nanoseconds per leaf iteration.
func benchKernel(b *testing.B, nest *loopir.Nest, opts Options) {
	prog, err := Compile(nest)
	if err != nil {
		b.Fatal(err)
	}
	opts.Procs, opts.Scheme, opts.Engine = min(runtime.NumCPU(), 4), "ss", EngineReal
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
func BenchmarkKernelFine(b *testing.B) { benchKernel(b, workload.UniformDoall(400000, 1), Options{}) }

// BenchmarkKernelLeased is kernel_fine's nest claimed eight chunks at a
// time: the only place outside `go test` where the real engine slices a
// held lease (one fetch-and-add per eight iterations).
func BenchmarkKernelLeased(b *testing.B) {
	benchKernel(b, workload.UniformDoall(400000, 1), Options{ClaimBatch: 8})
}

// BenchmarkKernelNested is the benchmark's kernel_nested nest: 50k
// four-iteration instances per loop — ENTER/EXIT and SEARCH, O3 and O2 —
// on the real engine's default, the per-processor (distributed) pool. A
// four-iteration body of one work unit costs less than publishing the
// instance, so once a worker has measured both it runs the instances its
// fan-out claims activate inline — one chunk each, no SEARCH — and the
// figure is mostly ENTER/EXIT and the bodies (DESIGN §2).
// BenchmarkKernelScaling prices the paper's per-loop pool beside it.
func BenchmarkKernelNested(b *testing.B) {
	benchKernel(b, workload.ManyInstances(8, 50000, 4, 1), Options{})
}

// BenchmarkVirtualServed is what loopschedd executes for one run of the
// benchmark's serve workloads: each program bench/ submits, on the
// virtual engine at the P it is submitted with. ns/op is the host cost
// of simulating one run (vmachine.run_us in a traced bench run); the
// makespan is virtual time, so any other value is a determinism bug.
func BenchmarkVirtualServed(b *testing.B) {
	for _, tc := range []struct {
		name     string
		makespan int64
	}{
		{"fig1", 6060}, {"pipeline", 8150}, {"flat64", 2140}, {"tri16", 6740},
	} {
		b.Run(tc.name, func(b *testing.B) {
			src, err := os.ReadFile("bench/programs/" + tc.name + ".loop")
			if err != nil {
				b.Fatal(err)
			}
			nest, err := lang.Parse(string(src))
			if err != nil {
				b.Fatal(err)
			}
			prog, err := Compile(nest)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := prog.Run(Options{Procs: 4})
				if err != nil {
					b.Fatal(err)
				}
				if res.Makespan != tc.makespan {
					b.Fatalf("makespan = %d, want %d", res.Makespan, tc.makespan)
				}
			}
			b.ReportMetric(float64(tc.makespan), "makespan")
		})
	}
}

// BenchmarkKernelScaling is the scaling family over the benchmark's two
// kernel nests: P = 1, 2, 4, … NumCPU on the real engine under ss, on the
// paper's per-loop pool and on the distributed pool (the real engine's
// default), so each organization keeps a real-engine price. Each
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
		nsPerIter := func(b *testing.B, p int, pool string, runs int) (float64, core.Snapshot) {
			var st core.Snapshot
			var iters int64
			t0 := time.Now()
			for i := 0; i < runs; i++ {
				res, err := prog.Run(Options{Procs: p, Scheme: "ss", Engine: EngineReal, Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
				iters += st.Iterations
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(iters), st
		}
		for _, pool := range []string{"per-loop", "distributed"} {
			for _, p := range procs {
				b.Run(fmt.Sprintf("%s/%s/P=%d", n.name, pool, p), func(b *testing.B) {
					serial, _ := nsPerIter(b, 1, pool, 1)
					b.ResetTimer()
					ns, st := nsPerIter(b, p, pool, b.N)
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
}
