package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/refexec"
	nests "repro/internal/workload"
)

// kernel is an in-process workload on the library API: one compiled nest,
// op = one Program.Run on the real engine with scheme "ss", unit = one
// leaf iteration. The worker goroutines are the only runnable threads:
// the driver is blocked in Run.
type kernel struct {
	nest  *repro.Nest
	procs int
	sz    sizing

	prog                *repro.Program
	wantIters, wantInst int64 // the sequential oracle's counts

	// Sums over the ops of a traced phase.
	stats core.Snapshot
	runNs int64
}

// kernelProcs is the worker count: never more runnable threads than CPUs.
func kernelProcs() int { return min(runtime.NumCPU(), 4) }

// kernelSize is the seed's size of a kernel nest: the iterations of
// kernel_fine's doall, the instances kernel_nested activates. The seed
// moves it by a fraction of a percent — enough that a result cached for
// one exact nest does not pass for work done.
func kernelSize(name string, seed int64, sz sizing) int64 {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	if name == "kernel_fine" {
		return sz.fineIters + rng.Int64N(1024)
	}
	return sz.nestedInst + rng.Int64N(128)
}

func newKernel(name string, seed int64, sz sizing) *kernel {
	k := &kernel{procs: kernelProcs(), sz: sz}
	if n := kernelSize(name, seed, sz); name == "kernel_fine" {
		// One instance, one fetch-and-add per iteration: the O1 term.
		k.nest = nests.UniformDoall(n, 1)
	} else {
		// Four iterations per instance: ENTER/EXIT, ICB activation and
		// the pool's SEARCH/Append/Delete dominate — the O3 and O2 terms.
		k.nest = nests.ManyInstances(8, n, 4, 1)
	}
	return k
}

func (k *kernel) options() repro.Options {
	return repro.Options{Procs: k.procs, Scheme: "ss", Engine: repro.EngineReal}
}

// check compares a run's counts with the oracle's.
func (k *kernel) check(res *repro.Result) error {
	if res.Stats.Iterations != k.wantIters || res.Stats.Instances != k.wantInst {
		return fmt.Errorf("ran %d iterations in %d instances, oracle says %d in %d",
			res.Stats.Iterations, res.Stats.Instances, k.wantIters, k.wantInst)
	}
	return nil
}

// setUp compiles the nest, takes the oracle's counts from the sequential
// reference execution and does the first runs, each checked: the plan is
// built, the pools and the Go heap reach their steady state.
func (k *kernel) setUp() error {
	prog, err := repro.Compile(k.nest)
	if err != nil {
		return err
	}
	ref, err := refexec.Run(prog.StdNest())
	if err != nil {
		return err
	}
	k.prog, k.wantIters, k.wantInst = prog, ref.Iterations, int64(len(ref.Instances))
	for i := 0; i < k.sz.warmupOps; i++ {
		res, err := prog.Run(k.options())
		if err != nil {
			return err
		}
		if err := k.check(res); err != nil {
			return err
		}
	}
	return nil
}

// verify runs the nest once with Verify: exactly-once and precedence of
// every iteration against the reference execution. It logs every
// iteration (hundreds of MB), so it runs after the measurement, where it
// cannot pass for the measured runs' memory.
func (k *kernel) verify() error {
	opts := k.options()
	opts.Verify = true
	res, err := k.prog.Run(opts)
	if err != nil {
		return err
	}
	return k.check(res)
}

func (k *kernel) tearDown() { k.prog = nil }

func (k *kernel) pids() []int { return nil }

func (k *kernel) baseline() error {
	k.stats, k.runNs = core.Snapshot{}, 0
	return nil
}

func (k *kernel) op(i int, tr *tracer, parent int) (int64, error) {
	id := tr.begin("repro.Program.Run", parent, i)
	t0 := time.Now()
	res, err := k.prog.Run(k.options())
	ns := time.Since(t0).Nanoseconds()
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if err := k.check(res); err != nil {
		return 0, err
	}
	if tr != nil {
		s, r := &k.stats, res.Stats
		s.Iterations += r.Iterations
		s.Chunks += r.Chunks
		s.Instances += r.Instances
		s.Searches += r.Searches
		s.O1Time += r.O1Time
		s.O2Time += r.O2Time
		s.O3Time += r.O3Time
		s.DispatchTime += r.DispatchTime
		s.BodyTime += r.BodyTime
		s.ICBAllocs += r.ICBAllocs
		s.ICBReuses += r.ICBReuses
		s.Search.Sweeps += r.Search.Sweeps
		s.Search.Walked += r.Search.Walked
		s.Search.LockFailures += r.Search.LockFailures
		k.runNs += ns
	}
	return k.wantIters, nil
}

// layers turns the executor's own accounting, summed over the traced
// ops, into the kernel's per-layer metrics — the paper's eq. (1)/(2)
// terms per unit of the work that causes them.
func (k *kernel) layers(tr *tracer, ph phase, vals map[string]float64) error {
	s := k.stats
	f := func(n int64) float64 { return float64(n) }
	vals["lowsched.o1_ns_per_chunk"] = ratio(f(s.O1Time), f(s.Chunks))
	vals["lowsched.chunks_per_iter"] = ratio(f(s.Chunks), f(s.Iterations))
	vals["core.body_share"] = ratio(f(s.BodyTime), f(s.AccountedTime()))
	vals["core.unaccounted_share"] = 1 - ratio(f(s.AccountedTime()), f(k.runNs)*float64(k.procs))
	vals["pool.o2_ns_per_search"] = ratio(f(s.O2Time), f(s.Searches))
	vals["pool.walked_per_sweep"] = ratio(f(s.Search.Walked), f(s.Search.Sweeps))
	vals["pool.lock_failure_share"] = ratio(f(s.Search.LockFailures), f(s.Search.Sweeps))
	vals["core.o3_ns_per_instance"] = ratio(f(s.O3Time), f(s.Instances))
	vals["core.icb_reuse_share"] = ratio(f(s.ICBReuses), f(s.ICBAllocs+s.ICBReuses))
	vals["core.allocs_per_op"] = ratio(float64(ph.mallocs), float64(ph.ops))

	// Throughput at P over throughput at one processor, same nest.
	one := k.options()
	one.Procs = 1
	const reps = 5
	id := tr.begin("repro.Program.Run(P=1) x5", -1, -1)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		res, err := k.prog.Run(one)
		if err != nil {
			return err
		}
		if err := k.check(res); err != nil {
			return err
		}
	}
	sec := time.Since(t0).Seconds()
	tr.end(id)
	vals["machine.speedup_p"] = ratio(ph.throughput(), f(k.wantIters*reps)/sec)
	return nil
}
