package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/lang"
	"repro/internal/lowsched"
	"repro/internal/machine"
	nests "repro/internal/workload"
	"repro/runner"
)

// probeLayers calls each layer's public functions directly and times the
// calls — the same probes in every traced run, whatever the workload, so
// a layer's own cost is on record next to the end-to-end number it
// should move. Per-program figures are averaged over the served cycle,
// which visits each program equally often.
func probeLayers(tr *tracer, sz sizing, vals map[string]float64) error {
	root := tr.begin("probes", -1, -1)
	defer tr.end(root)
	procs := kernelProcs()
	reps := sz.probeReps
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// The fixed costs a served run pays before and around its execution.
	progs, err := loadPrograms()
	if err != nil {
		return err
	}
	rn := runner.New(runner.Config{MaxConcurrent: 4})
	defer rn.Close()
	n := float64(len(progs))
	for _, p := range progs {
		nest, err := lang.Parse(p.src)
		if err != nil {
			return err
		}
		vals["lang.parse_us"] += tr.timed("lang.Parse", root, reps, func() {
			_, err := lang.Parse(p.src)
			note(err)
		}) / n
		vals["descr.compile_us"] += tr.timed("repro.Compile", root, reps, func() {
			_, err := repro.Compile(nest)
			note(err)
		}) / n
		vals["core.plan_us"] += tr.timed("core.NewPlan", root, reps, func() {
			_, err := core.NewPlan(p.prog.Internal())
			note(err)
		}) / n
		// The runner's cost is what Submit+Wait adds to a bare Run; the
		// two are timed in alternation so drift cancels in the difference.
		opts := repro.Options{Procs: serveProcs}
		bare, extra := make([]float64, reps), make([]float64, reps)
		for i := range bare {
			id := tr.begin("repro.Program.Run(virtual)", root, -1)
			t0 := time.Now()
			_, err := p.prog.Run(opts)
			bare[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
			tr.end(id)
			note(err)
			id = tr.begin("runner.Submit+Wait", root, -1)
			t0 = time.Now()
			r, err := rn.Submit(runner.Submission{Program: p.prog, Options: opts})
			if err == nil {
				_, err = r.Wait(context.Background())
			}
			extra[i] = float64(time.Since(t0).Nanoseconds())/1e3 - bare[i]
			tr.end(id)
			note(err)
		}
		vals["vmachine.run_us"] += median(bare) / n
		vals["runner.overhead_us"] += median(extra) / n
	}

	// What every Run costs whatever the nest: a one-iteration doall.
	unit, err := repro.Compile(nests.UniformDoall(1, 1))
	if err != nil {
		return err
	}
	real := repro.Options{Procs: procs, Scheme: "ss", Engine: repro.EngineReal}
	vals["core.run_fixed_us"] = tr.timed("repro.Program.Run(1 iteration)", root, reps, func() {
		_, err := unit.Run(real)
		note(err)
	})

	// The pure chunk arithmetic of "ss", with no machine under it.
	scheme, err := lowsched.Parse("ss")
	if err != nil {
		return err
	}
	cs, ok := scheme.(lowsched.CalcScheme)
	if !ok {
		return fmt.Errorf("scheme ss has no pure chunk calculator")
	}
	calc := cs.Calculator(procs)
	const chunks = 1 << 20
	id := tr.begin("lowsched.ChunkCalculator.Chunk x2^20", root, -1)
	t0 := time.Now()
	for s, ok := int64(1), true; ok; {
		_, s, ok = calc.Chunk(s, chunks)
	}
	vals["lowsched.calc_ns_per_chunk"] = float64(time.Since(t0).Nanoseconds()) / chunks
	tr.end(id)

	// The hardware floor under O1: procs processors incrementing one
	// synchronization variable, per increment as one processor sees it.
	const adds = 1 << 20 // per processor
	v := machine.NewSyncVar("probe", 0)
	id = tr.begin("machine.SyncVar.FetchInc x2^20 per proc", root, -1)
	t0 = time.Now()
	machine.NewReal(machine.RealConfig{P: procs}).Run(func(p machine.Proc) {
		for i := 0; i < adds; i++ {
			v.FetchInc(p)
		}
	})
	vals["machine.fetchadd_ns"] = float64(time.Since(t0).Nanoseconds()) / adds
	tr.end(id)
	if got := v.Peek(); got != int64(adds*procs) {
		return fmt.Errorf("fetch-and-add probe counted %d, want %d", got, adds*procs)
	}

	// The virtual machine's utilization of the two kernel nests, scaled
	// down, at P = 8: deterministic, so it must repeat exactly.
	virt := repro.Options{Procs: 8, Scheme: "ss"}
	for _, nest := range []*repro.Nest{nests.UniformDoall(20_000, 1), nests.ManyInstances(8, 2_000, 4, 1)} {
		id = tr.begin("repro.Execute(virtual, P=8)", root, -1)
		res, err := repro.Execute(nest, virt)
		tr.end(id)
		if err != nil {
			return err
		}
		vals["vmachine.util"] += res.Utilization / 2
	}

	// The journal's append, buffered and fsynced, of a record the size of
	// a served run's submit record, in the directory the daemon's journal
	// lives in.
	dir := filepath.Join(outDir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	record := make([]byte, 400)
	for _, j := range []struct {
		metric string
		policy journal.Sync
	}{{"journal.append_us", journal.SyncNone}, {"journal.append_sync_us", journal.SyncAlways}} {
		jw, err := journal.Open(filepath.Join(dir, j.metric), j.policy)
		if err != nil {
			return err
		}
		vals[j.metric] = tr.timed("journal.Writer.Append("+j.policy.String()+")", root, reps, func() {
			note(jw.Append(1, "run-0001", record))
		})
		if err := jw.Close(); err != nil {
			return err
		}
	}
	return firstErr
}

// The tick: a fixed piece of work of the harness's own, timed before and
// after a traced run's phases and reported as harness.tick_us. It says how
// fast the box was during the run (a busy neighbour on a sibling hardware
// thread slows it by the same factor as the code under test), so a reader
// can tell a disturbed run from a regression. Nothing is rescaled by it.

var tickSink int // keeps calibrate's work observable

// calibrate fills a map, sorts a slice and allocates 16 KB: the
// allocation-, branch- and cache-bound mix of the Go code under test.
func calibrate() {
	m := make(map[int]int, 512)
	xs := make([]int, 2048)
	x := uint64(12345)
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		xs[i] = int(x >> 33)
		m[xs[i]&511] += i
	}
	sort.Ints(xs)
	tickSink += xs[len(xs)/2] + len(m)
}

// readTick returns the median of eight calibrate calls in nanoseconds, so
// a reading survives a preemption or a collection.
func readTick() float64 {
	ns := make([]float64, 8)
	for i := range ns {
		t0 := time.Now()
		calibrate()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ns)
}
