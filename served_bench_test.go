package repro_test

import (
	"context"
	"os"
	"runtime"
	"testing"

	"repro"
	"repro/internal/lang"
	"repro/runner"
)

// settled reads the allocator's figures after two collections, so
// HeapAlloc is what is reachable.
func settled() runtime.MemStats {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}

// BenchmarkServedRetained is what one served run leaves behind: each
// program bench/ submits, parsed, compiled and run through
// runner.Submit+Wait on the virtual engine the way loopschedd does, with
// the Runner — its Retain set above the runs served, so it releases
// none — still reachable at the end. retained_B/run is heap in use per
// terminal run after two collections (what one retained outcome costs,
// ROADMAP item 1; a terminal run is an outcome record, DESIGN §16),
// alloc_B/run what serving one allocated on the way.
func BenchmarkServedRetained(b *testing.B) {
	for _, name := range []string{"fig1", "pipeline", "flat64", "tri16"} {
		b.Run(name, func(b *testing.B) {
			src, err := os.ReadFile("bench/programs/" + name + ".loop")
			if err != nil {
				b.Fatal(err)
			}
			// The memory figures are taken over at least 512 runs (the extra
			// ones untimed), so a short b.N does not read the Runner's own
			// fixed state — its ledger, the registry's first buckets — as a
			// run's.
			runs := max(b.N, 512)
			rn := runner.New(runner.Config{MaxConcurrent: 1, Retain: runs + 1})
			defer rn.Close()
			serve := func() {
				nest, err := lang.Parse(string(src))
				if err != nil {
					b.Fatal(err)
				}
				prog, err := repro.Compile(nest)
				if err != nil {
					b.Fatal(err)
				}
				r, err := rn.Submit(runner.Submission{Program: prog, Options: repro.Options{Procs: 4}})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			serve()
			before := settled()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			b.StopTimer()
			for i := b.N; i < runs; i++ {
				serve()
			}
			if err := rn.Drain(context.Background()); err != nil {
				b.Fatal(err)
			}
			after := settled()
			retained := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(runs)
			b.ReportMetric(retained, "retained_B/run")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(runs), "alloc_B/run")
			if retained > 4096 {
				b.Fatalf("a terminal run retains %.0f B, over 4096: something still pins its machine", retained)
			}
		})
	}
}
