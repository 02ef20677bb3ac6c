package enginetest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/trace"
)

// BatchedClaims is the batched-claiming half of the conformance suite:
// with ClaimBatch set, one indivisible claim leases a run of successive
// chunks that the worker slices locally, and the engine must still
// deliver exactly-once execution — across cursor schemes, task pools
// and batch factors, including batch 1 (which must compile to the
// classic one-chunk claim protocol). Doacross is included deliberately:
// leases are contiguous ranges executed in increasing order, so
// cross-iteration dependences must keep resolving across lease
// boundaries.
func BatchedClaims(t *testing.T, name string, f Factory) {
	schemes := []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{},
		lowsched.FAC2{}, lowsched.TFSS{}, adapt.Auto{},
	}
	pools := []core.PoolKind{core.PoolPerLoop, core.PoolSingleList, core.PoolDistributed}
	batches := []int{1, 2, 8}
	for label, nest := range map[string]*loopir.Nest{
		"depth1": loopir.MustBuild(func(b *loopir.B) {
			b.DoallLeaf("A", loopir.Const(40), work(5))
		}),
		"nested": loopir.MustBuild(func(b *loopir.B) {
			b.Doall("I", loopir.Const(3), func(b *loopir.B) {
				b.DoallLeaf("B", loopir.Const(8), work(3))
			})
		}),
		"serial-chain": loopir.MustBuild(func(b *loopir.B) {
			b.Serial("K", loopir.Const(3), func(b *loopir.B) {
				b.DoallLeaf("E", loopir.Const(5), work(4))
				b.DoallLeaf("F", loopir.Const(5), work(4))
			})
		}),
		"doacross": loopir.MustBuild(func(b *loopir.B) {
			b.DoacrossLeaf("W", loopir.Const(12), 1, work(3))
		}),
	} {
		prog, pl, ref := compile(t, nest)
		for _, s := range schemes {
			for _, pk := range pools {
				for _, batch := range batches {
					t.Run(fmt.Sprintf("%s/%s/%s/b=%d", label, s.Name(), pk, batch), func(t *testing.T) {
						intr := machine.NewInterrupt()
						log := trace.New()
						rep, err := core.RunPlan(pl, core.Config{
							Engine:     f(4, intr),
							Scheme:     s,
							Pool:       pk,
							Sink:       log,
							Interrupt:  intr,
							ClaimBatch: batch,
						})
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						if rep.Stats.Iterations != ref.Iterations {
							t.Errorf("iterations = %d, want %d", rep.Stats.Iterations, ref.Iterations)
						}
						ctx := refexec.Context{
							Nest:   fmt.Sprintf("%s/b=%d", label, batch),
							Scheme: s.Name(), Pool: pk.String(), Engine: name,
						}
						if err := log.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
							t.Error(err)
						}
					})
				}
			}
		}
	}
}

// BatchedCheckpointResume extends the resume contract to non-trivial
// claim batches: a pause can now land mid-lease, with iterations leased
// by one indivisible claim but not yet executed. Those ranges travel in
// the snapshot's Pending lists, the restore prologue re-executes them,
// and the combined parts must still land on exactly the uninterrupted
// run's iteration multiset and totals — including the chunk count,
// because the lease chain walks the same deterministic cursor sequence.
// The suite also asserts that at least one captured snapshot actually
// carried pending ranges, so the leased-but-unexecuted path cannot
// silently stop being exercised.
func BatchedCheckpointResume(t *testing.T, name string, f Factory) {
	schemes := []lowsched.Scheme{lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{}}
	pools := []core.PoolKind{core.PoolPerLoop, core.PoolDistributed}
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(6), func(b *loopir.B) {
			b.DoallLeaf("B", loopir.Const(16), work(10))
		})
	})
	prog, pl, ref := compile(t, nest)
	const p = 4
	const batch = 8

	sawPending := false
	for _, s := range schemes {
		for _, pk := range pools {
			for _, k := range []int64{2, 5} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", s.Name(), pk, k), func(t *testing.T) {
					// Pause after k claimed chunks — with batch 8 the trigger
					// crosses inside a lease, leaving leased-but-unexecuted
					// iterations behind — and resume at the same batch factor.
					ctx := refexec.Context{Nest: "batched-resume", Scheme: s.Name(), Pool: pk.String(), Engine: name}
					r := resumeLegs(t, f, p, prog, pl, ref, ctx, core.Config{Scheme: s, Pool: pk, ClaimBatch: batch},
						func(cfg *core.Config) { cfg.Checkpoint = &core.CheckpointConfig{AfterChunks: k} })
					if !errors.Is(r.pause, core.ErrCheckpointed) {
						t.Fatalf("checkpoint run returned %v, want CheckpointedError", r.pause)
					}
					for _, icb := range r.snap.ICBs {
						if len(icb.Pending) > 0 {
							sawPending = true
						}
					}

					fs, gs := r.full.Stats, r.rest.Stats
					if gs.Iterations != fs.Iterations || gs.Instances != fs.Instances ||
						gs.Enters != fs.Enters || gs.Exits != fs.Exits || gs.ZeroTrips != fs.ZeroTrips {
						t.Errorf("resumed totals diverge:\nresumed       %+v\nuninterrupted %+v", gs, fs)
					}
					if gs.Chunks != fs.Chunks {
						t.Errorf("resumed chunk trajectory %d, uninterrupted %d", gs.Chunks, fs.Chunks)
					}
				})
			}
		}
	}
	if !sawPending {
		t.Errorf("no checkpoint in the matrix carried leased-but-unexecuted ranges; the Pending restore path went unexercised")
	}
}

// ExhaustedInstances is the failed-claim half of the suite. The
// fixed-stride claim is an unconditional fetch-and-add, so a processor
// that finds an instance exhausted still advances its cursor; with more
// processors than an instance has chunks, most claims of the run are
// such failures. Every iteration must still execute exactly once — with
// a chunk size that does not divide the bound, with leases that step
// past it, and with each instance's holders racing its final claim.
func ExhaustedInstances(t *testing.T, name string, f Factory) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(60), func(b *loopir.B) {
			b.DoallLeaf("B", loopir.Const(5), work(2))
		})
	})
	prog, pl, ref := compile(t, nest)
	for _, s := range []lowsched.Scheme{lowsched.SS{}, lowsched.CSS{K: 2}, lowsched.CSS{K: 64}} {
		for _, batch := range []int{1, 4} {
			for _, p := range []int{8, runtime.NumCPU()} {
				t.Run(fmt.Sprintf("%s/b=%d/P=%d", s.Name(), batch, p), func(t *testing.T) {
					intr := machine.NewInterrupt()
					log := trace.New()
					rep, err := core.RunPlan(pl, core.Config{
						Engine: f(p, intr), Scheme: s, Sink: log,
						Interrupt: intr, ClaimBatch: batch,
					})
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if rep.Stats.Iterations != ref.Iterations {
						t.Errorf("iterations = %d, want %d", rep.Stats.Iterations, ref.Iterations)
					}
					ctx := refexec.Context{
						Nest:   fmt.Sprintf("exhausted/b=%d/P=%d", batch, p),
						Scheme: s.Name(), Pool: core.PoolPerLoop.String(), Engine: name,
					}
					if err := log.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}
