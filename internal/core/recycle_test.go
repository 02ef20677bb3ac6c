package core

import (
	"fmt"
	"testing"

	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// TestRecycleAcrossWorkers pins cross-worker ICB recycling on the virtual
// engine. A structural-doall fan-out is activated by the one processor
// that runs ENTER while the others complete the instances, so the blocks
// it reuses are ones other workers retired: they can only reach it
// through the run's depot. Every activation is a fresh block or a reuse,
// two runs agree on the split, the split is pinned, and the makespans
// are the ones every block fresh gave — a recycled block costs the same
// virtual time.
func TestRecycleAcrossWorkers(t *testing.T) {
	pl, err := NewPlan(compileOnly(t, workload.ManyInstances(8, 512, 4, 30)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p        int
		reuses   int64
		makespan machine.Time
	}{{2, 32, 114950}, {4, 49, 72300}, {8, 62, 59470}} {
		t.Run(fmt.Sprintf("P=%d", tc.p), func(t *testing.T) {
			run := func() *Report {
				rep, err := RunPlan(pl, Config{
					Engine: vmachine.New(vmachine.Config{P: tc.p, AccessCost: 10}),
					Scheme: lowsched.SS{},
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			a, b := run(), run()
			s := a.Stats
			t.Logf("%d instances: %d fresh blocks, %d reused", s.Instances, s.ICBAllocs, s.ICBReuses)
			if s.ICBAllocs+s.ICBReuses != s.Instances {
				t.Errorf("%d allocs + %d reuses, want %d instances", s.ICBAllocs, s.ICBReuses, s.Instances)
			}
			if s.ICBReuses != tc.reuses {
				t.Errorf("%d of %d instances reused a block, want %d", s.ICBReuses, s.Instances, tc.reuses)
			}
			if b.Stats.ICBAllocs != s.ICBAllocs || b.Stats.ICBReuses != s.ICBReuses {
				t.Errorf("runs disagree: %d/%d then %d/%d allocs/reuses",
					s.ICBAllocs, s.ICBReuses, b.Stats.ICBAllocs, b.Stats.ICBReuses)
			}
			if a.Makespan != tc.makespan || b.Makespan != tc.makespan {
				t.Errorf("makespans %d, %d; want %d", a.Makespan, b.Makespan, tc.makespan)
			}
		})
	}
}

// TestDepotHandsOverInBatches pins the depot's own contract, which the
// reuse counts above cannot see: with one activator, every block the
// depot holds is taken sooner or later, whatever a take moves. A worker
// hands over B blocks once its list passes 2·B; a take moves B blocks,
// or the whole stock when less is left, a single block included; and
// the count a take leaves behind is the stock's.
func TestDepotHandsOverInBatches(t *testing.T) {
	ex := &executor{}
	retirer, taker := &worker{ex: ex}, &worker{ex: ex}
	for range 3*recycleBatch + 1 {
		retirer.retire(pool.NewICB(0, 1, nil))
	}
	if got := ex.depot.retired.Len(); got != 2*recycleBatch || retirer.free.Len() != recycleBatch+1 {
		t.Fatalf("after %d retires: depot %d, retirer %d; want %d, %d",
			3*recycleBatch+1, got, retirer.free.Len(), 2*recycleBatch, recycleBatch+1)
	}
	if taker.recycled() == nil {
		t.Fatal("a stocked depot served nothing")
	}
	if taker.free.Len() != recycleBatch-1 || ex.depot.n.Load() != recycleBatch {
		t.Errorf("after one take: taker holds %d, depot counts %d; want %d, %d",
			taker.free.Len(), ex.depot.n.Load(), recycleBatch-1, recycleBatch)
	}

	lone := &executor{}
	blk := pool.NewICB(0, 1, nil)
	lone.depot.retired.Push(blk)
	lone.depot.n.Store(1)
	if got := (&worker{ex: lone}).recycled(); got != blk {
		t.Errorf("a one-block depot served %v, want its block", got)
	}
}
