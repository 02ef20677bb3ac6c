package core

import (
	"fmt"
	"testing"

	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// TestRecycleAcrossWorkers pins cross-worker ICB recycling on the virtual
// engine. A structural-doall fan-out is activated by the one processor
// that runs ENTER while the others complete the instances, so the blocks
// it reuses are ones other workers retired: they can only reach it
// through the run's depot. Every activation is a fresh block or a reuse,
// two runs agree on the split, and the makespans are the ones every
// block fresh gave — a recycled block costs the same virtual time.
func TestRecycleAcrossWorkers(t *testing.T) {
	pl, err := NewPlan(compileOnly(t, workload.ManyInstances(8, 512, 4, 30)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p        int
		makespan machine.Time
	}{{2, 114950}, {4, 72300}, {8, 59470}} {
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
			if s.ICBReuses == 0 {
				t.Errorf("no block changed hands: %d allocs, 0 reuses of %d instances", s.ICBAllocs, s.Instances)
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
