package core

import (
	"fmt"
	"testing"

	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// TestRecycleAcrossWorkers pins ICB recycling on the virtual engine. A
// structural-doall fan-out is claimed in chunks by every processor, and
// each one completes instances too, so the blocks a worker activates come
// from its own freelist: at P=2 all but one chunk's worth per worker are
// reused. Every activation is a fresh block or a reuse, two runs agree on
// the split, the split is pinned, and so are the makespans — a recycled
// block costs the same virtual time as a fresh one.
func TestRecycleAcrossWorkers(t *testing.T) {
	pl, err := NewPlan(compileOnly(t, workload.ManyInstances(8, 512, 4, 30)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p        int
		reuses   int64
		makespan machine.Time
	}{{2, 448, 118280}, {4, 314, 72340}, {8, 200, 70750}} {
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
