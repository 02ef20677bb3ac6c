package core

import (
	"fmt"
	"testing"

	"repro/internal/lowsched"
	"repro/internal/trace"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// liveCounter is a sink that counts live instances: activations minus
// completions, and the peak of that count over the run.
type liveCounter struct{ live, peak int64 }

func (c *liveCounter) Record(e trace.Event) {
	switch e.Kind {
	case trace.EvActivated:
		c.live++
		c.peak = max(c.peak, c.live)
	case trace.EvCompleted:
		c.live--
	}
}

func (*liveCounter) SchedulingOnly() {}

// TestPeakLiveInstances pins the space bound a fan-out block buys: a
// structural doall of N four-iteration instances is activated B at a time,
// by a processor that finds no live instance to adopt while fewer than
// P·B are live, so the peak is bounded in P and B however large N is —
// not N, as when one processor ran the whole fan-out before returning.
// Processors that pass the P·B test together each claim one more chunk,
// so the bound is 2·P·B.
func TestPeakLiveInstances(t *testing.T) {
	for _, n := range []int64{64, 4096} {
		pl, err := NewPlan(compileOnly(t, workload.ManyInstances(8, n, 4, 1)))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("N=%d/P=%d", n, p), func(t *testing.T) {
				var c liveCounter
				rep, err := RunPlan(pl, Config{
					Engine: vmachine.New(vmachine.Config{P: p, AccessCost: 10}),
					Scheme: lowsched.SS{}, Sink: &c,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Stats.Instances != n || c.live != 0 {
					t.Fatalf("%d instances activated, %d left live; want %d, 0", rep.Stats.Instances, c.live, n)
				}
				bound := 2 * int64(p) * fanChunk
				t.Logf("peak %d live instances of %d (bound %d)", c.peak, n, bound)
				if c.peak > bound {
					t.Errorf("peak %d live instances, want <= 2·P·B = %d", c.peak, bound)
				}
			})
		}
	}
}

// TestStaticSchemesClaimFanOuts runs the pre-assignment schemes over a
// fan-out above one claim's chunk. Their adoption filter reads a block's
// scheme state, which a fan-out block does not carry (or carries stale,
// from the instance it served before): the pool must never hand it one,
// or the fan-out is never claimed and the run hangs.
func TestStaticSchemesClaimFanOuts(t *testing.T) {
	prog, ref := compileStd(t, workload.ManyInstances(4, 200, 4, 5))
	for _, s := range []lowsched.Scheme{lowsched.StaticBlock{}, lowsched.StaticCyclic{}} {
		for _, p := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/P=%d", s.Name(), p), func(t *testing.T) {
				tr := newRecTracer()
				rep, err := Run(prog, Config{
					Engine: vmachine.New(vmachine.Config{P: p, AccessCost: 4}),
					Scheme: s, Sink: tr,
				})
				if err != nil {
					t.Fatal(err)
				}
				verifyAgainstRef(t, prog, ref, tr, rep)
			})
		}
	}
}
