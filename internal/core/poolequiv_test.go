package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// iterSetTracer records the multiset of executed iterations, keyed by
// (loop, ivec, j).
type iterSetTracer struct {
	mu    sync.Mutex
	iters map[string]int64
}

func newIterSetTracer() *iterSetTracer { return &iterSetTracer{iters: map[string]int64{}} }

// Record implements trace.Sink.
func (r *iterSetTracer) Record(e trace.Event) {
	if e.Kind != trace.EvIterEnd {
		return
	}
	r.mu.Lock()
	r.iters[fmt.Sprintf("%d%v#%d", e.Loop, e.IVec, e.A)]++
	r.mu.Unlock()
}

// TestPropertyPoolEquivalence is the task-pool ablation's correctness
// side: for random nests, the per-loop, single-list and distributed
// pools must execute exactly the same multiset of (loop, ivec, j)
// iterations — each exactly once — on both engines. Pool organization
// may change order and placement, never the work.
func TestPropertyPoolEquivalence(t *testing.T) {
	pools := []PoolKind{PoolPerLoop, PoolSingleList, PoolDistributed}
	engines := []struct {
		name string
		mk   func() machine.Engine
	}{
		{"virtual", func() machine.Engine { return vmachine.New(vmachine.Config{P: 4, AccessCost: 5}) }},
		{"real", func() machine.Engine { return machine.NewReal(machine.RealConfig{P: 4}) }},
	}
	schemes := []lowsched.Scheme{lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{}}
	n := int64(40)
	if testing.Short() {
		n = 8
	}
	for seed := int64(500); seed < 500+n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			nest := workload.Random(seed, workload.DefaultRandConfig())
			prog, ref := compileStd(t, nest)
			scheme := schemes[seed%int64(len(schemes))]
			for _, eng := range engines {
				var base map[string]int64
				var basePool PoolKind
				for _, pk := range pools {
					tr := newIterSetTracer()
					rep, err := Run(prog, Config{Engine: eng.mk(), Scheme: scheme, Pool: pk, Sink: tr})
					if err != nil {
						t.Fatalf("%s/%s: %v", eng.name, pk, err)
					}
					if rep.Stats.Iterations != ref.Iterations {
						t.Fatalf("%s/%s: %d iterations, reference executed %d",
							eng.name, pk, rep.Stats.Iterations, ref.Iterations)
					}
					for k, n := range tr.iters {
						if n != 1 {
							t.Fatalf("%s/%s: iteration %s executed %d times", eng.name, pk, k, n)
						}
					}
					if base == nil {
						base, basePool = tr.iters, pk
						continue
					}
					if len(tr.iters) != len(base) {
						t.Fatalf("%s: %s executed %d distinct iterations, %s executed %d",
							eng.name, pk, len(tr.iters), basePool, len(base))
					}
					for k := range tr.iters {
						if _, ok := base[k]; !ok {
							t.Fatalf("%s: iteration %s executed by %s but not by %s",
								eng.name, k, pk, basePool)
						}
					}
				}
			}
		})
	}
}
