package obs

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

const (
	cAlpha ID = iota
	cBeta
	numTest
)

func TestSpineShardedMerge(t *testing.T) {
	s := NewSpine(4, int(numTest))
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sh := s.Shard(p)
			for i := 0; i < 1000; i++ {
				sh.Inc(cAlpha)
				sh.Add(cBeta, 2)
			}
		}(p)
	}
	wg.Wait()
	tot := s.Totals()
	if len(tot) != int(numTest) || tot[cAlpha] != 4000 || tot[cBeta] != 8000 {
		t.Errorf("totals = %v, want [4000 8000]", tot)
	}
	if got := s.Shard(0).Get(cAlpha); got != 1000 {
		t.Errorf("shard 0 alpha = %d, want 1000", got)
	}
	// The subset read path agrees with Totals, including repeated IDs
	// and stale values in out.
	sum := []int64{-1, -1, -1}
	s.Sum([]ID{cBeta, cAlpha, cBeta}, sum)
	if sum[0] != 8000 || sum[1] != 4000 || sum[2] != 8000 {
		t.Errorf("Sum = %v, want [8000 4000 8000]", sum)
	}
}

func TestSpineConcurrentReadDuringWrite(t *testing.T) {
	// Merged reads must be race-safe against live writers (the probe /
	// live-stats use case).
	s := NewSpine(2, int(numTest))
	done := make(chan struct{})
	go func() {
		defer close(done)
		sh := s.Shard(1)
		for i := 0; i < 5000; i++ {
			sh.Inc(cAlpha)
		}
	}()
	sum := make([]int64, 1)
	for i := 0; i < 100; i++ {
		s.Sum([]ID{cAlpha}, sum)
		_ = s.Totals()
	}
	<-done
	if got := s.Totals()[cAlpha]; got != 5000 {
		t.Errorf("alpha = %d, want 5000", got)
	}
}

func TestSpineClampsShards(t *testing.T) {
	s := NewSpine(0, int(numTest))
	if got := len(s.shards); got != 1 {
		t.Fatalf("%d shards, want 1", got)
	}
	s.Shard(0).Add(cBeta, 3)
	if tot := s.Totals(); tot[cAlpha] != 0 || tot[cBeta] != 3 {
		t.Errorf("totals = %v, want [0 3]", tot)
	}
}

// TestSpineShardLayout pins the layout: one backing array, each shard
// starting on its own 64-byte cache line.
func TestSpineShardLayout(t *testing.T) {
	for _, n := range []int{1, 8, 9, 26} {
		s := NewSpine(3, n)
		stride := shardStride(n)
		if stride%8 != 0 || stride < n {
			t.Fatalf("%d counters: stride %d", n, stride)
		}
		base := &s.Shard(0).vals[0]
		for i := range s.shards {
			sh := s.Shard(i)
			if len(sh.vals) != n || cap(sh.vals) != stride {
				t.Errorf("%d counters, shard %d: len %d cap %d, want %d/%d", n, i, len(sh.vals), cap(sh.vals), n, stride)
			}
			if off := uintptr(unsafe.Pointer(&sh.vals[0])) - uintptr(unsafe.Pointer(base)); off != uintptr(i*stride*8) {
				t.Errorf("%d counters, shard %d at byte %d of the backing array, want %d", n, i, off, i*stride*8)
			}
		}
	}
}

func TestRegistryProm(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs_total", "total runs")
	c.Add(3)
	if again := r.Counter("runs_total", "total runs"); again != c {
		t.Error("Counter must return the existing counter for a repeated name")
	}
	r.Gauge("queue_depth", "queued runs", func() float64 { return 2 })
	r.Gauge("ratio", "", func() float64 { return 0.5 })
	r.GaugeVec("peer_state", "state by peer", "peer", func() map[string]float64 {
		return map[string]float64{"n3": 1, "n2": 0.5}
	})
	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP runs_total total runs\n# TYPE runs_total counter\nruns_total 3\n",
		"# TYPE queue_depth gauge\nqueue_depth 2\n",
		"# TYPE ratio gauge\nratio 0.5\n",
		"# HELP peer_state state by peer\n# TYPE peer_state gauge\npeer_state{peer=\"n2\"} 0.5\npeer_state{peer=\"n3\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q; got:\n%s", want, out)
		}
	}
	// Sorted by name: queue_depth < ratio < runs_total.
	if !(strings.Index(out, "queue_depth") < strings.Index(out, "ratio") &&
		strings.Index(out, "ratio") < strings.Index(out, "runs_total")) {
		t.Errorf("prom output not sorted:\n%s", out)
	}
}

func TestRegistryNameCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("x", "", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("want panic registering counter over gauge name")
		}
	}()
	r.Counter("x", "")
}
