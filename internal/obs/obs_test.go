package obs

import (
	"strings"
	"sync"
	"testing"
)

const (
	cAlpha ID = iota
	cBeta
	numTest
)

var testDescs = []Desc{
	{Name: "alpha", Help: "first", Unit: "count"},
	{Name: "beta", Help: "second", Unit: "vtime"},
}

func TestSpineShardedMerge(t *testing.T) {
	s := NewSpine(4, testDescs)
	if s.NumShards() != 4 || s.NumCounters() != int(numTest) {
		t.Fatalf("shape: %d shards, %d counters", s.NumShards(), s.NumCounters())
	}
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
	if got := s.Total(cAlpha); got != 4000 {
		t.Errorf("alpha total = %d, want 4000", got)
	}
	tot := s.Totals()
	if tot[cAlpha] != 4000 || tot[cBeta] != 8000 {
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
	s := NewSpine(2, testDescs)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sh := s.Shard(1)
		for i := 0; i < 5000; i++ {
			sh.Inc(cAlpha)
		}
	}()
	for i := 0; i < 100; i++ {
		_ = s.Total(cAlpha)
		_ = s.Totals()
	}
	<-done
	if got := s.Total(cAlpha); got != 5000 {
		t.Errorf("alpha = %d, want 5000", got)
	}
}

func TestSpineClampsShards(t *testing.T) {
	if got := NewSpine(0, testDescs).NumShards(); got != 1 {
		t.Errorf("NumShards = %d, want 1", got)
	}
}

func TestSpineRejectsDuplicateNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate counter name")
		}
	}()
	NewSpine(1, []Desc{{Name: "x"}, {Name: "x"}})
}

func TestViewOffsets(t *testing.T) {
	s := NewSpine(1, testDescs)
	v := ViewAt(s.Shard(0), cBeta)
	v.Inc(0)
	v.Add(0, 9)
	if got := s.Total(cBeta); got != 10 {
		t.Errorf("beta = %d, want 10", got)
	}
	if got := s.Total(cAlpha); got != 0 {
		t.Errorf("alpha = %d, want 0", got)
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
