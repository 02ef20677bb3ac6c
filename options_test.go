package repro

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"bad scheme", Options{Scheme: "zigzag"}, ErrBadScheme},
		{"bad scheme params", Options{Scheme: "css:0"}, ErrBadScheme},
		{"unknown engine", Options{Engine: "abacus"}, ErrUnknownEngine},
		{"unknown pool", Options{Pool: "heap"}, ErrUnknownPool},
		{"bad failure policy", Options{Failure: "best-effort"}, ErrBadFailure},
		{"negative retry attempts", Options{RetryAttempts: -1}, ErrBadRetry},
		{"negative retry backoff", Options{RetryBackoff: -5}, ErrBadRetry},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.opts.Validate(); !errors.Is(err, c.want) {
				t.Errorf("Validate() = %v, want %v", err, c.want)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	ok := []Options{
		{},
		{Scheme: "gss", Engine: EngineReal, Pool: "distributed"},
		{Scheme: "css:4", Engine: EngineRealSpin, Pool: "single"},
		{Pool: "single-list"},
		{Scheme: "tss:100:1", Pool: "per-loop"},
		{Scheme: "fac2"},
		{Scheme: "af:50", Pool: "distributed"},
		{Scheme: "tfss:12:2"},
		{Scheme: "auto"},
		{Failure: "failfast"},
		{Failure: "fail-fast"},
		{Failure: "isolate", RetryAttempts: 3, RetryBackoff: 50},
		{Diagnostics: true},
	}
	for _, o := range ok {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	for _, p := range KnownFailurePolicies() {
		if err := (Options{Failure: p}).Validate(); err != nil {
			t.Errorf("Validate(Failure=%q) = %v, want nil", p, err)
		}
	}
}

// TestResolvedPool: an unset pool is the engine's — the paper's per-loop
// lists on the virtual engine, the per-processor pool on the real ones —
// an explicit pool always wins, and a sharded SW word keeps the pool it
// belongs to.
func TestResolvedPool(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Options{}, "per-loop"},
		{Options{Engine: EngineVirtual}, "per-loop"},
		{Options{Engine: EngineReal}, "distributed"},
		{Options{Engine: EngineRealSpin}, "distributed"},
		{Options{Engine: EngineReal, Pool: "per-loop"}, "per-loop"},
		{Options{Engine: EngineRealSpin, Pool: "single"}, "single-list"},
		{Options{Engine: EngineVirtual, Pool: "distributed"}, "distributed"},
		{Options{Engine: EngineReal, SWShards: 4}, "per-loop"},
		{Options{Engine: EngineReal, SWShards: 1}, "distributed"},
		{Options{Engine: EngineReal, SWShards: 4, Pool: "distributed"}, "distributed"},
	}
	for _, c := range cases {
		got, err := c.opts.ResolvedPool()
		if err != nil || got != c.want {
			t.Errorf("%+v resolves to pool %q (%v), want %q", c.opts, got, err, c.want)
		}
	}
	if _, err := (Options{Engine: EngineReal, Pool: "heap"}).ResolvedPool(); !errors.Is(err, ErrUnknownPool) {
		t.Errorf("unknown pool: %v, want ErrUnknownPool", err)
	}
}

// TestIsolateThroughPublicAPI pins the end-to-end partial-failure
// surface: a panicking body under Failure="isolate" quarantines its
// iteration, the run completes, and the result names the failure.
func TestIsolateThroughPublicAPI(t *testing.T) {
	nest := MustBuild(func(b *B) {
		b.DoallLeaf("L", Const(80), func(e Env, iv IVec, j int64) {
			if j == 13 || j == 14 {
				panic("unlucky")
			}
			e.Work(10)
		})
	})
	res, err := Execute(nest, Options{Procs: 4, Failure: "isolate"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 78 || res.Stats.FailedIterations != 2 {
		t.Fatalf("iterations = %d failed = %d, want 78/2",
			res.Stats.Iterations, res.Stats.FailedIterations)
	}
	rep := res.Stats.Failures
	if rep == nil || len(rep.Ranges) != 1 || rep.Ranges[0].Lo != 13 || rep.Ranges[0].Hi != 14 {
		t.Fatalf("failure report = %v, want one range covering 13-14", rep)
	}
	// The same body under the default fail-fast policy aborts the run.
	if _, err := Execute(nest, Options{Procs: 4}); err == nil {
		t.Fatal("fail-fast run with a panicking body reported success")
	}
}

func TestSingleListPoolByName(t *testing.T) {
	nest := MustBuild(func(b *B) {
		b.DoallLeaf("L", Const(64), func(e Env, iv IVec, j int64) { e.Work(10) })
	})
	res, err := Execute(nest, Options{Procs: 4, Pool: "single-list"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 64 {
		t.Errorf("iterations = %d, want 64", res.Stats.Iterations)
	}
}

func TestPublicRunContextCancel(t *testing.T) {
	nest := MustBuild(func(b *B) {
		b.DoallLeaf("E", Const(1<<40), func(e Env, iv IVec, j int64) { e.Work(100) })
	})
	prog, err := Compile(nest)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res, err := prog.RunContext(ctx, Options{Procs: 4})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, %v; want nil, context.Canceled", res, err)
	}
	// The program stays runnable after a cancelled attempt.
	quick := MustBuild(func(b *B) {
		b.DoallLeaf("Q", Const(32), func(e Env, iv IVec, j int64) { e.Work(10) })
	})
	if _, err := ExecuteContext(context.Background(), quick, Options{Procs: 2}); err != nil {
		t.Fatalf("follow-up run: %v", err)
	}
}

func TestObserveProbe(t *testing.T) {
	nest := MustBuild(func(b *B) {
		b.DoallLeaf("L", Const(5000), func(e Env, iv IVec, j int64) { e.Work(20) })
	})
	var live Live
	res, err := Execute(nest, Options{Procs: 4, Observe: func(lv Live) { live = lv }})
	if err != nil {
		t.Fatal(err)
	}
	if live == nil {
		t.Fatal("Observe never called")
	}
	if !live.Completed() {
		t.Error("probe of a finished run reports not completed")
	}
	sn := live.LiveStats()
	if sn.Iterations != res.Stats.Iterations {
		t.Errorf("probe iterations = %d, result says %d", sn.Iterations, res.Stats.Iterations)
	}
	if eff := sn.Efficiency(); eff <= 0 || eff > 1 {
		t.Errorf("efficiency = %v, want in (0,1]", eff)
	}
}
