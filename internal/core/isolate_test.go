package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/vmachine"
)

func isolateEngines() map[string]func() machine.Engine {
	return map[string]func() machine.Engine{
		"virtual": func() machine.Engine { return vmachine.New(vmachine.Config{P: 4, AccessCost: 3}) },
		"real":    func() machine.Engine { return machine.NewReal(machine.RealConfig{P: 4}) },
	}
}

// expandFailures flattens a report into a (loop|ivec|iter) set.
func expandFailures(t *testing.T, fr *FailureReport) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	if fr == nil {
		return out
	}
	var n int64
	for _, r := range fr.Ranges {
		for j := r.Lo; j <= r.Hi; j++ {
			out[fmt.Sprintf("%d|%v|%d", r.Loop, r.IVec, j)] = true
			n++
		}
	}
	if n != fr.Iterations {
		t.Fatalf("report counts %d iterations but ranges cover %d", fr.Iterations, n)
	}
	return out
}

// TestIsolateQuarantinesPanics: under Isolate a panicking iteration is
// contained, the run completes, and the report names exactly the failed
// iterations — on both engines.
func TestIsolateQuarantinesPanics(t *testing.T) {
	for name, mk := range isolateEngines() {
		t.Run(name, func(t *testing.T) {
			nest := loopir.MustBuild(func(b *loopir.B) {
				b.DoallLeaf("A", loopir.Const(100), func(e loopir.Env, iv loopir.IVec, j int64) {
					if j == 17 || j == 18 || j == 60 {
						panic("bad iteration")
					}
					e.Work(5)
				})
			})
			prog := compileOnly(t, nest)
			rep, err := Run(prog, Config{Engine: mk(), Scheme: lowsched.CSS{K: 8}, Failure: Isolate})
			if err != nil {
				t.Fatalf("Isolate run failed: %v", err)
			}
			if rep.Stats.Iterations != 97 {
				t.Errorf("iterations = %d, want 97", rep.Stats.Iterations)
			}
			if rep.Stats.FailedIterations != 3 {
				t.Errorf("failed iterations = %d, want 3", rep.Stats.FailedIterations)
			}
			got := expandFailures(t, rep.Stats.Failures)
			for _, j := range []int64{17, 18, 60} {
				if !got[fmt.Sprintf("1|()|%d", j)] {
					t.Errorf("iteration %d missing from report %v", j, rep.Stats.Failures)
				}
			}
			if len(got) != 3 {
				t.Errorf("report covers %d iterations, want 3: %v", len(got), rep.Stats.Failures)
			}
			for _, r := range rep.Stats.Failures.Ranges {
				if !strings.Contains(r.Err, "panicked") || !strings.Contains(r.Err, "bad iteration") {
					t.Errorf("range error %q lacks panic context", r.Err)
				}
			}
			// 17 and 18 are adjacent with identical messages: the report
			// must coalesce them.
			if len(rep.Stats.Failures.Ranges) != 2 {
				t.Errorf("ranges = %v, want coalesced [17..18] and [60..60]", rep.Stats.Failures.Ranges)
			}
		})
	}
}

// TestIsolateInjectedErrors drives the error-kind injection path (no
// panic involved) and checks report/stat agreement with Peek.
func TestIsolateInjectedErrors(t *testing.T) {
	inj := fault.New(0).
		At(1, nil, 3, fault.Fault{Kind: fault.Error}, fault.Forever).
		At(1, nil, 9, fault.Fault{Kind: fault.Error}, fault.Forever)
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(20), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(2) })
	})
	prog := compileOnly(t, nest)
	rep, err := Run(prog, Config{
		Engine:  vmachine.New(vmachine.Config{P: 2, AccessCost: 3}),
		Failure: Isolate,
		Inject:  inj,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := expandFailures(t, rep.Stats.Failures)
	if len(got) != 2 || !got["1|()|3"] || !got["1|()|9"] {
		t.Fatalf("failures = %v, want iterations 3 and 9", rep.Stats.Failures)
	}
	for _, r := range rep.Stats.Failures.Ranges {
		if !strings.Contains(r.Err, "injected error") {
			t.Errorf("range error %q lacks injection context", r.Err)
		}
	}
	if rep.Stats.Iterations != 18 {
		t.Errorf("iterations = %d, want 18", rep.Stats.Iterations)
	}
}

// TestIsolateRetryRecoversTransientFault: a fault that fires twice and
// then clears must be absorbed by a 3-attempt retry budget — the run
// completes with zero quarantined iterations and the retries counted.
func TestIsolateRetryRecoversTransientFault(t *testing.T) {
	for name, mk := range isolateEngines() {
		t.Run(name, func(t *testing.T) {
			inj := fault.New(0).At(1, nil, 7, fault.Fault{Kind: fault.Panic}, 2)
			nest := loopir.MustBuild(func(b *loopir.B) {
				b.DoallLeaf("A", loopir.Const(30), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(2) })
			})
			prog := compileOnly(t, nest)
			rep, err := Run(prog, Config{
				Engine:  mk(),
				Failure: Isolate,
				Retry:   Retry{Attempts: 3, Backoff: 5},
				Inject:  inj,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep.Stats.Failures != nil {
				t.Fatalf("transient fault quarantined despite retry budget: %v", rep.Stats.Failures)
			}
			if rep.Stats.Iterations != 30 {
				t.Errorf("iterations = %d, want 30", rep.Stats.Iterations)
			}
			if rep.Stats.Retries != 2 {
				t.Errorf("retries = %d, want 2", rep.Stats.Retries)
			}
		})
	}
}

// TestIsolateRetryExhaustionQuarantines: a permanent fault burns the
// whole retry budget and is then quarantined with the attempt count.
func TestIsolateRetryExhaustionQuarantines(t *testing.T) {
	inj := fault.New(0).At(1, nil, 4, fault.Fault{Kind: fault.Panic}, fault.Forever)
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(10), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(2) })
	})
	prog := compileOnly(t, nest)
	rep, err := Run(prog, Config{
		Engine:  vmachine.New(vmachine.Config{P: 2, AccessCost: 3}),
		Failure: Isolate,
		Retry:   Retry{Attempts: 2, Backoff: 1},
		Inject:  inj,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fr := rep.Stats.Failures
	if fr == nil || fr.Iterations != 1 {
		t.Fatalf("failures = %v, want exactly iteration 4", fr)
	}
	if got := fr.Ranges[0].Attempts; got != 3 {
		t.Errorf("attempts = %d, want 3 (1 initial + 2 retries)", got)
	}
	if rep.Stats.Retries != 2 {
		t.Errorf("retries = %d, want 2", rep.Stats.Retries)
	}
}

// TestIsolateDoacrossPostsQuarantinedDeps: the quarantined iteration's
// dependence flag must still be posted, or every successor would spin
// forever on work nobody will redo.
func TestIsolateDoacrossPostsQuarantinedDeps(t *testing.T) {
	for name, mk := range isolateEngines() {
		t.Run(name, func(t *testing.T) {
			nest := loopir.MustBuild(func(b *loopir.B) {
				b.DoacrossLeaf("W", loopir.Const(40), 1, func(e loopir.Env, iv loopir.IVec, j int64) {
					if j == 5 {
						panic("boom in the dependence chain")
					}
					e.Work(5)
				})
			})
			prog := compileOnly(t, nest)
			rep, err := Run(prog, Config{Engine: mk(), Failure: Isolate})
			if err != nil {
				t.Fatalf("Isolate doacross run failed: %v", err)
			}
			got := expandFailures(t, rep.Stats.Failures)
			if len(got) != 1 || !got["1|()|5"] {
				t.Fatalf("failures = %v, want exactly iteration 5", rep.Stats.Failures)
			}
			if rep.Stats.Iterations != 39 {
				t.Errorf("iterations = %d, want 39 (successors of the failure must run)", rep.Stats.Iterations)
			}
		})
	}
}

// TestIsolateNestedInstancesDrainBarriers: failures inside some
// instances of a nested parallel loop must not wedge the enclosing
// BAR_COUNT — the run completes and quiescence (pool empty, bars empty)
// is checked by Run itself.
func TestIsolateNestedInstancesDrainBarriers(t *testing.T) {
	for name, mk := range isolateEngines() {
		t.Run(name, func(t *testing.T) {
			nest := loopir.MustBuild(func(b *loopir.B) {
				b.Doall("O", loopir.Const(6), func(b *loopir.B) {
					b.DoallLeaf("I", loopir.Const(10), func(e loopir.Env, iv loopir.IVec, j int64) {
						if iv[0]%2 == 0 && j == 3 {
							panic("instance-local failure")
						}
						e.Work(4)
					})
				})
			})
			prog := compileOnly(t, nest)
			rep, err := Run(prog, Config{Engine: mk(), Scheme: lowsched.CSS{K: 3}, Failure: Isolate})
			if err != nil {
				t.Fatalf("nested Isolate run failed: %v", err)
			}
			if rep.Stats.FailedIterations != 3 {
				t.Errorf("failed iterations = %d, want 3 (ivec 2,4,6)", rep.Stats.FailedIterations)
			}
			if rep.Stats.Iterations != 57 {
				t.Errorf("iterations = %d, want 57", rep.Stats.Iterations)
			}
		})
	}
}

// TestIsolatePerturbationsAreHarmless: delay and contention-spike
// faults disturb timing, not correctness — every iteration completes
// and nothing is quarantined, while the virtual clock shows the cost.
func TestIsolatePerturbationsAreHarmless(t *testing.T) {
	mk := func(inj *fault.Injector) (*Report, error) {
		nest := loopir.MustBuild(func(b *loopir.B) {
			b.DoallLeaf("A", loopir.Const(50), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(3) })
		})
		prog := compileOnly(t, nest)
		return Run(prog, Config{
			Engine:  vmachine.New(vmachine.Config{P: 4, AccessCost: 3}),
			Failure: Isolate,
			Inject:  inj,
		})
	}
	base, err := mk(nil)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := mk(fault.New(3).
		WithRate(fault.Delay, 0.3, 40).
		WithRate(fault.Spike, 0.3, 6))
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.Stats.Failures != nil {
		t.Fatalf("perturbations quarantined iterations: %v", perturbed.Stats.Failures)
	}
	if perturbed.Stats.Iterations != 50 {
		t.Errorf("iterations = %d, want 50", perturbed.Stats.Iterations)
	}
	if perturbed.Makespan <= base.Makespan {
		t.Errorf("perturbed makespan %d not above baseline %d", perturbed.Makespan, base.Makespan)
	}
}

// TestIsolateDeterministicOnVirtualEngine: with a seeded injector the
// whole faulted execution — timing included — replays bit-identically
// on the simulator.
func TestIsolateDeterministicOnVirtualEngine(t *testing.T) {
	run := func() *Report {
		inj := fault.New(11).
			WithRate(fault.Panic, 0.05, 0).
			WithRate(fault.Delay, 0.10, 25)
		nest := loopir.MustBuild(func(b *loopir.B) {
			b.DoallLeaf("A", loopir.Const(200), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(7) })
		})
		prog := compileOnly(t, nest)
		rep, err := Run(prog, Config{
			Engine:  vmachine.New(vmachine.Config{P: 4, AccessCost: 3}),
			Scheme:  lowsched.GSS{},
			Failure: Isolate,
			Retry:   Retry{Attempts: 1, Backoff: 10},
			Inject:  inj,
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Errorf("makespan diverged: %d vs %d", a.Makespan, b.Makespan)
	}
	if a.Stats.Iterations != b.Stats.Iterations || a.Stats.FailedIterations != b.Stats.FailedIterations {
		t.Errorf("counts diverged: %d/%d vs %d/%d",
			a.Stats.Iterations, a.Stats.FailedIterations, b.Stats.Iterations, b.Stats.FailedIterations)
	}
	if a.Stats.FailedIterations == 0 {
		t.Error("seed 11 injected no panics; pick a livelier seed")
	}
	fa, fb := fmt.Sprint(a.Stats.Failures), fmt.Sprint(b.Stats.Failures)
	if fa != fb {
		t.Errorf("failure reports diverged:\n%s\nvs\n%s", fa, fb)
	}
}

// TestFailFastTripDrainsSiblingBarriers is the regression test for the
// panic-safe claim/complete path: a FailFast trip in one instance of a
// nested parallel loop must drain every sibling — including processors
// parked on incomplete BAR_COUNT bookkeeping — rather than deadlock.
func TestFailFastTripDrainsSiblingBarriers(t *testing.T) {
	for name, mk := range isolateEngines() {
		t.Run(name, func(t *testing.T) {
			nest := loopir.MustBuild(func(b *loopir.B) {
				b.Doall("O", loopir.Const(8), func(b *loopir.B) {
					b.DoallLeaf("I", loopir.Const(12), func(e loopir.Env, iv loopir.IVec, j int64) {
						if iv[0] == 3 && j == 2 {
							panic("one instance dies")
						}
						e.Work(10)
					})
				})
			})
			prog := compileOnly(t, nest)
			errc := make(chan error, 1)
			go func() {
				_, err := Run(prog, Config{Engine: mk(), Scheme: lowsched.CSS{K: 4}})
				errc <- err
			}()
			select {
			case err := <-errc:
				if err == nil || !strings.Contains(err.Error(), "panicked") {
					t.Fatalf("err = %v, want body panic", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("FailFast trip deadlocked the run (BAR_COUNT siblings never drained)")
			}
		})
	}
}

// TestFailFastInjectedErrorTrips: injected Error faults follow the
// FailFast path too (not only panics).
func TestFailFastInjectedErrorTrips(t *testing.T) {
	inj := fault.New(0).At(1, nil, 6, fault.Fault{Kind: fault.Error}, fault.Forever)
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(10), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
	})
	prog := compileOnly(t, nest)
	_, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 2, AccessCost: 3}),
		Inject: inj,
	})
	if err == nil || !strings.Contains(err.Error(), "injected error") {
		t.Fatalf("err = %v, want injected error", err)
	}
}

// TestDiagnoseRendersSchedulingState: the Diagnoser probe must render
// pool, instance and per-processor figures without racing the run.
func TestDiagnoseRendersSchedulingState(t *testing.T) {
	var probe Probe
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("O", loopir.Const(4), func(b *loopir.B) {
			b.DoallLeaf("I", loopir.Const(25), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(3) })
		})
	})
	prog := compileOnly(t, nest)
	stop := make(chan struct{})
	sampled := make(chan string, 1)
	_, err := Run(prog, Config{
		Engine:      machine.NewReal(machine.RealConfig{P: 4}),
		Diagnostics: true,
		OnStart: func(p Probe) {
			probe = p
			// Hammer Diagnose concurrently with the run (race check).
			go func() {
				d, _ := p.(Diagnoser)
				var last string
				for {
					select {
					case <-stop:
						sampled <- last
						return
					default:
						last = d.Diagnose()
					}
				}
			}()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-sampled
	d, ok := probe.(Diagnoser)
	if !ok {
		t.Fatal("executor probe does not implement Diagnoser")
	}
	dump := d.Diagnose()
	for _, want := range []string{"core: done=true", "pool:", "proc 0:", "unposted=0", "last-claim="} {
		if !strings.Contains(dump, want) {
			t.Errorf("diagnostic dump missing %q:\n%s", want, dump)
		}
	}
	if strings.Contains(dump, "tracking off") {
		t.Errorf("Diagnostics was enabled but dump reports tracking off:\n%s", dump)
	}
}

// TestParseFailurePolicy pins the accepted spellings.
func TestParseFailurePolicy(t *testing.T) {
	for name, want := range map[string]FailurePolicy{
		"": FailFast, "failfast": FailFast, "fail-fast": FailFast, "isolate": Isolate,
	} {
		got, err := ParseFailurePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParseFailurePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseFailurePolicy("retry-forever"); err == nil {
		t.Error("unknown policy accepted")
	}
	names := FailurePolicyNames()
	if len(names) < 3 {
		t.Errorf("FailurePolicyNames() = %v, too few spellings", names)
	}
}

// TestNegativeRetryRejected pins config validation.
func TestNegativeRetryRejected(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(2), func(e loopir.Env, iv loopir.IVec, j int64) {})
	})
	prog := compileOnly(t, nest)
	_, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 1, AccessCost: 1}),
		Retry:  Retry{Attempts: -1},
	})
	if err == nil || !strings.Contains(err.Error(), "retry") {
		t.Fatalf("err = %v, want retry validation error", err)
	}
}
