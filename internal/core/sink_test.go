package core

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/trace"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// fig1Run runs the paper's Fig. 1 program on two virtual processors with
// the given sink.
func fig1Run(t *testing.T, sink trace.Sink) *Report {
	t.Helper()
	prog, _ := compileStd(t, workload.Fig1(workload.DefaultFig1()))
	rep, err := Run(prog, Config{
		Engine: vmachine.New(vmachine.Config{P: 2, AccessCost: 10}),
		Scheme: lowsched.SS{}, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRingTailOrdersCompletionBeforeSuccessors: a processor's barrier and
// activation events belong to the EXIT/ENTER walk of the completion
// before them (or to processor 0's prologue), so on each processor they
// follow a completed event with no claim, chunk, post or switch between.
// A ring tail therefore never shows a successor activated before its
// predecessor completed.
func TestRingTailOrdersCompletionBeforeSuccessors(t *testing.T) {
	ring := trace.NewRing(2, 4096)
	fig1Run(t, ring)
	tail := ring.Tail(0)
	inWalk := map[int32]bool{0: true} // processor 0's prologue
	completions := 0
	for i, e := range tail {
		switch e.Kind {
		case trace.EvCompleted:
			inWalk[e.Proc] = true
			completions++
		case trace.EvActivated, trace.EvBarrier:
			if !inWalk[e.Proc] {
				t.Fatalf("event %d (%v) outside a completion's walk:\n%s", i, e, ring.Dump(0))
			}
		default:
			inWalk[e.Proc] = false
		}
	}
	if completions == 0 {
		t.Fatalf("ring recorded no completions:\n%s", ring.Dump(0))
	}
}

// TestSinksComposeWithoutInterference: with the Log and the Ring attached
// together, each records exactly what it records alone, and neither moves
// the virtual schedule.
func TestSinksComposeWithoutInterference(t *testing.T) {
	bare := fig1Run(t, nil)
	logOnly, ringOnly := trace.New(), trace.NewRing(2, 4096)
	fig1Run(t, logOnly)
	fig1Run(t, ringOnly)
	log, ring := trace.New(), trace.NewRing(2, 4096)
	both := fig1Run(t, trace.Attach(log, ring))

	if !reflect.DeepEqual(log.Events(), logOnly.Events()) {
		t.Error("the Log beside a Ring recorded other events than the Log alone")
	}
	if !reflect.DeepEqual(ring.Tail(0), ringOnly.Tail(0)) {
		t.Error("the Ring beside a Log recorded other events than the Ring alone")
	}
	if both.Makespan != bare.Makespan || !reflect.DeepEqual(both.Stats, bare.Stats) {
		t.Errorf("sinks moved the schedule: makespan %d, bare %d", both.Makespan, bare.Makespan)
	}
}

// kindCounter is a sink counting the events it receives, by kind.
type kindCounter [trace.EvBarrier + 1]atomic.Int64

func (c *kindCounter) Record(e trace.Event) { c[e.Kind].Add(1) }

// countingRing is a Ring that counts the calls it receives.
type countingRing struct {
	*trace.Ring
	calls kindCounter
}

func (c *countingRing) Record(e trace.Event) { c.calls.Record(e); c.Ring.Record(e) }

// TestRingCostsTheIterationPathNothing: with only the Ring attached the
// kernel makes no sink call per iteration, under either failure policy
// (execSpan and execIter); a sink that keeps iterations gets two per
// iteration.
func TestRingCostsTheIterationPathNothing(t *testing.T) {
	prog, _ := compileStd(t, workload.UniformDoall(64, 10))
	for _, fp := range []FailurePolicy{FailFast, Isolate} {
		ring := &countingRing{Ring: trace.NewRing(2, 16)}
		all := &kindCounter{}
		for _, sink := range []trace.Sink{ring, all} {
			if _, err := Run(prog, Config{Engine: vEngine(2), Failure: fp, Sink: sink}); err != nil {
				t.Fatal(err)
			}
		}
		if n := ring.calls[trace.EvIterStart].Load() + ring.calls[trace.EvIterEnd].Load(); n != 0 {
			t.Errorf("policy %v: the Ring received %d iteration call(s)", fp, n)
		}
		if ring.calls[trace.EvChunk].Load() == 0 {
			t.Errorf("policy %v: the Ring received no chunk events", fp)
		}
		if n := all[trace.EvIterStart].Load() + all[trace.EvIterEnd].Load(); n != 128 {
			t.Errorf("policy %v: an iteration sink received %d iteration call(s), want 128", fp, n)
		}
	}
}

// TestRingCarriesOuterIndex: on a two-level nest, every activated and
// completed record of the inner loop carries its instance's outer index
// in B, and the Diagnose dump shows it.
func TestRingCarriesOuterIndex(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(3), func(b *loopir.B) {
			b.DoallLeaf("L", loopir.Const(4), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(5) })
		})
	})
	prog, _ := compileStd(t, nest)
	ring := trace.NewRing(2, 256)
	var probe Probe
	if _, err := Run(prog, Config{
		Engine: vEngine(2), Sink: ring, OnStart: func(p Probe) { probe = p },
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[trace.Kind]map[int64]bool{trace.EvActivated: {}, trace.EvCompleted: {}}
	for _, e := range ring.Tail(0) {
		if m := seen[e.Kind]; m != nil {
			m[e.B] = true
		}
	}
	for k, m := range seen {
		if !reflect.DeepEqual(m, map[int64]bool{1: true, 2: true, 3: true}) {
			t.Errorf("%v records carry outer indexes %v, want 1, 2 and 3:\n%s", k, m, ring.Dump(0))
		}
	}
	if d := probe.(Diagnoser).Diagnose(); !strings.Contains(d, "outer 3") {
		t.Errorf("Diagnose does not show the outer index:\n%s", d)
	}
}
