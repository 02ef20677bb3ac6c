package trace_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/loopir"
	"repro/internal/trace"
)

// ev is a scheduling event of processor proc on loop 1.
func ev(at int64, k trace.Kind, proc int32, a, b int64) trace.Event {
	return trace.Event{At: at, Kind: k, Proc: proc, Loop: 1, A: a, B: b}
}

func TestTailMergesAndOrders(t *testing.T) {
	r := trace.NewRing(2, 8)
	// Interleave events across processors with colliding times.
	r.Record(ev(10, trace.EvActivated, 0, 5, 0))
	r.Record(ev(10, trace.EvClaim, 1, 1, 2))
	r.Record(ev(20, trace.EvClaim, 0, 3, 3))
	r.Record(ev(15, trace.EvChunk, 1, 2, 5))

	got := r.Tail(0)
	if len(got) != 4 {
		t.Fatalf("Tail(0) returned %d events, want 4", len(got))
	}
	// Global order: (At, Proc, Seq).
	want := []struct {
		at   int64
		proc int32
		kind trace.Kind
	}{
		{10, 0, trace.EvActivated}, {10, 1, trace.EvClaim}, {15, 1, trace.EvChunk}, {20, 0, trace.EvClaim},
	}
	for i, w := range want {
		e := got[i]
		if e.At != w.at || e.Proc != w.proc || e.Kind != w.kind {
			t.Errorf("event %d = %+v, want at=%d proc=%d kind=%s", i, e, w.at, w.proc, w.kind)
		}
	}

	if last := r.Tail(2); len(last) != 2 || last[0].At != 15 || last[1].At != 20 {
		t.Errorf("Tail(2) = %+v, want the 2 newest events", last)
	}
}

func TestRingWrapAroundKeepsNewest(t *testing.T) {
	r := trace.NewRing(1, 4)
	for i := int64(1); i <= 10; i++ {
		r.Record(ev(i, trace.EvClaim, 0, i, i))
	}
	got := r.Tail(0)
	if len(got) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(got))
	}
	for i, e := range got {
		if want := int64(7 + i); e.At != want {
			t.Errorf("event %d at t=%d, want t=%d (newest retained)", i, e.At, want)
		}
	}
	if n := r.Events(); n != 10 {
		t.Errorf("Events() = %d, want 10 (overwritten events still counted)", n)
	}
}

// TestRecordDoesNotAllocate pins the ring's allocation-free contract, an
// instance event with an index vector included: the ring keeps the first
// index, not the vector.
func TestRecordDoesNotAllocate(t *testing.T) {
	r := trace.NewRing(1, 16)
	e := trace.Event{At: 1, Kind: trace.EvActivated, Loop: 2, IVec: loopir.IVec{3, 4}, A: 4}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(e)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f objects per call, want 0", allocs)
	}
}

func TestConcurrentRecordAndTail(t *testing.T) {
	// One writer per ring, concurrent Tail readers: the watchdog path.
	// Run under -race in verify-gates.
	r := trace.NewRing(4, 32)
	var wg sync.WaitGroup
	for p := int32(0); p < 4; p++ {
		wg.Add(1)
		go func(p int32) {
			defer wg.Done()
			for i := int64(0); i < 500; i++ {
				r.Record(ev(i, trace.EvClaim, p, i, i+1))
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = r.Tail(16)
			_ = r.Dump(8)
		}
	}()
	wg.Wait()
	if n := r.Events(); n != 2000 {
		t.Fatalf("Events() = %d, want 2000", n)
	}
}

// TestDumpRendering pins the dump format, and that the ring keeps the
// scheduling kinds only: iteration events never reach a ring's tail, and
// an activated or completed record carries its instance's first
// enclosing index in B.
func TestDumpRendering(t *testing.T) {
	r := trace.NewRing(1, 16)
	outer := loopir.IVec{3, 1}
	r.Record(trace.Event{At: 5, Kind: trace.EvActivated, Loop: 2, IVec: outer, A: 10})
	r.Record(ev(7, trace.EvClaim, 0, 1, 4))
	r.Record(ev(8, trace.EvIterStart, 0, 1, 0))
	r.Record(ev(9, trace.EvIterEnd, 0, 1, 0))
	r.Record(ev(9, trace.EvChunk, 0, 1, 4))
	r.Record(ev(10, trace.EvPost, 0, 4, 10))
	r.Record(trace.Event{At: 11, Kind: trace.EvCompleted, Loop: 2, IVec: outer, A: 10})
	r.Record(ev(11, trace.EvSwitch, 0, 0, 0))
	r.Record(ev(15, trace.EvBarrier, 0, 3, 0))

	d := r.Dump(16)
	for _, want := range []string{
		"flight recorder: 7 event(s) recorded, last 7:",
		"activated loop 2 bound 10 outer 3", "completed loop 2 bound 10 outer 3",
		"claim   loop 1 [1,4]", "chunk   loop 1 [1,4]", "post    loop 1 +4 icount 10",
		"switch", "barrier loop 1 bound 3",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
	if strings.Contains(d, "iter-") {
		t.Errorf("ring kept an iteration event:\n%s", d)
	}
	for _, e := range r.Tail(0) {
		if e.IVec != nil {
			t.Errorf("ring retained an index vector: %+v", e)
		}
	}
}

func TestKindString(t *testing.T) {
	if got := trace.EvClaim.String(); got != "claim" {
		t.Errorf("EvClaim.String() = %q", got)
	}
	if got := trace.Kind(99).String(); got != "Kind(99)" {
		t.Errorf("Kind(99).String() = %q", got)
	}
}

func TestNewClampsCapacity(t *testing.T) {
	r := trace.NewRing(2, 0)
	r.Record(ev(1, trace.EvActivated, 1, 1, 0))
	if got := r.Tail(0); len(got) != 1 {
		t.Fatalf("zero-capacity recorder retained %d events, want 1 (clamped)", len(got))
	}
}
