package flight

import (
	"strings"
	"sync"
	"testing"
)

func TestTailMergesAndOrders(t *testing.T) {
	r := New(2, 8)
	// Interleave events across processors with colliding times.
	r.Ring(0).Record(10, Begin, 0, 1, 5, 0)
	r.Ring(1).Record(10, Claim, 1, 1, 1, 2)
	r.Ring(0).Record(20, Claim, 0, 1, 3, 3)
	r.Ring(1).Record(15, Chunk, 1, 1, 2, 5)

	got := r.Tail(0)
	if len(got) != 4 {
		t.Fatalf("Tail(0) returned %d events, want 4", len(got))
	}
	// Global order: (At, Proc, Seq).
	want := []struct {
		at   int64
		proc int32
		kind Kind
	}{
		{10, 0, Begin}, {10, 1, Claim}, {15, 1, Chunk}, {20, 0, Claim},
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
	r := New(1, 4)
	g := r.Ring(0)
	for i := int64(1); i <= 10; i++ {
		g.Record(i, Claim, 0, 1, i, i)
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

func TestRecordDoesNotAllocate(t *testing.T) {
	r := New(1, 16)
	g := r.Ring(0)
	allocs := testing.AllocsPerRun(1000, func() {
		g.Record(1, Chunk, 0, 2, 3, 4)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f objects per call, want 0", allocs)
	}
}

func TestConcurrentRecordAndTail(t *testing.T) {
	// One writer per ring, concurrent Tail readers: the watchdog path.
	// Run under -race in verify-gates.
	r := New(4, 32)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			g := r.Ring(p)
			for i := int64(0); i < 500; i++ {
				g.Record(i, Claim, int32(p), 1, i, i+1)
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

func TestDumpRendering(t *testing.T) {
	r := New(1, 8)
	g := r.Ring(0)
	g.Record(5, Begin, 0, 2, 10, 0)
	g.Record(7, Claim, 0, 2, 1, 4)
	g.Record(9, Chunk, 0, 2, 1, 4)
	g.Record(10, Post, 0, 2, 4, 10)
	g.Record(11, Switch, 0, 2, 0, 0)
	g.Record(13, Exit, 0, 2, 10, 0)
	g.Record(15, Barrier, 0, 1, 3, 0)

	d := r.Dump(16)
	for _, want := range []string{
		"flight recorder: 7 event(s) recorded, last 7:",
		"begin", "claim", "chunk   loop 2 [1,4]", "switch", "exit", "barrier",
		"claim   loop 2 [1,4]", "post    loop 2 +4 icount 10",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestKindString(t *testing.T) {
	if got := Claim.String(); got != "claim" {
		t.Errorf("Claim.String() = %q", got)
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("Kind(99).String() = %q", got)
	}
}

func TestNewClampsCapacity(t *testing.T) {
	r := New(2, 0)
	r.Ring(1).Record(1, Begin, 1, 1, 1, 0)
	if got := r.Tail(0); len(got) != 1 {
		t.Fatalf("zero-capacity recorder retained %d events, want 1 (clamped)", len(got))
	}
	if r.Procs() != 2 {
		t.Errorf("Procs() = %d, want 2", r.Procs())
	}
}
