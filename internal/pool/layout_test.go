package pool

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/loopir"
)

// TestICBLayout pins the cache-line layout the claim path relies on: the
// block is exactly three 64-byte lines, Index and ICount (whose value
// word leads the SyncVar) share line 0, nothing a searcher or a holder
// touches (PCount, the links, Bound) is on it, and the allocator hands
// out blocks on a line boundary — 192 is a size class whose spans start
// page-aligned, where the 224 bytes of the old layout were 32-aligned
// and co-location was a per-allocation lottery.
func TestICBLayout(t *testing.T) {
	const line = 64
	var b ICB
	if sz := unsafe.Sizeof(b); sz != 3*line {
		t.Fatalf("ICB is %d bytes, want %d", sz, 3*line)
	}
	lineOf := func(off uintptr) uintptr { return off / line }
	// The value word is the SyncVar's first field, so a variable's offset
	// is its value's offset.
	if unsafe.Offsetof(b.Index) != 0 {
		t.Errorf("Index at offset %d, want 0", unsafe.Offsetof(b.Index))
	}
	if end := unsafe.Offsetof(b.ICount) + unsafe.Sizeof(b.ICount); lineOf(end-1) != 0 {
		t.Errorf("ICount ends at offset %d, outside line 0", end)
	}
	for name, off := range map[string]uintptr{
		"PCount": unsafe.Offsetof(b.PCount),
		"right":  unsafe.Offsetof(b.right),
		"left":   unsafe.Offsetof(b.left),
		"Sync":   unsafe.Offsetof(b.Sync),
	} {
		if lineOf(off) != 1 {
			t.Errorf("%s at offset %d, want line 1", name, off)
		}
	}
	for name, off := range map[string]uintptr{
		"Loop":  unsafe.Offsetof(b.Loop),
		"Bound": unsafe.Offsetof(b.Bound),
		"IVec":  unsafe.Offsetof(b.IVec),
		"Sched": unsafe.Offsetof(b.Sched),
	} {
		if lineOf(off) != 2 {
			t.Errorf("%s at offset %d, want line 2", name, off)
		}
	}
	keep := make([]*ICB, 0, 256)
	for i := 0; i < cap(keep); i++ {
		icb := NewICB(1, 4, nil)
		if a := uintptr(unsafe.Pointer(icb)); a%line != 0 {
			t.Fatalf("fresh ICB %d at %#x is not %d-byte aligned", i, a, line)
		}
		keep = append(keep, icb)
	}
	runtime.KeepAlive(keep)
}

// TestListLayout pins the list headers' lines: a header is one 64-byte
// line, and in a fresh pool no line holds the words of two headers, so
// an Append on one list and a Delete or TryAdopt on its neighbour write
// different lines. The words are checked at their real addresses in
// pools of every size up to 64 lists: the slice's size class moves with
// the list count, and above 512 bytes the allocator puts an 8-byte
// header in front of an object with pointers, so the headers start 8
// bytes past a line boundary there — which the trailing pad absorbs.
func TestListLayout(t *testing.T) {
	const line = 64
	if sz := unsafe.Sizeof(plist{}); sz != line {
		t.Fatalf("plist is %d bytes, want %d", sz, line)
	}
	words := unsafe.Offsetof(plist{}.n) + unsafe.Sizeof(plist{}.n)
	keep := make([]*Pool, 0, 64)
	for m := 1; m <= cap(keep); m++ {
		p := New(m)
		prevLast := ^uintptr(0)
		for i := range p.lists {
			a := uintptr(unsafe.Pointer(&p.lists[i]))
			first, last := a/line, (a+words-1)/line
			if first == prevLast {
				t.Fatalf("%d-loop pool: the words of lists %d and %d share the line at %#x", m, i-1, i, first*line)
			}
			prevLast = last
		}
		keep = append(keep, p)
	}
	runtime.KeepAlive(keep)
}

// TestICBIVecAllocs pins the allocations of a block's index vector: a
// vector of depth 0 or 1 lives in the block itself, so NewICB allocates
// the block only, and a deeper vector adds one allocation; Reinit of a
// recycled block allocates nothing for depth 0 or 1, whatever depth the
// block served before.
func TestICBIVecAllocs(t *testing.T) {
	for _, tc := range []struct {
		ivec loopir.IVec
		want float64
	}{
		{nil, 1},
		{loopir.IVec{7}, 1},
		{loopir.IVec{7, 3}, 2},
	} {
		var b *ICB
		got := testing.AllocsPerRun(100, func() { b = NewICB(1, 4, tc.ivec) })
		if got != tc.want {
			t.Errorf("NewICB with a depth-%d vector: %v allocations, want %v", len(tc.ivec), got, tc.want)
		}
		if !slices.Equal(b.IVec, tc.ivec) {
			t.Errorf("NewICB with %v: IVec %v", tc.ivec, b.IVec)
		}
	}
	// Each measured Reinit gets a block that has not been reinitialized
	// yet (AllocsPerRun makes one warm-up call before the runs it counts).
	const runs = 100
	for _, prev := range []loopir.IVec{nil, {5}, {5, 6}} {
		for _, next := range []loopir.IVec{nil, {7}} {
			blocks := make([]*ICB, runs+1)
			for i := range blocks {
				blocks[i] = NewICB(1, 4, prev)
			}
			i := 0
			got := testing.AllocsPerRun(runs, func() {
				blocks[i].Reinit(2, 8, next)
				i++
			})
			if got != 0 {
				t.Errorf("Reinit from depth %d to depth %d: %v allocations, want 0", len(prev), len(next), got)
			}
			for _, b := range blocks {
				if !slices.Equal(b.IVec, next) || b.Loop != 2 || b.Bound != 8 {
					t.Fatalf("Reinit from %v to %v: %v", prev, next, b)
				}
			}
		}
	}
	// A caller's vector is copied, not aliased.
	iv := loopir.IVec{9}
	b := NewICB(1, 4, iv)
	iv[0] = 1
	if b.IVec[0] != 9 {
		t.Errorf("NewICB aliases its argument: IVec %v after the caller's store", b.IVec)
	}
}
