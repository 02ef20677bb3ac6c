package pool

import (
	"runtime"
	"testing"
	"unsafe"
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
