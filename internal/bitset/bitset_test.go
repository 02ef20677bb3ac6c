package bitset

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEmpty(t *testing.T) {
	s := New(10)
	if s.Any() {
		t.Error("new set reports Any() = true")
	}
	if got := s.FirstSet(); got != 0 {
		t.Errorf("FirstSet on empty set = %d, want 0", got)
	}
	if got := s.Count(); got != 0 {
		t.Errorf("Count on empty set = %d, want 0", got)
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d, want 10", s.Len())
	}
}

func TestZeroSize(t *testing.T) {
	s := New(0)
	if s.Any() || s.FirstSet() != 0 || s.Count() != 0 {
		t.Error("zero-size set should be permanently empty")
	}
}

func TestSetClearGet(t *testing.T) {
	s := New(130) // spans 3 words
	for _, i := range []int{1, 2, 63, 64, 65, 127, 128, 129, 130} {
		if s.Get(i) {
			t.Errorf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		s.Clear(i)
		if s.Get(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
}

func TestFirstSetOrder(t *testing.T) {
	s := New(200)
	s.Set(150)
	if got := s.FirstSet(); got != 150 {
		t.Errorf("FirstSet = %d, want 150", got)
	}
	s.Set(64)
	if got := s.FirstSet(); got != 64 {
		t.Errorf("FirstSet = %d, want 64", got)
	}
	s.Set(1)
	if got := s.FirstSet(); got != 1 {
		t.Errorf("FirstSet = %d, want 1", got)
	}
	s.Clear(1)
	s.Clear(64)
	if got := s.FirstSet(); got != 150 {
		t.Errorf("FirstSet after clears = %d, want 150", got)
	}
}

func TestNextSet(t *testing.T) {
	s := New(300)
	bitsSet := []int{3, 64, 65, 128, 192, 300}
	for _, b := range bitsSet {
		s.Set(b)
	}
	var got []int
	for b := s.NextSet(0); b != 0; b = s.NextSet(b) {
		got = append(got, b)
	}
	if len(got) != len(bitsSet) {
		t.Fatalf("NextSet walk = %v, want %v", got, bitsSet)
	}
	for i := range got {
		if got[i] != bitsSet[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, bitsSet)
		}
	}
	if s.NextSet(300) != 0 {
		t.Error("NextSet past final bit should be 0")
	}
	if s.NextSet(-5) != 3 {
		t.Error("NextSet with negative start should behave like FirstSet")
	}
}

func TestNextSetWordBoundary(t *testing.T) {
	s := New(130)
	s.Set(64)
	s.Set(65)
	if got := s.NextSet(64); got != 65 {
		t.Errorf("NextSet(64) = %d, want 65", got)
	}
	if got := s.NextSet(65); got != 0 {
		t.Errorf("NextSet(65) = %d, want 0", got)
	}
}

func TestTestAndSetClear(t *testing.T) {
	s := New(64)
	if s.TestAndSet(7) {
		t.Error("TestAndSet on clear bit returned true")
	}
	if !s.TestAndSet(7) {
		t.Error("TestAndSet on set bit returned false")
	}
	if !s.TestAndClear(7) {
		t.Error("TestAndClear on set bit returned false")
	}
	if s.TestAndClear(7) {
		t.Error("TestAndClear on clear bit returned true")
	}
}

func TestString(t *testing.T) {
	s := New(4)
	s.Set(1)
	s.Set(3)
	if got := s.String(); got != "1010" {
		t.Errorf("String = %q, want %q", got, "1010")
	}
}

func TestPanicsOnBadIndex(t *testing.T) {
	s := New(8)
	for _, i := range []int{0, -1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for index %d", i)
				}
			}()
			s.Set(i)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for negative size")
			}
		}()
		New(-1)
	}()
}

// TestConcurrentDistinctBits verifies that concurrent Set/Clear on distinct
// bits within the same word do not interfere (the reason SW updates must be
// atomic even though each list's bit is guarded by that list's lock).
func TestConcurrentDistinctBits(t *testing.T) {
	s := New(64)
	var wg sync.WaitGroup
	for b := 1; b <= 64; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				s.Set(b)
				if !s.Get(b) {
					t.Errorf("bit %d lost", b)
					return
				}
				s.Clear(b)
			}
			s.Set(b)
		}(b)
	}
	wg.Wait()
	if got := s.Count(); got != 64 {
		t.Errorf("Count = %d, want 64", got)
	}
}

// TestQuickAgainstMap property-tests the set against a reference map model.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const n = 197
		s := New(n)
		ref := map[int]bool{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			i := int(op)%n + 1
			switch rng.Intn(3) {
			case 0:
				s.Set(i)
				ref[i] = true
			case 1:
				s.Clear(i)
				delete(ref, i)
			case 2:
				if s.Get(i) != ref[i] {
					return false
				}
			}
		}
		// Compare full contents and first-set.
		want := 0
		for i := 1; i <= n; i++ {
			if s.Get(i) != ref[i] {
				return false
			}
			if ref[i] && want == 0 {
				want = i
			}
		}
		return s.FirstSet() == want && s.Count() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFirstSet(b *testing.B) {
	s := New(256)
	s.Set(200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.FirstSet() != 200 {
			b.Fatal("wrong bit")
		}
	}
}

func BenchmarkSetClear(b *testing.B) {
	s := New(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(100)
		s.Clear(100)
	}
}

// TestWordsOwnTheirLines pins the words' allocation: whole 64-byte lines,
// starting on a line boundary, so a set's words share no line with any
// other object — a one-word set included, which would otherwise be an
// 8-byte tiny allocation packed next to whatever came after it.
func TestWordsOwnTheirLines(t *testing.T) {
	const line = 64
	keep := make([]*Atomic, 0, 256)
	for _, n := range []int{0, 1, 63, 64, 100, 511, 512, 1000} {
		for i := 0; i < 32; i++ {
			s := New(n)
			if a := uintptr(unsafe.Pointer(&s.words[0])); a%line != 0 {
				t.Fatalf("New(%d) #%d: words at %#x are not %d-byte aligned", n, i, a, line)
			}
			if c := uintptr(cap(s.words)) * unsafe.Sizeof(s.words[0]); c%line != 0 {
				t.Fatalf("New(%d): %d bytes of words, not whole lines", n, c)
			}
			if s.Len() != n || s.Any() {
				t.Fatalf("New(%d): Len %d, Any %v", n, s.Len(), s.Any())
			}
			keep = append(keep, s)
		}
	}
	runtime.KeepAlive(keep)
}
