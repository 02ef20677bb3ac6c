// Package bitset provides a fixed-size bit set with atomic per-bit
// operations and leading-one detection.
//
// It implements the m-bit control word SW of the paper (Section III-A):
// bit i is 1 iff the i-th parallel linked list of the task pool is
// nonempty. Processors locate the first nonempty list with a
// leading-one-detection operation; on the Cedar machine this was a single
// hardware instruction, here it is a word-wise scan using bits.TrailingZeros64
// over atomically loaded words.
//
// Bits are numbered starting at 1 to match the paper's 1-based loop
// numbering; index 0 is invalid.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// Atomic is a fixed-size set of bits, each of which may be set, cleared and
// tested atomically. The zero value is not usable; use New.
//
// Individual bit operations are atomic, but multi-word scans (FirstSet, Any,
// Count) are not linearizable snapshots: concurrent mutation may yield a
// stale view. The task-pool SEARCH algorithm tolerates this by re-testing
// the chosen bit under the per-list lock (Algorithm 4).
type Atomic struct {
	n     int
	words []atomic.Uint64
}

// lineWords is the number of words in a 64-byte cache line.
const lineWords = 8

// New returns a bit set holding bits 1..n, all clear.
//
// The words are allocated in whole cache lines: a multiple of 64 bytes
// is a size class whose blocks start on a line boundary, so the words
// share their lines with nothing else. A one-word set would otherwise be
// an 8-byte tiny allocation, packed into a 16-byte block with whatever
// the allocator hands out next — and the task pool's SW word is written
// by every APPEND and DELETE and read by every SEARCH.
func New(n int) *Atomic {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	words := (n + 64) / 64
	return &Atomic{
		n:     n,
		words: make([]atomic.Uint64, words, (words+lineWords-1)/lineWords*lineWords),
	}
}

// Len returns the number of bits in the set (bits are 1..Len()).
func (s *Atomic) Len() int { return s.n }

func (s *Atomic) locate(i int) (word int, mask uint64) {
	if i < 1 || i > s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [1,%d]", i, s.n))
	}
	i--
	return i / 64, 1 << (uint(i) % 64)
}

// Set atomically sets bit i.
func (s *Atomic) Set(i int) {
	w, m := s.locate(i)
	s.words[w].Or(m)
}

// Clear atomically clears bit i.
func (s *Atomic) Clear(i int) {
	w, m := s.locate(i)
	s.words[w].And(^m)
}

// Get reports whether bit i is set.
func (s *Atomic) Get(i int) bool {
	w, m := s.locate(i)
	return s.words[w].Load()&m != 0
}

// TestAndSet atomically sets bit i and reports its previous value.
func (s *Atomic) TestAndSet(i int) bool {
	w, m := s.locate(i)
	return s.words[w].Or(m)&m != 0
}

// TestAndClear atomically clears bit i and reports its previous value.
func (s *Atomic) TestAndClear(i int) bool {
	w, m := s.locate(i)
	return s.words[w].And(^m)&m != 0
}

// FirstSet performs leading-one detection: it returns the lowest-numbered
// set bit, or 0 if the scanned view of the set is empty. The scan loads
// words atomically in index order but is not a snapshot of the whole set.
func (s *Atomic) FirstSet() int {
	for w := range s.words {
		v := s.words[w].Load()
		if v != 0 {
			return w*64 + bits.TrailingZeros64(v) + 1
		}
	}
	return 0
}

// NextSet returns the lowest-numbered set bit strictly greater than i, or 0
// if none is observed. i may be 0 to start a scan (equivalent to FirstSet).
func (s *Atomic) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return 0
	}
	// Bit b lives at 0-based position b-1; we want the lowest set
	// position >= i.
	w := i / 64
	v := s.words[w].Load() &^ (1<<(uint(i)%64) - 1)
	for {
		if v != 0 {
			b := w*64 + bits.TrailingZeros64(v) + 1
			if b > s.n {
				return 0
			}
			return b
		}
		w++
		if w >= len(s.words) {
			return 0
		}
		v = s.words[w].Load()
	}
}

// Any reports whether any bit was observed set.
func (s *Atomic) Any() bool {
	for w := range s.words {
		if s.words[w].Load() != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of bits observed set.
func (s *Atomic) Count() int {
	c := 0
	for w := range s.words {
		c += bits.OnesCount64(s.words[w].Load())
	}
	return c
}

// String renders the set as a bit string, bit 1 leftmost, e.g. "1010".
func (s *Atomic) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 1; i <= s.n; i++ {
		if s.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
