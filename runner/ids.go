package runner

import (
	"slices"
	"sort"
	"strings"
)

// This file is run-ID bookkeeping: which IDs a Runner has held, so a
// lookup can tell a released run from one it never held, and fresh IDs
// never repeat one.

// series is id without its trailing digits ("n2-run-0042" → "n2-run-"):
// the sequence the number counts in.
func series(id string) string { return strings.TrimRight(id, "0123456789") }

// trailingNumber parses the decimal digits ending id ("run-0042" → 42).
func trailingNumber(id string) (int, bool) {
	end := len(id)
	start := end
	for start > 0 && id[start-1] >= '0' && id[start-1] <= '9' {
		start--
	}
	if start == end {
		return 0, false
	}
	n := 0
	for _, c := range id[start:end] {
		n = n*10 + int(c-'0')
		if n < 0 || n > 1<<30 {
			return 0, false
		}
	}
	return n, true
}

// span is the closed range of run numbers lo..hi.
type span struct{ lo, hi int }

// spans is a set of run numbers as sorted, disjoint, non-adjacent
// ranges. A series whose numbers arrive in order — a Runner's own, or
// one placer's numbering for this node — stays one range, so the set
// costs a range per gap in the numbering, not an entry per run.
type spans []span

// has reports whether n is in the set.
func (s spans) has(n int) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].hi >= n })
	return i < len(s) && s[i].lo <= n
}

// add puts n in the set.
func (s *spans) add(n int) {
	v := *s
	// The first range that holds n or ends just below it.
	i := sort.Search(len(v), func(i int) bool { return v[i].hi >= n-1 })
	switch {
	case i == len(v) || v[i].lo > n+1:
		*s = slices.Insert(v, i, span{n, n})
	case v[i].hi == n-1:
		v[i].hi = n
		if i+1 < len(v) && v[i+1].lo == n+1 {
			v[i].hi = v[i+1].hi
			*s = slices.Delete(v, i+1, i+2)
		}
	case v[i].lo == n+1:
		v[i].lo = n
	}
}

// holdLocked records id as held: Lookup answers ErrReleased for it once
// it leaves the run table, and a caller-chosen submission of it is a
// duplicate. An ID without a trailing number is not recorded.
func (rn *Runner) holdLocked(id string) {
	rn.reserveLocked(id)
	if n, ok := trailingNumber(id); ok {
		k := series(id)
		s := rn.held[k]
		s.add(n)
		rn.held[k] = s
	}
}

// heldLocked reports whether id was ever held.
func (rn *Runner) heldLocked(id string) bool {
	n, ok := trailingNumber(id)
	return ok && rn.held[series(id)].has(n)
}

// reserveLocked raises the Runner's own sequence to id's number when id
// is of that series, so fresh IDs never repeat it.
func (rn *Runner) reserveLocked(id string) {
	if n, ok := trailingNumber(id); ok && n > rn.seq && series(id) == rn.cfg.IDPrefix+"run-" {
		rn.seq = n
	}
}

// Reserve takes id without a run: fresh IDs never repeat it, and Lookup
// still answers ErrNotFound for it. The daemon's journal replay reserves
// each journaled run it does not re-queue, so numbering never restarts
// across a reboot.
func (rn *Runner) Reserve(id string) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	rn.reserveLocked(id)
}

// MarkReleased records id as a run this Runner held in an earlier life
// and saw end: fresh IDs never repeat it, Lookup answers ErrReleased for
// it, and a caller-chosen submission of it is a duplicate. The daemon's
// journal replay marks each run the journal shows ended here.
func (rn *Runner) MarkReleased(id string) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	rn.holdLocked(id)
}
