package lowsched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/vmachine"
)

// TestExhaustedInstanceHammer drives the fixed-stride claim — an
// unconditional fetch-and-add whose result the claimer tests itself —
// from every processor of both engines, and keeps every processor
// claiming long after the instance is exhausted. It pins what makes the
// overshoot invisible:
//
//   - every iteration is claimed exactly once and exactly one claim
//     reports last (k ∤ bound and a lease stepping past the bound
//     included);
//   - no claim that starts after some claim has failed succeeds (the
//     cursor is monotone, so exhaustion is permanent);
//   - the cursor ends exactly one advance per failed claim past the word
//     the conditional {index <= bound; Fetch&add} would have left, and
//     SettledCursor maps it back to that word.
func TestExhaustedInstanceHammer(t *testing.T) {
	const extra = 64 // claims each processor keeps issuing after its first failure
	engines := []struct {
		name string
		p    int
		new  func(p int) machine.Engine
	}{
		{"virtual", 8, func(p int) machine.Engine { return vmachine.New(vmachine.Config{P: p, AccessCost: 5}) }},
		{"real", max(runtime.NumCPU(), 4), func(p int) machine.Engine { return machine.NewReal(machine.RealConfig{P: p}) }},
	}
	cases := []struct {
		s     CalcScheme
		bound int64
		batch int
	}{
		{SS{}, 1000, 1},
		{CSS{K: 7}, 1000, 1}, // 7 ∤ 1000: the final chunk is clamped
		{CSS{K: 7}, 1000, 4}, // the final lease steps past the bound
		{SS{}, 3, 8},         // the first lease already does
		{CSS{K: 16}, 5, 1},   // one chunk covers the instance
	}
	for _, e := range engines {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s/N=%d/b=%d", e.name, tc.s.Name(), tc.bound, tc.batch), func(t *testing.T) {
				pol := Bind(tc.s, e.p).(calcPolicy)
				icb := newICB(tc.bound)
				pol.Init(&tp{n: e.p}, icb)
				seen := make([]atomic.Int32, tc.bound+1)
				var lasts, failures atomic.Int64
				var exhausted atomic.Bool

				e.new(e.p).Run(func(pr machine.Proc) {
					for left := extra; left > 0; {
						late := exhausted.Load()
						var l Lease
						var ok, last bool
						if tc.batch > 1 {
							l, ok, last = pol.Lease(pr, icb, tc.batch)
						} else {
							var a Assignment
							a, ok, last = pol.Next(pr, icb)
							l = Lease{calc: pol.calc, s: a.Lo, bound: tc.bound, n: 1, lo: a.Lo, hi: a.Hi}
						}
						if !ok {
							exhausted.Store(true)
							failures.Add(1)
							left--
							continue
						}
						if late {
							t.Errorf("claim [%d,%d] succeeded after another claim had failed", l.Lo(), l.Hi())
						}
						if last {
							lasts.Add(1)
						}
						next := l.Lo()
						for {
							a, ok := l.Slice()
							if !ok {
								break
							}
							if a.Lo != next || a.Hi > tc.bound {
								t.Errorf("slice %v of lease [%d,%d]: want it to start at %d within the bound", a, l.Lo(), l.Hi(), next)
							}
							for j := a.Lo; j <= a.Hi; j++ {
								seen[j].Add(1)
							}
							next = a.Hi + 1
						}
						if next != l.Hi()+1 {
							t.Errorf("lease [%d,%d] sliced up to %d", l.Lo(), l.Hi(), next-1)
						}
					}
				})

				for j := int64(1); j <= tc.bound; j++ {
					if n := seen[j].Load(); n != 1 {
						t.Fatalf("iteration %d claimed %d times", j, n)
					}
				}
				if n := lasts.Load(); n != 1 {
					t.Errorf("%d claims reported last, want 1", n)
				}
				if n := failures.Load(); n != int64(e.p*extra) {
					t.Fatalf("%d failed claims, want %d (every processor issues %d)", n, e.p*extra, extra)
				}
				k, _ := pol.calc.Stride()
				add := k * int64(tc.batch)
				settled := 1 + (tc.bound+add-1)/add*add // first word of 1, 1+add, … past the bound
				cursor := icb.Index.Peek()
				if want := settled + failures.Load()*add; cursor != want {
					t.Errorf("cursor %d, want %d: %d past the bound's successor plus one advance of %d per failed claim",
						cursor, want, settled-tc.bound-1, add)
				}
				if got := SettledCursor(pol.calc, cursor, tc.bound, tc.batch); got != settled {
					t.Errorf("SettledCursor(%d) = %d, want %d", cursor, got, settled)
				}
				if got := ExecutedPrefix(pol.calc, cursor, tc.bound); got != tc.bound {
					t.Errorf("ExecutedPrefix(%d) = %d, want the bound %d", cursor, got, tc.bound)
				}
			})
		}
	}
}

// TestSettledCursorLeavesLiveStatesAlone: only a fixed-stride cursor past
// the bound is rewritten; live states and state-dependent encodings are
// recorded as they stand.
func TestSettledCursorLeavesLiveStatesAlone(t *testing.T) {
	css := CSS{K: 4}.Calculator(4)
	for _, s := range []int64{1, 5, 9, 10} {
		if got := SettledCursor(css, s, 10, 1); got != s {
			t.Errorf("css:4 live cursor %d settled to %d", s, got)
		}
	}
	// 1, 5, 9 claim; 13 is the word the final claim leaves.
	for _, s := range []int64{13, 17, 13 + 4*1000} {
		if got := SettledCursor(css, s, 10, 1); got != 13 {
			t.Errorf("css:4 cursor %d settled to %d, want 13", s, got)
		}
	}
	gss := GSS{}.Calculator(4)
	if got := SettledCursor(gss, 99, 10, 1); got != 99 {
		t.Errorf("gss cursor settled to %d; state-dependent cursors never overshoot", got)
	}
}

// TestClaimAddIsBounded: an advance is capped so that failed claims
// cannot wrap an exhausted cursor back under its bound.
func TestClaimAddIsBounded(t *testing.T) {
	if got := claimAdd(3, 8); got != 24 {
		t.Errorf("claimAdd(3, 8) = %d", got)
	}
	if got := claimAdd(3, 1<<40); got > MaxClaimAdd || got%3 != 0 || got < MaxClaimAdd-3 {
		t.Errorf("claimAdd(3, 2^40) = %d, want the largest multiple of 3 within %d", got, MaxClaimAdd)
	}
	if _, err := Parse(fmt.Sprintf("css:%d", MaxClaimAdd+1)); err == nil {
		t.Error("Parse accepted a css chunk beyond MaxClaimAdd")
	}
	defer func() {
		if recover() == nil {
			t.Error("Bind accepted a stride beyond MaxClaimAdd")
		}
	}()
	Bind(CSS{K: MaxClaimAdd + 1}, 1)
}
