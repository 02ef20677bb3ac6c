package pool

import (
	"testing"

	"repro/internal/loopir"
	"repro/internal/machine"
)

// TestFanOutList pins the fan-out list's place in every organization: a
// sweep adopts a listed instance before any fan-out block, even one
// published earlier; the adoption filter never sees a fan-out block; and
// the newest fan-out block is adopted first, so a nested fan-out drains
// before its parent.
func TestFanOutList(t *testing.T) {
	type fanPool interface {
		sweeper
		Append(machine.Proc, *ICB)
		Delete(machine.Proc, *ICB)
		Empty() bool
	}
	fan := func(leaf int, bound int64, ivec loopir.IVec) *ICB {
		b := NewICB(leaf, bound, ivec)
		b.MarkFanOut()
		return b
	}
	for name, pl := range map[string]fanPool{
		"per-loop":    New(2),
		"single-list": NewSingleList(2),
		"sharded":     NewSharded(4, 2),
		"sharded-5/4": NewSharded(5, 4), // the last shard word advertises no loop list
		"distributed": NewDistributed(2, 1),
	} {
		t.Run(name, func(t *testing.T) {
			pr := &tp{}
			var st SearchStats
			outer, inner := fan(1, 100, nil), fan(1, 40, loopir.IVec{3})
			leaf := NewICB(2, 4, loopir.IVec{1})
			for _, b := range []*ICB{outer, inner, leaf} {
				pl.Append(pr, b)
			}
			if got := search(pl, pr, never, &st); got != leaf {
				t.Fatalf("first adoption %v, want the instance %v", got, leaf)
			}
			pl.Delete(pr, leaf)
			refuse := func(b *ICB) bool {
				if b.FanOut() {
					t.Errorf("the adoption filter saw %v", b)
				}
				return false
			}
			for _, want := range []*ICB{inner, outer} {
				if got := searchWhere(pl, pr, never, refuse, &st); got != want {
					t.Fatalf("adopted %v, want %v", got, want)
				}
				pl.Delete(pr, want)
			}
			if !pl.Empty() {
				t.Error("pool not empty after every block was deleted")
			}
		})
	}
}
