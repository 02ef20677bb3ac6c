package lowsched

import (
	"repro/internal/machine"
	"repro/internal/pool"
)

// This file is the cursor-snapshot seam checkpoint/resume builds on.
//
// For cursor schemes, the entire claim state of one instance is a single
// int64 — the cursor word in the ICB's Index variable — plus the pure
// calculator that interprets it (calc.go). That makes an instance's
// scheduling progress trivially serializable: snapshot the cursor, and a
// later run re-seeds a fresh ICB's Index with it to continue claiming
// exactly where the first run stopped. The interfaces here expose just
// enough of a Policy for a checkpointing host to do that without knowing
// any scheme's encoding:
//
//   - CursorSource yields the calculator that owns an instance's cursor
//     encoding, so the host can turn the opaque word into "iterations
//     claimed so far" (ExecutedPrefix) and validate snapshots.
//   - CursorPinner/CursorRestorer cover per-instance calculator pinning
//     (the adaptive policy): the snapshot records which calculator spec
//     the instance was claiming under, and restore re-pins it, because a
//     cursor word is meaningless under a different encoding.
//
// Pre-assignment policies (static, affinity) keep claim state per
// processor, not per instance, and deliberately implement none of these;
// a checkpointing host rejects them up front.

// CursorSource is implemented by policies whose entire per-instance
// claim state is the cursor word in the ICB's Index variable. CursorCalc
// returns the pure calculator that interprets icb's cursor; ok is false
// when the instance is not cursor-driven (e.g. an attachment of a
// different scheme on a recycled block).
type CursorSource interface {
	CursorCalc(icb *pool.ICB) (ChunkCalculator, bool)
}

// CursorPinner is the snapshot side of per-instance calculator pinning:
// PinnedSpec returns the parseable scheme spec icb was pinned to at
// activation, or ok=false when the policy does not pin per instance
// (plain cursor schemes — every instance uses the policy's one
// calculator, and snapshots record no spec).
type CursorPinner interface {
	PinnedSpec(icb *pool.ICB) (spec string, ok bool)
}

// CursorRestorer is the restore side of pinning: re-attach the pinned
// calculator named by spec to a freshly created ICB (including whatever
// per-instance Init the pinned scheme requires), so a subsequently
// seeded cursor word is interpreted under its original encoding.
type CursorRestorer interface {
	RestoreCursor(pr machine.Proc, icb *pool.ICB, spec string) error
}

// CursorCalc implements CursorSource: every instance of a plain cursor
// scheme claims through the policy's one calculator.
func (c calcPolicy) CursorCalc(*pool.ICB) (ChunkCalculator, bool) { return c.calc, true }

// ExecutedPrefix returns how many leading iterations of [1, bound] the
// cursor state s has already assigned: claims advance a single shared
// cursor chain, so assigned iterations always form a contiguous prefix,
// and the next chunk's Lo-1 is its length (bound when s encodes
// exhaustion — fixed-stride cursors overshoot the bound on the final
// claim and on every failed one). For a quiescent instance whose claimed
// chunks all completed — the checkpoint invariant — this equals the
// instance's icount.
func ExecutedPrefix(c ChunkCalculator, s, bound int64) int64 {
	a, _, ok := c.Chunk(s, bound)
	if !ok {
		return bound
	}
	return a.Lo - 1
}

// SettledCursor returns the word a snapshot records for cursor state s
// of a run claiming batch >= 1 chunks at a time. A fixed-stride cursor
// past the bound also carries one stride per failed claim — how many is
// a race on the real engine — so it is settled to the value the final
// successful claim left: the smallest word past the bound on s's stride
// lattice. Snapshots of one logical state are then equal on every
// engine; every other state is recorded as it stands.
func SettledCursor(c ChunkCalculator, s, bound int64, batch int) int64 {
	k, fixed := c.Stride()
	if !fixed || s <= bound {
		return s
	}
	return bound + 1 + (s-bound-1)%claimAdd(k, batch)
}
