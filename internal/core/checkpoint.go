package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Checkpoint/resume for the execution kernel.
//
// The consistency point is claim-quiescence. A claimed chunk always
// executes to completion — there is no preemption point between a
// successful Policy.Next and the end of its body — so when a checkpoint
// is requested, workers pause only at the claim boundary: before
// fetching another chunk, and in the SEARCH sweep. A worker counts the
// iterations it completes privately and posts them to icount when it
// stops claiming from the instance; a pause is such a stop, so no worker
// leaves the drive loop with unposted work (worker.pause). Once every
// worker has drained out, each live instance satisfies the invariant
//
//	icount == ExecutedPrefix(cursor)
//
// (every claimed iteration has completed and been posted), which makes
// the instance's whole scheduling state a single cursor word. Under
// batched claiming (Config.ClaimBatch) the claim boundary also falls
// between the slices of the lease a worker holds; a worker that pauses
// with slices in hand posts what it executed and records the unexecuted
// remainder (a budget cut records the rest of its chunk the same way),
// generalizing the invariant to
//
//	icount + pending == ExecutedPrefix(cursor)
//
// with the pending ranges carried in the snapshot and re-executed by the
// resuming prologue before the instance is republished. The snapshot is then the
// task pool re-expressed as data: one (loop, ivec, bound, cursor,
// icount) tuple per live instance, the open BAR_COUNT entries, the
// cumulative stats totals, and the Isolate failure log. Completed
// instances are excluded — their EXIT already ran and their successors
// are in the snapshot as fresh instances.
//
// Resume rebuilds exactly that state before any claiming starts: stats,
// barriers and the failure log are seeded host-side, and processor 0's
// prologue re-creates and publishes the ICBs (re-pinning per-instance
// calculators where the policy pins, then re-seeding the cursor) instead
// of entering the program from the top. From there the ordinary drive
// loop continues the run; on the deterministic virtual engine the
// resumed iteration multiset and stats trajectory match the
// uninterrupted run exactly (enginetest's CheckpointResume matrix).
//
// Checkpointability is a property of the configuration, validated up
// front: cursor schemes only (per-processor pre-assignment state is not
// snapshotted), no Doacross and no manual-sync leaves (in-flight
// dependence flags are not snapshotted).

// SnapshotVersion is the RunSnapshot format version this build writes
// and accepts.
const SnapshotVersion = 1

// CheckpointConfig enables the checkpoint seam of one run.
type CheckpointConfig struct {
	// AfterChunks, if positive, requests the checkpoint automatically
	// once the run has claimed this many chunks in total — the
	// deterministic trigger the conformance tests use (claim k is the
	// same scheduling event on every identically-configured virtual
	// run). Zero means checkpoints come only from RequestCheckpoint.
	AfterChunks int64
	// Restore, if non-nil, resumes the run from a snapshot instead of
	// entering the program from the top. The snapshot must match the
	// run's configuration (version, processors, scheme, pool, program
	// shape); mismatches fail with ErrBadSnapshot before anything runs.
	Restore *RunSnapshot
}

// RunSnapshot is the versioned, serializable state of a checkpointed
// run: everything needed to continue it in a fresh process.
type RunSnapshot struct {
	Version int    `json:"version"`
	Procs   int    `json:"procs"`
	Scheme  string `json:"scheme"`
	Pool    string `json:"pool"`
	// Loops is the program's innermost-parallel-loop count M — a cheap
	// shape check that the snapshot is resumed against the program it
	// came from (callers wanting a strong guarantee fingerprint the
	// descriptor tables; see repro.Checkpoint).
	Loops int `json:"loops"`
	// ICBs are the live (incomplete) instances, sorted by (loop, ivec).
	ICBs []ICBSnapshot `json:"icbs"`
	// Bars are the open BAR_COUNT entries, sorted by key.
	Bars []BarSnapshot `json:"bars,omitempty"`
	// Stats are the cumulative spine totals in counter-ID order; resume
	// seeds them so the resumed run's final snapshot is the whole run's.
	Stats []int64 `json:"stats"`
	// Failures carries the Isolate policy's quarantine log forward.
	Failures *FailureReport `json:"failures,omitempty"`
}

// ICBSnapshot is one live instance: the paper's ICB reduced to data.
type ICBSnapshot struct {
	Loop  int         `json:"loop"`
	IVec  loopir.IVec `json:"ivec,omitempty"`
	Bound int64       `json:"bound"`
	// Cursor is the instance's claim-cursor word (ICB.Index); its
	// encoding belongs to the calculator named by Calc (or the run's
	// scheme when Calc is empty).
	Cursor int64 `json:"cursor"`
	// Done is the completed-iteration count (ICB.ICount); at the
	// checkpoint's claim-quiescence it equals the cursor's executed
	// prefix, which restore re-validates.
	Done int64 `json:"done"`
	// Calc, when non-empty, is the calculator spec the instance was
	// pinned to at activation (adaptive policies pin per instance).
	Calc string `json:"calc,omitempty"`
	// Pending are claimed-but-unexecuted iteration ranges: a worker that
	// pauses with slices of its lease in hand (Config.ClaimBatch), or
	// whose chunk crossed the iteration budget, posts the executed prefix
	// and records the remainder here. Restore executes
	// them before republishing the instance, so Done + the pending sizes
	// always equals the cursor's executed prefix.
	Pending []IterRange `json:"pending,omitempty"`
}

// IterRange is a closed iteration range [Lo, Hi] of one instance.
type IterRange struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// BarSnapshot is one open BAR_COUNT entry.
type BarSnapshot struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
}

// ErrCheckpointed is the sentinel a *CheckpointedError matches via
// errors.Is: the run paused at a checkpoint instead of completing.
var ErrCheckpointed = errors.New("core: run checkpointed")

// ErrNotCheckpointable reports a configuration whose in-flight state
// cannot be snapshotted (pre-assignment scheme, Doacross or manual-sync
// program).
var ErrNotCheckpointable = errors.New("core: run not checkpointable")

// ErrBadSnapshot reports a snapshot that does not match the resuming
// run's configuration or fails internal consistency checks.
var ErrBadSnapshot = errors.New("core: bad snapshot")

// CheckpointedError is returned by RunPlanContext (in place of a
// report) when the run paused at a checkpoint. It matches
// ErrCheckpointed via errors.Is.
type CheckpointedError struct {
	Snapshot *RunSnapshot
}

func (e *CheckpointedError) Error() string {
	return fmt.Sprintf("core: run checkpointed with %d live instance(s)", len(e.Snapshot.ICBs))
}

// Is makes errors.Is(err, ErrCheckpointed) true for CheckpointedErrors.
func (e *CheckpointedError) Is(target error) bool { return target == ErrCheckpointed }

// Checkpointer is the checkpoint extension of Probe, implemented by the
// executor when Config.Checkpoint is set: RequestCheckpoint asks the
// run to pause at its next claim-quiescent point and return a
// *CheckpointedError carrying the snapshot. It reports false when the
// run was not configured with a checkpoint seam. Run managers reach it
// by type-asserting the OnStart probe (like Diagnoser).
type Checkpointer interface {
	RequestCheckpoint() bool
}

// RequestCheckpoint implements Checkpointer.
func (ex *executor) RequestCheckpoint() bool {
	if ex.cfg.Checkpoint == nil {
		return false
	}
	ex.ckptReq.Store(true)
	return true
}

// paused reports whether a checkpoint pause was requested. Workers
// consult it at claim boundaries only, so claimed chunks always finish.
func (ex *executor) paused() bool { return ex.ckptReq.Load() }

// checkCheckpointable validates that the configuration's in-flight
// state is fully captured by per-instance cursors: the policy must
// expose the cursor seam (lowsched.CursorSource), and no leaf may carry
// synchronization state outside the snapshot (Doacross dependence
// flags, manual posts).
func checkCheckpointable(pl *Plan, cfg Config, policy lowsched.Policy) error {
	if cfg.Checkpoint.AfterChunks < 0 {
		return fmt.Errorf("%w: negative claim threshold %d", ErrNotCheckpointable, cfg.Checkpoint.AfterChunks)
	}
	if _, ok := policy.(lowsched.CursorSource); !ok {
		return fmt.Errorf("%w: scheme %s keeps claim state outside the ICB cursor (per-processor pre-assignment)",
			ErrNotCheckpointable, policy.Name())
	}
	for num := 1; num < len(pl.leaves); num++ {
		lp := &pl.leaves[num]
		if lp.doacross {
			return fmt.Errorf("%w: loop %d is Doacross — in-flight cross-iteration dependence flags are not snapshotted",
				ErrNotCheckpointable, num)
		}
		if lp.manualSync {
			return fmt.Errorf("%w: loop %d uses manual dependence posting — in-flight flags are not snapshotted",
				ErrNotCheckpointable, num)
		}
	}
	return nil
}

// seedRestore validates the snapshot against the run's configuration
// and seeds the host-side state — cumulative stats, open BAR_COUNT
// entries, the failure log — before the engine starts. The per-instance
// pool state is rebuilt by processor 0's prologue (restorePrologue),
// which needs a machine.Proc for the costed Append protocol.
func (ex *executor) seedRestore() error {
	snap := ex.cfg.Checkpoint.Restore
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("%w: version %d, this build reads %d", ErrBadSnapshot, snap.Version, SnapshotVersion)
	}
	if n := len(ex.workers); snap.Procs != n {
		return fmt.Errorf("%w: snapshot of a %d-processor run, resuming on %d (cursor trajectories are machine-size dependent)",
			ErrBadSnapshot, snap.Procs, n)
	}
	if name := ex.cfg.Scheme.Name(); snap.Scheme != name {
		return fmt.Errorf("%w: snapshot under scheme %s, resuming under %s", ErrBadSnapshot, snap.Scheme, name)
	}
	if name := ex.cfg.Pool.String(); snap.Pool != name {
		return fmt.Errorf("%w: snapshot under pool %s, resuming under %s", ErrBadSnapshot, snap.Pool, name)
	}
	if m := ex.plan.prog.M; snap.Loops != m {
		return fmt.Errorf("%w: snapshot of a %d-loop program, resuming a %d-loop program", ErrBadSnapshot, snap.Loops, m)
	}
	if len(snap.Stats) != int(numCounters) {
		return fmt.Errorf("%w: %d stats counters, this build has %d", ErrBadSnapshot, len(snap.Stats), int(numCounters))
	}
	if len(snap.ICBs) == 0 {
		return fmt.Errorf("%w: no live instances (a claim-quiescent pause always leaves in-flight work)", ErrBadSnapshot)
	}
	sh := ex.stats.shard(0)
	for i, v := range snap.Stats {
		if v < 0 {
			return fmt.Errorf("%w: negative counter %d", ErrBadSnapshot, i)
		}
		if v != 0 {
			sh.Add(obs.ID(i), v)
		}
	}
	for _, bs := range snap.Bars {
		if bs.Key == "" || bs.Count < 1 {
			return fmt.Errorf("%w: barrier entry %q count %d", ErrBadSnapshot, bs.Key, bs.Count)
		}
		if _, dup := ex.bars[bs.Key]; dup {
			return fmt.Errorf("%w: duplicate barrier entry %q", ErrBadSnapshot, bs.Key)
		}
		ex.bars[bs.Key] = machine.NewSyncVar("BAR_COUNT", bs.Count)
	}
	ex.failures.seed(snap.Failures)
	// The seeded iteration totals sit on shard 0 and were all posted by
	// the paused run: processor 0's executed-unposted figure starts at 0.
	ex.workers[0].posted.Store(sh.Get(cIterations) + sh.Get(cFailedIterations))
	ex.restore = snap
	return nil
}

// capture builds the snapshot after the engine drained at a checkpoint
// pause. It re-validates the claim-quiescence invariant per instance —
// a mismatch would mean a claimed chunk did not complete, and resuming
// from such a snapshot would lose or repeat iterations.
func (ex *executor) capture() (*RunSnapshot, error) {
	cs := ex.policy.(lowsched.CursorSource) // validated by checkCheckpointable
	pin, _ := ex.policy.(lowsched.CursorPinner)
	snap := &RunSnapshot{
		Version:  SnapshotVersion,
		Procs:    len(ex.workers),
		Scheme:   ex.cfg.Scheme.Name(),
		Pool:     ex.cfg.Pool.String(),
		Loops:    ex.plan.prog.M,
		Stats:    ex.stats.spine.Totals(),
		Failures: ex.failures.report(),
	}
	ex.instMu.Lock()
	icbs := make([]*pool.ICB, 0, len(ex.insts))
	for icb := range ex.insts {
		icbs = append(icbs, icb)
	}
	ex.instMu.Unlock()
	for _, icb := range icbs {
		done := icb.ICount.Peek()
		pend := ex.pendingOf(icb)
		if done == icb.Bound {
			// Completed: EXIT ran and the successors were activated (they
			// are in this snapshot themselves); only the release-protocol
			// bookkeeping was abandoned by the pause.
			if len(pend) > 0 {
				return nil, fmt.Errorf("core: checkpoint: completed instance (loop %d, ivec %v) has pending lease ranges", icb.Loop, icb.IVec)
			}
			continue
		}
		calc, ok := cs.CursorCalc(icb)
		if !ok {
			return nil, fmt.Errorf("core: checkpoint: instance (loop %d, ivec %v) carries no cursor state", icb.Loop, icb.IVec)
		}
		cursor := lowsched.SettledCursor(calc, icb.Index.Peek(), icb.Bound, ex.batch)
		var psz int64
		ranges := make([]IterRange, 0, len(pend))
		for _, r := range pend {
			psz += r.Size()
			ranges = append(ranges, IterRange{Lo: r.Lo, Hi: r.Hi})
		}
		if len(ranges) == 0 {
			ranges = nil
		}
		if p := lowsched.ExecutedPrefix(calc, cursor, icb.Bound); p != done+psz {
			return nil, fmt.Errorf("core: checkpoint: instance (loop %d, ivec %v) not claim-quiescent: icount %d + pending %d, cursor prefix %d",
				icb.Loop, icb.IVec, done, psz, p)
		}
		s := ICBSnapshot{Loop: icb.Loop, IVec: icb.IVec.Clone(), Bound: icb.Bound, Cursor: cursor, Done: done, Pending: ranges}
		if pin != nil {
			if spec, ok := pin.PinnedSpec(icb); ok {
				s.Calc = spec
			}
		}
		snap.ICBs = append(snap.ICBs, s)
	}
	if len(snap.ICBs) == 0 {
		// Unreachable at a genuine pause (an incomplete program always has
		// in-flight instances at claim-quiescence), kept as a guard: a
		// zero-instance snapshot would hang its resuming run.
		return nil, fmt.Errorf("core: checkpoint caught no in-flight instances")
	}
	sort.Slice(snap.ICBs, func(i, k int) bool {
		a, b := snap.ICBs[i], snap.ICBs[k]
		if a.Loop != b.Loop {
			return a.Loop < b.Loop
		}
		return a.IVec.String() < b.IVec.String()
	})
	ex.barMu.Lock()
	for k, v := range ex.bars {
		snap.Bars = append(snap.Bars, BarSnapshot{Key: k, Count: v.Peek()})
	}
	ex.barMu.Unlock()
	sort.Slice(snap.Bars, func(i, k int) bool { return snap.Bars[i].Key < snap.Bars[k].Key })
	return snap, nil
}

// restorePrologue is processor 0's program prologue on a resumed run:
// instead of entering the program from the top, re-create and publish
// the snapshot's live instances. Validation failures trip the run (the
// engine is already driving the other processors), and RunPlanContext
// returns the cause.
func (w *worker) restorePrologue() {
	ex, pr := w.ex, w.pr
	snap := ex.restore
	cs := ex.policy.(lowsched.CursorSource)
	for i := range snap.ICBs {
		s := &snap.ICBs[i]
		if s.Loop < 1 || s.Loop > ex.plan.prog.M || s.Bound < 1 || s.Done < 0 || s.Done >= s.Bound {
			ex.trip(fmt.Errorf("%w: instance %d (loop %d, bound %d, done %d) out of range",
				ErrBadSnapshot, i, s.Loop, s.Bound, s.Done))
			return
		}
		icb := pool.NewICB(s.Loop, s.Bound, s.IVec)
		if s.Calc != "" {
			cr, ok := ex.policy.(lowsched.CursorRestorer)
			if !ok {
				ex.trip(fmt.Errorf("%w: instance %d pins calculator %q but scheme %s does not pin per instance",
					ErrBadSnapshot, i, s.Calc, ex.policy.Name()))
				return
			}
			if err := cr.RestoreCursor(pr, icb, s.Calc); err != nil {
				ex.trip(fmt.Errorf("%w: instance %d: %v", ErrBadSnapshot, i, err))
				return
			}
		} else {
			ex.policy.Init(pr, icb)
		}
		icb.Sync = nil
		icb.Index.Reset(s.Cursor)
		icb.ICount.Reset(s.Done)
		var psz int64
		for _, r := range s.Pending {
			if r.Lo < 1 || r.Hi < r.Lo || r.Hi > s.Bound {
				ex.trip(fmt.Errorf("%w: instance %d (loop %d): pending range [%d,%d] out of range",
					ErrBadSnapshot, i, s.Loop, r.Lo, r.Hi))
				return
			}
			psz += r.Hi - r.Lo + 1
		}
		calc, ok := cs.CursorCalc(icb)
		if !ok || lowsched.ExecutedPrefix(calc, s.Cursor, s.Bound) != s.Done+psz {
			ex.trip(fmt.Errorf("%w: instance %d (loop %d): cursor %d does not encode %d completed + %d pending iterations",
				ErrBadSnapshot, i, s.Loop, s.Cursor, s.Done, psz))
			return
		}
		if ex.combine {
			icb.Index.SetCombining(true)
			icb.ICount.SetCombining(true)
		}
		// Publish with the activation protocol, but without the stats the
		// seeded totals already count (cInstances, cEnters, O3 time): the
		// resumed run's final snapshot must be the whole run's.
		ex.live.Add(1)
		if w.sink != nil {
			w.sink.Record(w.event(pr.Now(), trace.EvActivated, s.Loop, icb.IVec, s.Bound, 0))
		}
		ex.trackICB(icb)
		if psz > 0 {
			// Re-execute the leased-but-unexecuted remainder before the
			// instance is published: the interrupted leaseholder already
			// claimed these iterations (and the pause-side run counted
			// their chunks), so they must run exactly once, here. The
			// prologue takes a pcount hold for the duration; an instance
			// the remainder completes takes the ordinary completion path
			// and never rejoins the pool.
			icb.PCount.FetchInc(pr)
			w.mark() // the body interval opens here; republishing is uncharged
			for _, r := range s.Pending {
				if !w.runChunk(icb, lowsched.Assignment{Lo: r.Lo, Hi: r.Hi}) {
					return // drain (abort): the resumed run is tearing down
				}
			}
			w.unposted = psz
			keep, cont := w.post(icb)
			if !cont {
				return
			}
			if !keep {
				continue // completed and released in the prologue
			}
			w.endHold() // the icount post; republishing is uncharged
			icb.PCount.FetchDec(pr)
		}
		ex.pool.Append(pr, icb)
	}
}
