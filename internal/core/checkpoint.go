package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/descr"
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
// icount) tuple per live instance, one (leaf, level, ivec, bound, next)
// tuple per fan-out block, the cumulative stats totals, and the Isolate
// failure log. Completed instances are excluded — their EXIT already ran
// and their successors are in the snapshot as fresh instances. No
// BAR_COUNT is stored: restore derives each from the blocks (rebuild).
//
// Resume rebuilds exactly that state before any claiming starts: stats
// and the failure log are seeded host-side, and processor 0's prologue
// validates and rebuilds every block and the barriers above it, then
// publishes them, instead of entering the program from the top. From there the
// ordinary drive loop continues the run; on the deterministic virtual engine the
// resumed iteration multiset and stats trajectory match the
// uninterrupted run exactly (enginetest's CheckpointResume matrix).
//
// Every run pauses whose plan and scheme allow it (executor.pausable):
// a cursor scheme (per-processor pre-assignment state is not snapshotted)
// and no Doacross leaf (in-flight dependence flags are not snapshotted).
// Capture reads the task pool (liveBlocks): no cost until a run pauses.

// SnapshotVersion is the RunSnapshot format version this build writes.
// It also resumes version 1, which stored the open barriers' counts that
// version 2 derives.
const SnapshotVersion = 2

// CheckpointConfig asks a run that can pause for a claim-k pause or a resume.
type CheckpointConfig struct {
	// AfterChunks, if positive, requests the checkpoint automatically
	// once the run has claimed this many chunks in total — the
	// deterministic trigger the conformance tests use (claim k is the
	// same scheduling event on every identically-configured virtual
	// run). Zero means checkpoints come only from RequestCheckpoint.
	AfterChunks int64
	// Restore, if non-nil, resumes the run from a snapshot instead of
	// entering the program from the top. The snapshot must match the
	// run's configuration (version, processors, scheme, program shape);
	// mismatches fail with ErrBadSnapshot before anything runs. The pool
	// may differ: a snapshot holds instances, not lists, and the restore
	// prologue appends them to whichever pool the run uses.
	Restore *RunSnapshot
}

// RunSnapshot is the versioned, serializable state of a checkpointed
// run: everything needed to continue it in a fresh process.
type RunSnapshot struct {
	Version int    `json:"version"`
	Procs   int    `json:"procs"`
	Scheme  string `json:"scheme"`
	Pool    string `json:"pool"` // the pool it was captured under; any pool resumes it
	// Loops is the program's innermost-parallel-loop count M — a cheap
	// shape check that the snapshot is resumed against the program it
	// came from (callers wanting a strong guarantee fingerprint the
	// descriptor tables; see repro.Checkpoint).
	Loops int `json:"loops"`
	// ICBs are the live (incomplete) instances, sorted by (loop, ivec).
	ICBs []ICBSnapshot `json:"icbs"`
	// FanOuts are the in-flight fan-out blocks: structural parallel loops
	// whose activations are not all claimed yet, sorted by (leaf, ivec).
	FanOuts []FanOutSnapshot `json:"fanouts,omitempty"`
	// V1Bars holds a version-1 snapshot's barrier counts, which restore
	// derives instead and ignores; capture never writes it. It lets a
	// strict decoder accept a version-1 snapshot.
	V1Bars json.RawMessage `json:"bars,omitempty"`
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

// FanOutSnapshot is one fan-out block: the activations Next..Bound of the
// structural parallel loop at Level whose iterations enter Leaf's chain,
// within the enclosing indexes IVec. A pause lands only at a claim
// boundary, so every iteration below Next has been activated.
type FanOutSnapshot struct {
	Leaf  int         `json:"leaf"`
	Level int         `json:"level"`
	IVec  loopir.IVec `json:"ivec,omitempty"`
	Bound int64       `json:"bound"`
	Next  int64       `json:"next"`
}

// IterRange is a closed iteration range [Lo, Hi] of one instance.
type IterRange struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
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
	// Report is the engine's report of the run up to the pause.
	Report machine.RunReport
}

func (e *CheckpointedError) Error() string {
	return fmt.Sprintf("core: run checkpointed with %d live instance(s)", len(e.Snapshot.ICBs))
}

// Is makes errors.Is(err, ErrCheckpointed) true for CheckpointedErrors.
func (e *CheckpointedError) Is(target error) bool { return target == ErrCheckpointed }

// Checkpointer is the checkpoint extension of Probe, implemented by the
// executor: RequestCheckpoint asks the run to pause at its next
// claim-quiescent point and return a *CheckpointedError carrying the
// snapshot. It reports false when the run cannot pause (a static scheme,
// or a Doacross or manual-post leaf); such a run completes. Run managers
// reach it by type-asserting the OnStart probe (like Diagnoser).
type Checkpointer interface {
	RequestCheckpoint() bool
}

// RequestCheckpoint implements Checkpointer.
func (ex *executor) RequestCheckpoint() bool {
	if !ex.pausable {
		return false
	}
	ex.ckptReq.Store(true)
	return true
}

// Checkpointable reports whether runs of the plan under scheme on nprocs
// processors can pause with a snapshot: nil, or an error that matches
// ErrNotCheckpointable (or an invalid scheme's).
func (pl *Plan) Checkpointable(scheme lowsched.Scheme, nprocs int) error {
	policy, err := bindScheme(scheme, nprocs)
	if err != nil {
		return err
	}
	return checkCheckpointable(pl, policy)
}

// checkCheckpointable validates that the run's in-flight state is fully
// captured by per-instance cursors: the policy must expose the cursor
// seam (lowsched.CursorSource), and no leaf may carry synchronization
// state outside the snapshot (Doacross dependence flags, posted by the
// executor or by the body). It is executor.pausable with a reason.
func checkCheckpointable(pl *Plan, policy lowsched.Policy) error {
	if _, ok := policy.(lowsched.CursorSource); !ok {
		return fmt.Errorf("%w: scheme %s keeps claim state outside the ICB cursor (per-processor pre-assignment)",
			ErrNotCheckpointable, policy.Name())
	}
	if pl.doacross != 0 {
		return fmt.Errorf("%w: loop %d is Doacross — in-flight cross-iteration dependence flags are not snapshotted",
			ErrNotCheckpointable, pl.doacross)
	}
	return nil
}

// seedRestore validates the snapshot against the run's configuration
// and seeds the host-side state — cumulative stats and the failure log —
// before the engine starts. The per-instance pool state and the barriers
// above it are rebuilt by processor 0's prologue (restorePrologue), which
// needs a machine.Proc for the costed Append protocol.
func (ex *executor) seedRestore() error {
	snap := ex.cfg.Checkpoint.Restore
	if snap.Version < 1 || snap.Version > SnapshotVersion {
		return fmt.Errorf("%w: version %d, this build reads 1 to %d", ErrBadSnapshot, snap.Version, SnapshotVersion)
	}
	if n := len(ex.workers); snap.Procs != n {
		return fmt.Errorf("%w: snapshot of a %d-processor run, resuming on %d (cursor trajectories are machine-size dependent)",
			ErrBadSnapshot, snap.Procs, n)
	}
	if name := ex.cfg.Scheme.Name(); snap.Scheme != name {
		return fmt.Errorf("%w: snapshot under scheme %s, resuming under %s", ErrBadSnapshot, snap.Scheme, name)
	}
	if m := ex.plan.prog.M; snap.Loops != m {
		return fmt.Errorf("%w: snapshot of a %d-loop program, resuming a %d-loop program", ErrBadSnapshot, snap.Loops, m)
	}
	if len(snap.Stats) != int(numCounters) {
		return fmt.Errorf("%w: %d stats counters, this build has %d", ErrBadSnapshot, len(snap.Stats), int(numCounters))
	}
	if len(snap.ICBs) == 0 && len(snap.FanOuts) == 0 {
		return fmt.Errorf("%w: no live instances (a claim-quiescent pause always leaves in-flight work)", ErrBadSnapshot)
	}
	if n := snap.Stats[cInstances] - snap.Stats[cExits]; n != int64(len(snap.ICBs)) {
		return fmt.Errorf("%w: %d instance(s) activated and not completed, %d in the snapshot", ErrBadSnapshot, n, len(snap.ICBs))
	}
	sh := ex.spine.Shard(0)
	for i, v := range snap.Stats {
		if v < 0 {
			return fmt.Errorf("%w: negative counter %d", ErrBadSnapshot, i)
		}
		if v != 0 {
			sh.Add(obs.ID(i), v)
		}
	}
	ex.failures.seed(snap.Failures)
	// The seeded iteration totals sit on shard 0 and were all posted by
	// the paused run: processor 0's executed-unposted figure starts at 0.
	ex.workers[0].posted.Store(sh.Get(cIterations) + sh.Get(cFailedIterations))
	ex.restore = snap
	return nil
}

// liveBlocks returns the blocks a pause can leave in flight, once the
// engine has drained: the pool's, and the instances with pending ranges
// that a pausing worker deleted from their list with its last claim.
func (ex *executor) liveBlocks() []*pool.ICB {
	icbs := ex.pool.Blocks()
	ex.pendMu.Lock()
	defer ex.pendMu.Unlock()
	for icb := range ex.pend {
		if !slices.Contains(icbs, icb) {
			icbs = append(icbs, icb)
		}
	}
	return icbs
}

// capture builds the snapshot after the engine drained at a checkpoint
// pause. It re-validates the claim-quiescence invariant per instance —
// a mismatch would mean a claimed chunk did not complete, and resuming
// from such a snapshot would lose or repeat iterations.
func (ex *executor) capture() (*RunSnapshot, error) {
	cs := ex.policy.(lowsched.CursorSource) // a pause needs executor.pausable
	pin, _ := ex.policy.(lowsched.CursorPinner)
	snap := &RunSnapshot{
		Version:  SnapshotVersion,
		Procs:    len(ex.workers),
		Scheme:   ex.cfg.Scheme.Name(),
		Pool:     ex.cfg.Pool.String(),
		Loops:    ex.plan.prog.M,
		Stats:    ex.spine.Totals(),
		Failures: ex.failures.report(),
	}
	for _, icb := range ex.liveBlocks() {
		if icb.FanOut() {
			// A fan-out whose last chunk is claimed has activated
			// everything; only its release was abandoned.
			if next := icb.Index.Peek(); next <= icb.Bound {
				snap.FanOuts = append(snap.FanOuts, FanOutSnapshot{Leaf: icb.Loop, Level: len(icb.IVec) + 2,
					IVec: icb.IVec.Clone(), Bound: icb.Bound, Next: next})
			}
			continue
		}
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
	if len(snap.ICBs) == 0 && len(snap.FanOuts) == 0 {
		// Unreachable at a genuine pause (an incomplete program always has
		// in-flight instances or activations at claim-quiescence), kept as
		// a guard: an empty snapshot would hang its resuming run.
		return nil, fmt.Errorf("core: checkpoint caught no in-flight instances")
	}
	sort.Slice(snap.ICBs, func(i, k int) bool {
		return byLoopIVec(snap.ICBs[i].Loop, snap.ICBs[i].IVec, snap.ICBs[k].Loop, snap.ICBs[k].IVec) < 0
	})
	sort.Slice(snap.FanOuts, func(i, k int) bool {
		return byLoopIVec(snap.FanOuts[i].Leaf, snap.FanOuts[i].IVec, snap.FanOuts[k].Leaf, snap.FanOuts[k].IVec) < 0
	})
	return snap, nil
}

// restorePrologue is processor 0's program prologue on a resumed run:
// instead of entering the program from the top, it rebuilds the
// snapshot's blocks (rebuild) and publishes them — each instance after
// its pending ranges, then the fan-out blocks. A snapshot that fails
// validation trips the run before anything is published or run.
func (w *worker) restorePrologue() {
	ex, pr := w.ex, w.pr
	icbs, fans, err := w.rebuild()
	if err != nil {
		ex.trip(err)
		return
	}
	for i, icb := range icbs {
		// Publish with the activation protocol, but without the stats the
		// seeded totals already count (cInstances, cEnters, O3 time): the
		// resumed run's final snapshot must be the whole run's.
		ex.live.Add(1)
		if w.sink != nil {
			w.sink.Record(w.event(pr.Now(), trace.EvActivated, icb.Loop, icb.IVec, icb.Bound, 0))
		}
		ex.trackICB(icb)
		if pend := ex.restore.ICBs[i].Pending; len(pend) > 0 {
			// The paused run claimed the leased-but-unexecuted remainder
			// and counted its chunks: it runs exactly once, here, under a
			// pcount hold. An instance it completes takes the ordinary
			// completion path and never rejoins the pool.
			icb.PCount.FetchInc(pr)
			w.mark() // the body interval opens here; republishing is uncharged
			for _, r := range pend {
				if !w.runChunk(icb, lowsched.Assignment{Lo: r.Lo, Hi: r.Hi}) {
					return // drain (abort): the resumed run is tearing down
				}
				w.unposted += r.Hi - r.Lo + 1
			}
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
	for _, icb := range fans {
		ex.trackICB(icb)
		ex.pool.Append(pr, icb)
	}
}

// rebuild validates the snapshot's blocks against the program and builds
// them, each under the barriers its index vector names, without
// publishing any. Each barrier is rebuilt once per (loop, enclosing
// indexes) with a derived count. At claim-quiescence each iteration of a
// structural parallel loop is unactivated (at or past its fan-out block's
// next), open (a block lies beneath it) or counted, so the count is the
// activated iterations — the fan-out block's next − 1 when the loop's
// block is in the snapshot, the bound otherwise — less the open ones.
func (w *worker) rebuild() (icbs, fans []*pool.ICB, err error) {
	ex, pr, snap := w.ex, w.pr, w.ex.restore
	// Until every block is placed, a rebuilt barrier's count holds its
	// loop's activated iterations.
	type child struct {
		b *barrier
		k int64
	}
	bars, open := map[string]*barrier{}, map[child]bool{}
	// under places a block of leaf with enclosing indexes ivec beneath the
	// barriers of the structural parallel loops at levels 2..upto, checking
	// each index against its loop's range, and returns the innermost. The
	// block is an open child of each barrier whose iteration ivec names; a
	// fan-out block is its own loop's, at upto.
	under := func(leaf *descr.LeafInfo, ivec loopir.IVec, upto int) (up *barrier, ok bool) {
		for lvl := 2; lvl <= upto; lvl++ {
			d := &leaf.Levels[lvl]
			bound := d.Bound.Eval(ivec[:lvl-2])
			named := lvl-2 < len(ivec)
			if named && (ivec[lvl-2] < 1 || ivec[lvl-2] > bound) {
				return nil, false
			}
			if !d.Parallel {
				continue
			}
			key := fmt.Sprint(d.LoopID, ivec[:lvl-2])
			if bars[key] == nil {
				bars[key] = w.openBarrier(up, lvl, bound)
				bars[key].count.Init(labelBar, bound)
			}
			up = bars[key]
			if named {
				open[child{up, ivec[lvl-2]}] = true
			}
		}
		return up, true
	}
	cs := ex.policy.(lowsched.CursorSource)
	for i := range snap.ICBs {
		s := &snap.ICBs[i]
		var bar *barrier
		ok := s.Loop >= 1 && s.Loop <= ex.plan.prog.M && s.Done >= 0 && s.Done < s.Bound
		if ok {
			leaf := ex.plan.leaf(s.Loop)
			if ok = len(s.IVec) == leaf.Depth-1; ok {
				bar, ok = under(leaf, s.IVec, leaf.Depth)
			}
			ok = ok && leaf.Node.Bound.Eval(s.IVec) == s.Bound
		}
		if !ok {
			return nil, nil, fmt.Errorf("%w: instance %d (loop %d, ivec %v, bound %d, done %d) out of range",
				ErrBadSnapshot, i, s.Loop, s.IVec, s.Bound, s.Done)
		}
		icb := pool.NewICB(s.Loop, s.Bound, s.IVec)
		icb.Bar = bar
		if s.Calc != "" {
			cr, ok := ex.policy.(lowsched.CursorRestorer)
			if !ok {
				return nil, nil, fmt.Errorf("%w: instance %d pins calculator %q but scheme %s does not pin per instance",
					ErrBadSnapshot, i, s.Calc, ex.policy.Name())
			}
			if err := cr.RestoreCursor(pr, icb, s.Calc); err != nil {
				return nil, nil, fmt.Errorf("%w: instance %d: %v", ErrBadSnapshot, i, err)
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
				return nil, nil, fmt.Errorf("%w: instance %d (loop %d): pending range [%d,%d] out of range",
					ErrBadSnapshot, i, s.Loop, r.Lo, r.Hi)
			}
			psz += r.Hi - r.Lo + 1
		}
		calc, ok := cs.CursorCalc(icb)
		if !ok || lowsched.ExecutedPrefix(calc, s.Cursor, s.Bound) != s.Done+psz {
			return nil, nil, fmt.Errorf("%w: instance %d (loop %d): cursor %d does not encode %d completed + %d pending iterations",
				ErrBadSnapshot, i, s.Loop, s.Cursor, s.Done, psz)
		}
		icbs = append(icbs, icb)
	}
	for i, s := range snap.FanOuts {
		ok := s.Leaf >= 1 && s.Leaf <= ex.plan.prog.M && s.Level == len(s.IVec)+2 &&
			s.Next >= 1 && s.Next <= s.Bound
		var bar *barrier
		if ok {
			leaf := ex.plan.leaf(s.Leaf)
			if ok = s.Level <= leaf.Depth && leaf.Levels[s.Level].Parallel; ok {
				bar, ok = under(leaf, s.IVec, s.Level)
			}
			ok = ok && bar.bound == s.Bound
		}
		// Activations below the bound mean the loop's block is rebuilt already.
		if !ok || bar.count.Peek() < bar.bound {
			return nil, nil, fmt.Errorf("%w: fan-out %d (leaf %d, level %d, ivec %v, bound %d, next %d) does not fit the program",
				ErrBadSnapshot, i, s.Leaf, s.Level, s.IVec, s.Bound, s.Next)
		}
		bar.count.Init(labelBar, s.Next-1)
		icb := pool.NewICB(s.Leaf, s.Bound, s.IVec)
		icb.MarkFanOut()
		icb.Bar = bar
		icb.Index.Reset(s.Next)
		fans = append(fans, icb)
	}
	nopen := map[*barrier]int64{}
	for c := range open {
		if act := c.b.count.Peek(); c.k > act {
			return nil, nil, fmt.Errorf("%w: a block lies beneath iteration %d of a loop whose fan-out activated %d",
				ErrBadSnapshot, c.k, act)
		}
		nopen[c.b]++
	}
	for b, n := range nopen {
		b.count.Init(labelBar, b.count.Peek()-n)
	}
	return icbs, fans, nil
}
