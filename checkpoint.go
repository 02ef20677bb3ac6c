package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/core"
)

// Checkpoint is a resumable snapshot of a paused run: the paper's
// scheduling state (live instance control blocks with their low-level
// index cursors, in-flight fan-out blocks, cumulative statistics — the
// barrier counters are derived from the blocks on resume) plus a
// fingerprint of the program it belongs to. Checkpoints serialize to
// JSON, so a daemon can hand one to a client and accept it back on a
// later submission — possibly after a process restart.
type Checkpoint struct {
	// Program fingerprints the compiled descriptor tables the snapshot
	// was captured from; Resume refuses a checkpoint whose fingerprint
	// does not match the submitted program.
	Program string `json:"program"`
	// Snapshot is the captured scheduling state.
	Snapshot *core.RunSnapshot `json:"snapshot"`
}

// Checkpoint/resume errors.
var (
	// ErrCheckpointed is the cause of every *CheckpointedError: a run
	// that paused at a checkpoint instead of completing.
	ErrCheckpointed = errors.New("repro: run checkpointed")
	// ErrNotCheckpointable reports a configuration whose scheduling state
	// cannot be captured losslessly (static pre-assignment schemes,
	// Doacross nests, manually synchronized leaves).
	ErrNotCheckpointable = core.ErrNotCheckpointable
	// ErrBadSnapshot reports a snapshot that fails restore validation
	// (wrong engine size, scheme, or corrupted cursors).
	ErrBadSnapshot = core.ErrBadSnapshot
	// ErrBadCheckpoint reports a Resume checkpoint that is structurally
	// unusable: no snapshot, or a program fingerprint mismatch.
	ErrBadCheckpoint = errors.New("repro: checkpoint does not match program")
)

// CheckpointedError is the non-Result outcome of a run that paused at a
// checkpoint: the requested pause is not a failure, but there is no
// Result either — the work is not finished. It matches ErrCheckpointed
// via errors.Is; the embedded Checkpoint resumes the run.
type CheckpointedError struct {
	Checkpoint *Checkpoint
	// Elapsed, Busy and Accesses are Result's Makespan, Busy and Accesses
	// up to the pause; a run resumed from Checkpoint reports only the rest.
	Elapsed  int64
	Busy     []int64
	Accesses []int64
}

func (e *CheckpointedError) Error() string {
	n := 0
	if e.Checkpoint != nil && e.Checkpoint.Snapshot != nil {
		n = len(e.Checkpoint.Snapshot.ICBs)
	}
	return fmt.Sprintf("repro: run checkpointed with %d live instance(s)", n)
}

// Is reports ErrCheckpointed as this error's cause.
func (e *CheckpointedError) Is(target error) bool { return target == ErrCheckpointed }

// Fingerprint identifies the compiled program for checkpoint matching:
// a hash over the descriptor tables (DEPTH/BOUND and DESCRPT), which
// determine the scheduling state space. Two compilations of the same
// nest fingerprint identically; any structural change — bounds, nesting,
// construct kinds — changes it.
func (p *Program) Fingerprint() string {
	h := sha256.New()
	h.Write([]byte(p.desc.FormatDepthBound()))
	h.Write([]byte(p.desc.FormatDescriptors()))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// CanCheckpoint reports whether a run of the program under opts can pause
// with a snapshot: it needs a cursor (dynamic) scheme and no Doacross or
// manual-post loop. It returns nil, an error matching
// ErrNotCheckpointable, or the option error Run would return.
func (p *Program) CanCheckpoint(opts Options) error {
	rs, err := opts.resolve()
	if err != nil {
		return err
	}
	pl, err := p.execPlan()
	if err != nil {
		return err
	}
	return pl.Checkpointable(rs.scheme, rs.procs)
}
