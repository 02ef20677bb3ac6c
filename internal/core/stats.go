package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pool"
)

// Counter IDs of the executor's stats spine, aligned with the overhead
// decomposition of Section IV:
//
//   - O1: per-iteration accesses to the shared index and iteration
//     counter (the fetch/complete path of Algorithm 3),
//   - O2: SEARCH — leading-one detection, list walking, ivec copy,
//   - O3: EXIT/ENTER — precedence resolution and ICB creation.
//
// Time counters are summed processor time (engine units) measured around
// the corresponding code sections; on the virtual machine they are exact.
// On the real engine O2, O3 and every hold's total are exact too, but the
// split of a hold's time between O1 and body is sampled: the kernel reads
// the clock around one chunk in the engine's clock stride inside one hold
// in every stride (and a leaf's first hold on each processor), reads the
// other holds at their edges only, and divides the unread stretches in the
// ratio those samples predict (DESIGN §17).
const (
	cIterations  obs.ID = iota // leaf iterations executed
	cChunks                    // low-level assignments fetched
	cInstances                 // ICBs activated
	cSearches                  // SEARCH calls (successful or final)
	cEnters                    // ENTER invocations (completion + prologue)
	cExits                     // completed instances
	cZeroTrips                 // vacuously completed constructs/instances
	cGuardsFalse               // IF guards that evaluated false

	cO1Time
	cO2Time
	cO3Time
	cDispatchTime
	cBodyTime

	cSearchSweeps
	cSearchLockFailures
	cSearchRetests
	cSearchWalked
	cSearchSaturated

	cICBAllocs // ICBs freshly allocated
	cICBReuses // retired ICBs recycled from a worker's freelist
	cDepAwaits // Doacross dependence waits entered
	cDepPosts  // Doacross dependence flags posted

	cFailedIterations // iterations quarantined under Isolate
	cRetries          // Isolate retry attempts

	cAdaptFits     // adaptive-policy utilization-model refits
	cAdaptSwitches // adaptive-policy scheme switches

	numCounters
)

// Stats is the executor's sharded counter spine: one obs.Shard per
// processor, written lock-free on the scheduling hot path and merged on
// read. The zero value is not usable; construct with newStats.
type Stats struct {
	spine *obs.Spine
}

// newStats returns a spine with one shard per processor.
func newStats(nprocs int) Stats {
	return Stats{spine: obs.NewSpine(nprocs, int(numCounters))}
}

// shard returns processor i's private counter shard.
func (s *Stats) shard(i int) *obs.Shard { return s.spine.Shard(i) }

// Snapshot is a merged plain-value copy of the executor counters, for
// reports, probes and wire encoding.
type Snapshot struct {
	Iterations, Chunks, Instances int64
	Searches, Enters, Exits       int64
	ZeroTrips, GuardsFalse        int64
	O1Time, O2Time, O3Time        int64
	DispatchTime, BodyTime        int64
	// ICBAllocs and ICBReuses decompose instance activations into fresh
	// allocations and recycled retired blocks, from the activating
	// worker's freelist (the paper's pcount release protocol making
	// explicit reuse safe). Fan-out blocks count in neither.
	ICBAllocs, ICBReuses int64
	// DepAwaits and DepPosts count Doacross dependence operations.
	DepAwaits, DepPosts int64
	// FailedIterations counts iterations the Isolate policy quarantined;
	// Retries counts its retry attempts. Both are zero under FailFast.
	FailedIterations, Retries int64
	// AdaptFits counts the adaptive policy's utilization-model refits and
	// AdaptSwitches its scheme changes; both are zero for static scheme
	// choices. They make the "auto" trajectory observable from outside.
	AdaptFits, AdaptSwitches int64
	Search                   pool.SearchStats
	// Failures details the quarantined iterations, nil when the run had
	// none (so zero-failure snapshots serialize unchanged).
	Failures *FailureReport `json:"failures,omitempty"`
}

// OverheadTime returns the total scheduling-overhead processor time:
// the Section IV decomposition O1 (iteration grabbing) + O2 (SEARCH) +
// O3 (EXIT/ENTER) plus any modeled OS dispatch charge. This is the
// read-only figure the benchmarking suite gates on: exact on the
// virtual machine, sampled on the real engines.
func (sn Snapshot) OverheadTime() int64 {
	return sn.O1Time + sn.O2Time + sn.O3Time + sn.DispatchTime
}

// AccountedTime returns all processor time the executor attributed:
// useful body time plus OverheadTime.
func (sn Snapshot) AccountedTime() int64 {
	return sn.BodyTime + sn.OverheadTime()
}

// Efficiency returns body time over total accounted processor time
// (body + O1 + O2 + O3 + dispatch): the live, stats-only counterpart of
// the paper's utilization eta. Zero when nothing has been accounted yet.
func (sn Snapshot) Efficiency() float64 {
	total := sn.AccountedTime()
	if total <= 0 {
		return 0
	}
	return float64(sn.BodyTime) / float64(total)
}

// Snap merges the shards into a plain-value snapshot. It is safe to call
// at any time, including while the run is in flight (the live-probe
// path): each counter is read atomically, so values are monotone though
// not mutually consistent to a single instant.
func (s *Stats) Snap() Snapshot { return snapshotOf(s.spine.Totals()) }

// snapshotOf reads merged spine totals (counter-ID order, as Stats.Snap
// and RunSnapshot.Stats carry them) into a Snapshot.
func snapshotOf(t []int64) Snapshot {
	return Snapshot{
		Iterations: t[cIterations], Chunks: t[cChunks],
		Instances: t[cInstances], Searches: t[cSearches],
		Enters: t[cEnters], Exits: t[cExits],
		ZeroTrips: t[cZeroTrips], GuardsFalse: t[cGuardsFalse],
		O1Time: t[cO1Time], O2Time: t[cO2Time], O3Time: t[cO3Time],
		DispatchTime: t[cDispatchTime], BodyTime: t[cBodyTime],
		ICBAllocs: t[cICBAllocs], ICBReuses: t[cICBReuses],
		DepAwaits: t[cDepAwaits], DepPosts: t[cDepPosts],
		FailedIterations: t[cFailedIterations], Retries: t[cRetries],
		AdaptFits: t[cAdaptFits], AdaptSwitches: t[cAdaptSwitches],
		Search: pool.SearchStats{
			Sweeps:       t[cSearchSweeps],
			LockFailures: t[cSearchLockFailures],
			Retests:      t[cSearchRetests],
			Walked:       t[cSearchWalked],
			Saturated:    t[cSearchSaturated],
		},
	}
}

func (sn Snapshot) String() string {
	return fmt.Sprintf("iters=%d chunks=%d instances=%d searches=%d O1=%d O2=%d O3=%d dispatch=%d body=%d",
		sn.Iterations, sn.Chunks, sn.Instances, sn.Searches, sn.O1Time, sn.O2Time, sn.O3Time, sn.DispatchTime, sn.BodyTime)
}
