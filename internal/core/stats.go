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
// the clock around one chunk in the engine's clock stride and divides the
// unread stretches in the ratio those samples predict (DESIGN §17).
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
	cICBReuses // ICBs recycled from a worker freelist
	cDepAwaits // Doacross dependence waits entered
	cDepPosts  // Doacross dependence flags posted

	cFailedIterations // iterations quarantined under Isolate
	cRetries          // Isolate retry attempts

	cAdaptFits     // adaptive-policy utilization-model refits
	cAdaptSwitches // adaptive-policy scheme switches

	numCounters
)

// statDescs declares the spine counters in ID order. The names identify
// the counters within the spine only: the one service that re-exports a
// run's counters names its /metrics series itself (runner.resultMetrics
// — runner_pool_walked_total, not search_walked).
var statDescs = []obs.Desc{
	{Name: "iterations", Help: "leaf iterations executed", Unit: "count"},
	{Name: "chunks", Help: "low-level assignments fetched", Unit: "count"},
	{Name: "instances", Help: "loop instances activated (ICBs)", Unit: "count"},
	{Name: "searches", Help: "high-level SEARCH calls", Unit: "count"},
	{Name: "enters", Help: "ENTER invocations", Unit: "count"},
	{Name: "exits", Help: "completed instances", Unit: "count"},
	{Name: "zero_trips", Help: "vacuously completed constructs", Unit: "count"},
	{Name: "guards_false", Help: "IF guards that evaluated false", Unit: "count"},
	{Name: "o1_time", Help: "iteration-grab overhead time", Unit: "vtime"},
	{Name: "o2_time", Help: "SEARCH overhead time", Unit: "vtime"},
	{Name: "o3_time", Help: "EXIT/ENTER overhead time", Unit: "vtime"},
	{Name: "dispatch_time", Help: "modeled OS dispatch time", Unit: "vtime"},
	{Name: "body_time", Help: "useful iteration body time", Unit: "vtime"},
	{Name: "search_sweeps", Help: "SW leading-one sweeps", Unit: "count"},
	{Name: "search_lock_failures", Help: "lists skipped under held locks", Unit: "count"},
	{Name: "search_retests", Help: "lists empty on locked retest", Unit: "count"},
	{Name: "search_walked", Help: "ICBs inspected during SEARCH", Unit: "count"},
	{Name: "search_saturated", Help: "lists walked without adoption", Unit: "count"},
	{Name: "icb_allocs", Help: "ICBs freshly allocated", Unit: "count"},
	{Name: "icb_reuses", Help: "ICBs recycled via freelists", Unit: "count"},
	{Name: "dep_awaits", Help: "Doacross dependence waits", Unit: "count"},
	{Name: "dep_posts", Help: "Doacross dependence posts", Unit: "count"},
	{Name: "failed_iterations", Help: "iterations quarantined under Isolate", Unit: "count"},
	{Name: "retries", Help: "Isolate retry attempts", Unit: "count"},
	{Name: "adapt_fits", Help: "adaptive-policy model refits", Unit: "count"},
	{Name: "adapt_switches", Help: "adaptive-policy scheme switches", Unit: "count"},
}

// Stats is the executor's sharded counter spine: one obs.Shard per
// processor, written lock-free on the scheduling hot path and merged on
// read. The zero value is not usable; construct with newStats.
type Stats struct {
	spine *obs.Spine
}

// newStats returns a spine with one shard per processor.
func newStats(nprocs int) Stats {
	return Stats{spine: obs.NewSpine(nprocs, statDescs)}
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
	// allocations and freelist recycles (the paper's pcount release
	// protocol making explicit reuse safe).
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
