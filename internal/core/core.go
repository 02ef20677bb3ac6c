// Package core implements the paper's two-level processor self-scheduling
// scheme: the low-level loop of Algorithm 3 (fetch-and-op iteration
// grabbing, instance completion, the pcount release protocol), the EXIT
// level computation of Algorithm 5, and the ENTER activation fan-out of
// Algorithm 6, over the task pool of package pool and the compiled
// descriptors of package descr.
//
// The executor is engine-agnostic: the identical scheduling code runs on
// the real goroutine machine and on the deterministic virtual-time
// machine, because every time-consuming action goes through machine.Proc.
//
// # Layering
//
// Execution state is split into three layers (DESIGN.md §8):
//
//   - Plan: immutable compile-once artifacts — descriptor tables,
//     successor fan-out, per-leaf traits (see Plan). Safe to share across
//     concurrent runs.
//   - Instance: per-run state — the task pool of ICBs and fan-out blocks,
//     the BAR_COUNT table, the stop causes and the stats spine (see
//     executor).
//   - Worker: per-processor scratch — the loc_indexes vector, the bound
//     iteration context, the stats shard and the ICB freelist (see
//     worker).
//
// # Deviations from the paper's pseudocode (all documented in DESIGN.md)
//
//   - Iteration completion uses {Fetch(icount)&add(n)} instead of the
//     per-iteration {icount < b-1; Increment}, and n is everything the
//     processor has executed on the instance since its previous post:
//     it posts when it stops claiming from the instance (its claim
//     fails, it pauses) and, near the instance's tail, after every
//     chunk. Only the claim is serialized at a shared word per chunk;
//     the processor whose post brings icount to the bound runs
//     EXIT/ENTER, exactly once, because the posts sum to the bound
//     exactly once (worker.executed, worker.post).
//   - EXIT takes an explicit starting level. The paper's ENTER calls
//     EXIT(cur, loc_indexes) when an IF with an empty FALSE branch is
//     skipped; starting the walk at DEPTH(cur) would consult descriptor
//     entries of loops that were never entered. Starting at the level of
//     the skipped construct is the behavior the surrounding text
//     describes.
//   - Termination: the paper's instrumented program simply runs off the
//     end; we detect completion when the EXIT walk climbs past the
//     virtual root level and use it to stop searching processors.
//   - BAR_COUNT is a keyed table (loop ID x enclosing index vector)
//     rather than a preallocated array, because bounds may depend on
//     outer indexes and serial re-execution creates fresh instances of
//     inner parallel loops; entries are deleted once their barrier
//     completes.
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/descr"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/trace"
)

// TaskPool abstracts the high-level task pool so alternative parallel
// data structures (the paper's [24] note) can be compared; implemented by
// pool.Pool and pool.Distributed. The SEARCH loop itself belongs to the
// kernel (worker.search); a pool supplies only the sweep primitives —
// First starts a sweep and returns an opaque positive cursor (0: nothing
// advertises work), Next continues it (0: sweep exhausted), TryAdopt
// attempts adoption at a cursor. FanCursor is the cursor of the list of
// fan-out blocks, the last a sweep reaches.
type TaskPool interface {
	Append(pr machine.Proc, icb *pool.ICB)
	Delete(pr machine.Proc, icb *pool.ICB)
	First(pr machine.Proc) int
	Next(pr machine.Proc, i int) int
	TryAdopt(pr machine.Proc, i int, needs func(*pool.ICB) bool, block bool, st *pool.SearchStats) *pool.ICB
	FanCursor() int
	Empty() bool
}

// PoolKind selects the task-pool organization.
type PoolKind uint8

// Task-pool organizations.
const (
	// PoolPerLoop is the paper's pool: one parallel linked list per
	// innermost parallel loop plus the SW control word.
	PoolPerLoop PoolKind = iota
	// PoolSingleList shares one list among all loops (serial-bottleneck
	// baseline, experiment E5).
	PoolSingleList
	// PoolDistributed uses one list per processor with work stealing
	// (alternative data structure, experiment E9).
	PoolDistributed
)

// poolTable is the single source of truth for task-pool organizations:
// the display name of each kind and every spelling ParsePool accepts for
// it (primary spelling first). PoolNames, ParsePool and PoolKind.String
// all derive from it, so CLI help, benchsuite and loopschedd error
// payloads can never drift from what is actually parsed. The empty
// string additionally selects the default, PoolPerLoop.
var poolTable = []struct {
	kind      PoolKind
	display   string
	spellings []string
}{
	{PoolPerLoop, "per-loop", []string{"per-loop"}},
	{PoolSingleList, "single-list", []string{"single", "single-list"}},
	{PoolDistributed, "distributed", []string{"distributed"}},
}

func (k PoolKind) String() string {
	for _, e := range poolTable {
		if e.kind == k {
			return e.display
		}
	}
	return fmt.Sprintf("PoolKind(%d)", uint8(k))
}

// PoolNames lists every accepted ParsePool spelling, aliases included,
// derived from the same table ParsePool consults. (The empty string,
// which selects the default per-loop pool, is accepted too but not
// listed as a name.)
func PoolNames() []string {
	var names []string
	for _, e := range poolTable {
		names = append(names, e.spellings...)
	}
	return names
}

// ParsePool maps a task-pool name to its PoolKind. The empty string and
// "per-loop" select the paper's pool; "single" and "single-list" the
// shared-list baseline; "distributed" the work-stealing variant.
func ParsePool(name string) (PoolKind, error) {
	if name == "" {
		return PoolPerLoop, nil
	}
	for _, e := range poolTable {
		for _, s := range e.spellings {
			if s == name {
				return e.kind, nil
			}
		}
	}
	return 0, fmt.Errorf("core: unknown pool %q", name)
}

// Config configures one execution.
type Config struct {
	// Engine is the machine to run on (see the Engine seam in engine.go;
	// machine.Engine implementations satisfy it directly). Required.
	Engine Engine
	// Scheme is the low-level self-scheduling scheme. Defaults to SS.
	Scheme lowsched.Scheme
	// Pool selects the task-pool organization (default PoolPerLoop).
	Pool PoolKind
	// Sink, if non-nil, receives the kernel's events (trace.Event), one
	// call per scheduling point — activation, claim, chunk, post, switch,
	// barrier, completion — and per iteration start and end unless the
	// sink keeps scheduling kinds only (trace.SchedulingOnly). Diagnose
	// folds a sink's Dump (the flight-recorder Ring's tail) into its
	// report. Nil — the default — costs one pointer test per event site;
	// recording is host-side and charges no machine time either way.
	Sink trace.Sink
	// DispatchCost, if positive, adds a fixed Work charge to every SEARCH
	// that adopts an instance — modeling an operating-system dispatch on
	// every task grab (the "OS-involved scheduling" baseline of experiment
	// E6); a fan-out block's adoption is the scheduler's own and pays none.
	// Zero for the paper's self-scheduling.
	DispatchCost machine.Time
	// Interrupt, if non-nil, is the run's external stop request, shared
	// with the engine so its preemption points observe the same signal.
	// RunContext trips it when the context is cancelled; callers may also
	// trip it directly. A tripped run drains cooperatively and returns
	// the interrupt's cause instead of a report.
	Interrupt *machine.Interrupt
	// OnStart, if non-nil, is called once before the engine starts, with
	// a live probe of the execution. The probe is safe for concurrent
	// use from other goroutines for the whole run (and after it), which
	// is how run managers sample progress.
	OnStart func(Probe)
	// Failure selects the response to a failing iteration body: FailFast
	// (default — the failure trips the whole run) or Isolate (the
	// iteration is retried, then quarantined into Snapshot.Failures
	// while the run completes). See FailurePolicy.
	Failure FailurePolicy
	// Retry bounds the Isolate policy's per-iteration retry loop.
	Retry Retry
	// Inject, if non-nil, is a deterministic fault injector consulted
	// before every iteration body (see internal/fault). Nil — the only
	// production configuration — costs the hot path a single pointer
	// test and keeps runs bit-identical to a build without the harness.
	Inject *fault.Injector
	// Diagnostics enables live-instance tracking for Diagnose dumps:
	// every activated ICB is registered until its release protocol
	// drains, so a stuck run's watchdog can enumerate in-flight
	// instances (index/icount/pcount). Off by default — the activation
	// path stays lock-free without it.
	Diagnostics bool
	// Checkpoint, if non-nil, enables the run's checkpoint/resume seam
	// (see checkpoint.go): the run pauses at claim-quiescence when
	// requested (RequestCheckpoint, or automatically after AfterChunks
	// claims) and returns a *CheckpointedError carrying the snapshot;
	// with Restore set, the run resumes from a snapshot instead of
	// entering the program from the top. Enabling it also enables
	// live-instance tracking (the snapshot enumerates in-flight ICBs).
	Checkpoint *CheckpointConfig
	// ClaimBatch is the lease batch factor: a worker's claim acquires up
	// to this many successive chunks with one synchronization operation
	// (lowsched.Leaser) and keeps them; the drive loop's claim site takes
	// the next slice from the lease in hand before it performs another
	// operation, so everything else — pause, budget meter, body, post —
	// is the unit chunk's code. 0 and 1 claim one chunk per operation
	// (lowsched.Policy.Next). Values above 1 require a scheme whose policy
	// implements lowsched.Leaser (every cursor scheme does; static
	// pre-assignment schemes do not).
	ClaimBatch int
	// SWShards splits the per-loop pool's SW control word into this many
	// shard words, each charged as its own synchronization variable, so
	// sweep and locked-retest contention scales with the shard count
	// instead of the processor count. 0 and 1 select the paper's single
	// word. Pools without a sharded SW word (single-list, distributed)
	// ignore it.
	SWShards int
	// Budget, if non-nil, meters the run on the claim path (see
	// budget.go): the iteration budget is charged per chunk, the
	// engine-time budget is looked at before every chunk — a slice of a
	// held lease is a chunk — and exhaustion pauses the run at
	// claim-quiescence with a typed *BudgetExceededError. Nil (and the
	// zero Budget) costs the hot path one boolean test per claim and
	// keeps runs bit-identical to a build without the meter.
	Budget *Budget
}

// Probe is a live, concurrency-safe view into one execution. The counters
// it reports are monotone while the run progresses; sampling them charges
// no machine time (zero-cost observer, like Config.Sink).
type Probe interface {
	// LiveStats snapshots the executor counters.
	LiveStats() Snapshot
	// Completed reports whether the program has run to completion (the
	// EXIT walk climbed past the virtual root).
	Completed() bool
}

// Report is the result of one execution.
type Report struct {
	machine.RunReport
	// Stats are the executor's own counters (O1/O2/O3 accounting).
	Stats Snapshot
	// Scheme is the low-level scheme name.
	Scheme string
}

// Run executes the compiled program under the given configuration and
// returns the run report. It returns an error for configuration mistakes
// and for internal invariant violations (which would indicate a scheduler
// bug, and are checked after every run).
func Run(prog *descr.Program, cfg Config) (*Report, error) {
	return RunContext(context.Background(), prog, cfg)
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// or its deadline expires, the run's Interrupt trips, every processor
// drains out at its next preemption point (iteration boundary, SEARCH
// sweep, or busy-wait retry), and RunContext returns ctx's error. A
// cancelled run produces no report and skips the quiescence invariants
// (the pool is deliberately abandoned mid-flight).
//
// RunContext derives a fresh Plan per call; callers running one program
// repeatedly should build the Plan once and use RunPlanContext.
func RunContext(ctx context.Context, prog *descr.Program, cfg Config) (*Report, error) {
	pl, err := NewPlan(prog)
	if err != nil {
		return nil, err
	}
	return RunPlanContext(ctx, pl, cfg)
}

// executor is the instance layer: the mutable shared state of one run.
type executor struct {
	plan *Plan
	cfg  Config
	pool TaskPool
	// policy is the run's iteration-claiming rule: cfg.Scheme bound to
	// the machine size once (lowsched.Bind), so the kernel's hot path
	// performs no per-claim scheme dispatch or interface conversion.
	policy lowsched.Policy

	// done is set when the EXIT walk climbs past the virtual root: the
	// program is complete and searching processors may stop. This is
	// harness bookkeeping (the paper's instrumented program just runs off
	// its end), so it is a plain atomic, not a costed SyncVar.
	done atomic.Bool
	// cause records the run's first internal stop-cause (an iteration
	// body panic). Together with the external cfg.Interrupt it forms the
	// unified stop-cause: every blocking loop in the executor watches
	// aborted() so a failed or cancelled run drains out instead of
	// hanging (a dead processor can never post dependences or drain its
	// pcount hold).
	cause atomic.Pointer[stopCause]
	// ckptReq is the generic pause request: workers drain out at claim
	// boundaries when it is set. A checkpoint request (checkpoint.go)
	// and a budget exhaustion (budget.go) both ride it; budHit below
	// discriminates the cause once the engine has drained.
	ckptReq atomic.Bool
	// budIters is the remaining iteration budget, charged per claim;
	// only consulted when budMeter is set. budHit marks budget
	// exhaustion as the pause reason.
	budIters atomic.Int64
	budHit   atomic.Bool
	// claims counts chunk claims globally when ckptAfter is positive,
	// realizing the deterministic claim-k checkpoint trigger.
	claims atomic.Int64

	// inj and retry are cfg.Inject and cfg.Retry hoisted onto the
	// executor so the kernel's hot path reads one flat field; ckptAfter
	// and restore hoist the checkpoint trigger and the resume snapshot
	// the same way; batch and leaser hoist ClaimBatch: leaser is the
	// policy as a lowsched.Leaser when batch > 1 and nil otherwise, which
	// is how the claim site chooses its synchronization operation.
	inj       *fault.Injector
	retry     Retry
	ckptAfter int64
	restore   *RunSnapshot
	batch     int
	leaser    lowsched.Leaser
	// nprocs is the machine size P as the tail rule compares it with an
	// instance's remaining chunks (worker.tail) and SEARCH's fan-out gate
	// with the live instances.
	nprocs int64
	// fanCursor is the pool's fan-out list cursor: SEARCH passes it by
	// while P·B instances are live (fanout.go).
	fanCursor int
	// stride is the engine's clock stride (clockStride), asked once.
	stride int
	// inline is set when the run lets a worker run a tiny instance where it
	// activates it (inline.go): the engine allows it (inlines), the
	// per-leaf means its rule reads are kept (stride above 1), the sink
	// records no iterations — such a sink records on the body's clock, so
	// τ̂ would price the recorder, and the published schedule is the one it
	// is there to record — and the run is no baseline that prices every
	// instance as a task: a static pre-assignment, or an OS dispatch per
	// adoption (DispatchCost).
	inline bool
	// budMeter and budTime hoist cfg.Budget the same way: budMeter is
	// the one test the claim path pays when no iteration budget is set,
	// budTime the engine-time ceiling (0: none).
	budMeter bool
	budTime  machine.Time
	// pend records claimed-but-unexecuted iteration ranges — the slices a
	// pausing worker still had in hand, the rest of a chunk the iteration
	// budget cut — keyed by instance; capture folds them into the
	// snapshot. Only ever written under a pause (cold path).
	pendMu sync.Mutex
	pend   map[*pool.ICB][]lowsched.Assignment
	// failures is the Isolate policy's quarantine log.
	failures failureLog
	// insts tracks live ICBs for Diagnose when cfg.Diagnostics is set;
	// nil otherwise (the common case — no tracking cost).
	instMu sync.Mutex
	insts  map[*pool.ICB]struct{}

	// BAR_COUNT table: barrier counters keyed by enclosing loop instance.
	barMu sync.Mutex
	bars  map[string]*machine.SyncVar

	// stats is the run's sharded counter spine; workers write their own
	// shard, probes merge on read.
	stats Stats
	// workers is the worker layer: one per processor, indexed by
	// machine.Proc.ID(). The structs are padded so adjacent workers do
	// not share cache lines.
	workers []worker
	// stopFn and abortFn are ex.stop and ex.aborted bound once: method
	// values allocate a closure at every binding site, so the workers
	// copy these instead of re-binding per run (the activation path's
	// allocation pin in alloc_test.go counts every one).
	stopFn, abortFn func() bool
	// locs is the shared backing array of the workers' loc_indexes
	// vectors, one cache-line-padded stride per worker.
	locs      []int64
	locStride int
	// means is the backing array of the workers' per-leaf means, one
	// padded stride of meanStride entries per worker, as locs; nil at
	// stride 1.
	means      []means
	meanStride int

	// The claim path and the SEARCH sweep read fields above on every
	// claim (done, cause, ckptReq, policy, pool). The count below is
	// written by every processor as instances come and go, so it sits
	// between whole-line pads: whatever the executor's alignment, its
	// writes invalidate none of those lines (TestExecutorLayout, DESIGN
	// §17).
	_ linePad
	// live counts activated-but-unreleased instances, for the post-run
	// quiescence check and SEARCH's fan-out gate: written at every
	// activation and every release.
	live atomic.Int64
	_    linePad
}

// linePad is one cache line of padding. A word with a whole pad on each
// side shares its line with no other field, wherever the line boundaries
// fall.
type linePad [64]byte

func newExecutor(pl *Plan, cfg Config, policy lowsched.Policy) *executor {
	nprocs := cfg.Engine.NumProcs()
	ex := &executor{
		plan:    pl,
		cfg:     cfg,
		policy:  policy,
		bars:    map[string]*machine.SyncVar{},
		stats:   newStats(nprocs),
		workers: make([]worker, nprocs),
		inj:     cfg.Inject,
		retry:   cfg.Retry,
		nprocs:  int64(nprocs),
		stride:  clockStride(cfg.Engine),
	}
	if cfg.Checkpoint != nil {
		ex.ckptAfter = cfg.Checkpoint.AfterChunks
	}
	if b := cfg.Budget; b != nil {
		if b.Iterations > 0 {
			ex.budMeter = true
			ex.budIters.Store(b.Iterations)
		}
		ex.budTime = b.Time
	}
	if cfg.Diagnostics || cfg.Checkpoint != nil {
		// Checkpointing needs the live-instance set too: the snapshot is
		// built by enumerating in-flight ICBs.
		ex.insts = map[*pool.ICB]struct{}{}
	}
	ex.batch = cfg.ClaimBatch
	if ex.batch < 1 {
		ex.batch = 1
	}
	if ex.batch > 1 {
		// Validated by RunPlanContext before the executor is built.
		ex.leaser = policy.(lowsched.Leaser)
	}
	ex.stopFn = ex.stop
	ex.abortFn = ex.aborted
	// One padded stride per worker: adjacent workers' loc vectors stay on
	// separate cache lines while the whole layer costs one allocation.
	ex.locStride = (pl.maxDepth + 8) / 8 * 8
	ex.locs = make([]int64, nprocs*ex.locStride)
	_, schedOnly := cfg.Sink.(trace.SchedulingOnly)
	ex.inline = ex.stride > 1 && inlines(cfg.Engine) && (cfg.Sink == nil || schedOnly) &&
		!lowsched.IsStatic(cfg.Scheme) && cfg.DispatchCost == 0
	if ex.stride > 1 {
		// A 32-byte entry per leaf, and a whole line or more per worker
		// with at least one spare entry at its end.
		ex.meanStride = (len(pl.leaves) + 2) / 2 * 2
		ex.means = make([]means, nprocs*ex.meanStride)
	}
	prog := pl.prog
	shards := cfg.SWShards
	if shards < 1 {
		shards = 1
	}
	switch cfg.Pool {
	case PoolSingleList:
		ex.pool = pool.NewSingleList(prog.M)
	case PoolDistributed:
		ex.pool = pool.NewDistributed(prog.M, nprocs)
	default:
		if shards > 1 {
			ex.pool = pool.NewSharded(prog.M, shards)
		} else {
			ex.pool = pool.New(prog.M)
		}
	}
	ex.fanCursor = ex.pool.FanCursor()
	return ex
}

// addPending records a pausing worker's claimed-but-unexecuted range (see
// worker.pause, the budget cut in worker.run, and capture).
func (ex *executor) addPending(icb *pool.ICB, a lowsched.Assignment) {
	ex.pendMu.Lock()
	if ex.pend == nil {
		ex.pend = map[*pool.ICB][]lowsched.Assignment{}
	}
	ex.pend[icb] = append(ex.pend[icb], a)
	ex.pendMu.Unlock()
}

// pendingOf returns the recorded pending ranges of icb, sorted by Lo.
func (ex *executor) pendingOf(icb *pool.ICB) []lowsched.Assignment {
	ex.pendMu.Lock()
	rs := ex.pend[icb]
	ex.pendMu.Unlock()
	sort.Slice(rs, func(i, k int) bool { return rs[i].Lo < rs[k].Lo })
	return rs
}

// adaptRuntime is the measurement surface handed to adaptive policies
// (lowsched.RuntimeBinder): a zero-allocation single-pass read of
// exactly the counters the eq. (2) fitter consumes, plus an event sink
// recording fits and switches into the spine. Events land on shard 0 —
// off the ownership convention, but they are rare Init-path writes
// through atomics, far from any hot cache line.
func (ex *executor) adaptRuntime() lowsched.Runtime {
	ids := []obs.ID{cO1Time, cO2Time, cO3Time, cBodyTime,
		cIterations, cChunks, cSearches, cInstances}
	sh := ex.stats.shard(0)
	return lowsched.Runtime{
		Sample: func() lowsched.RuntimeSample {
			var v [8]int64
			ex.stats.spine.Sum(ids, v[:])
			return lowsched.RuntimeSample{
				O1Time: v[0], O2Time: v[1], O3Time: v[2], BodyTime: v[3],
				Iterations: v[4], Chunks: v[5], Searches: v[6], Instances: v[7],
			}
		},
		Note: func(ev lowsched.AdaptEvent) {
			switch ev {
			case lowsched.AdaptFit:
				sh.Inc(cAdaptFits)
			case lowsched.AdaptSwitch:
				sh.Inc(cAdaptSwitches)
			}
		},
	}
}

// runWorker is the engine entry point: bind processor pr to its worker
// struct and run the scheduling loop.
func (ex *executor) runWorker(pr machine.Proc) {
	w := &ex.workers[pr.ID()]
	w.init(ex, pr)
	w.run()
}

// stopCause is an internal stop-cause (today: a body panic); external
// causes travel through cfg.Interrupt.
type stopCause struct {
	err error
}

// trip records an internal stop-cause; the first cause wins.
func (ex *executor) trip(err error) {
	ex.cause.CompareAndSwap(nil, &stopCause{err: err})
}

// aborted reports whether the run must drain out without completing:
// an iteration body failed, or an external interrupt (cancellation,
// deadline) tripped. This is the unified stop check consulted by every
// preemption point — iteration boundaries, SEARCH sweeps, the Doacross
// dependence wait and the pcount-release spin.
func (ex *executor) aborted() bool {
	return ex.cause.Load() != nil || ex.cfg.Interrupt.Tripped()
}

// stop reports whether workers should give up searching: program
// complete, a body failed, the run was interrupted, or a checkpoint
// pause was requested (the SEARCH sweep is a claim boundary).
func (ex *executor) stop() bool {
	return ex.done.Load() || ex.aborted() || ex.ckptReq.Load()
}

// LiveStats implements Probe.
func (ex *executor) LiveStats() Snapshot {
	sn := ex.stats.Snap()
	sn.Failures = ex.failures.report()
	return sn
}

// Completed implements Probe.
func (ex *executor) Completed() bool { return ex.done.Load() }

// trackICB registers a freshly activated instance for Diagnose; no-op
// unless Config.Diagnostics enabled tracking.
func (ex *executor) trackICB(icb *pool.ICB) {
	if ex.insts == nil {
		return
	}
	ex.instMu.Lock()
	ex.insts[icb] = struct{}{}
	ex.instMu.Unlock()
}

// untrackICB deregisters an instance whose release protocol drained
// (the block is about to be recycled; its fields are no longer stable).
func (ex *executor) untrackICB(icb *pool.ICB) {
	if ex.insts == nil {
		return
	}
	ex.instMu.Lock()
	delete(ex.insts, icb)
	ex.instMu.Unlock()
}

// Diagnoser is the diagnostic extension of Probe: a renderable snapshot
// of the run's scheduling state, designed for the stuck-run watchdog.
// The executor implements it; sampling is race-safe and charges no
// machine time.
type Diagnoser interface {
	Diagnose() string
}

// Diagnose renders the run's scheduling state: completion flags, the
// pool's control word and list occupancy, open BAR_COUNT entries, every
// live instance's index/icount/pcount (when Config.Diagnostics enabled
// tracking), and each processor's claim history: chunk and iteration
// counts and last-claim, the engine time of its latest timed claim (every
// claim on the virtual engine; on the real one an exact hold's first,
// sampled and tail claims) or, on the real engine, of its latest adoption
// if that came later: a hold read at its edges alone times no claim
// (DESIGN §17). This is the dump a watchdog emits when a run stops
// claiming chunks.
func (ex *executor) Diagnose() string {
	var b strings.Builder
	sn := ex.LiveStats()
	fmt.Fprintf(&b, "core: done=%v aborted=%v live=%d iterations=%d chunks=%d instances=%d searches=%d failed=%d\n",
		ex.done.Load(), ex.aborted(), ex.live.Load(),
		sn.Iterations, sn.Chunks, sn.Instances, sn.Searches, sn.FailedIterations)
	if d, ok := ex.pool.(interface{ DumpState() string }); ok {
		b.WriteString(d.DumpState())
	}
	ex.barMu.Lock()
	if n := len(ex.bars); n > 0 {
		fmt.Fprintf(&b, "bar_count: %d open entr%s\n", n, plural(n, "y", "ies"))
	}
	ex.barMu.Unlock()
	if ex.insts == nil {
		b.WriteString("instances: live-ICB tracking off (enable Config.Diagnostics)\n")
	} else {
		ex.instMu.Lock()
		icbs := make([]*pool.ICB, 0, len(ex.insts))
		for icb := range ex.insts {
			icbs = append(icbs, icb)
		}
		ex.instMu.Unlock()
		sort.Slice(icbs, func(i, k int) bool {
			a, c := icbs[i], icbs[k]
			if a.Loop != c.Loop {
				return a.Loop < c.Loop
			}
			return a.IVec.String() < c.IVec.String()
		})
		fmt.Fprintf(&b, "instances: %d live (icount lags executed work by the holders' unposted iterations, per proc below)\n", len(icbs))
		for _, icb := range icbs {
			fmt.Fprintf(&b, "  %v\n", icb)
		}
	}
	for i := range ex.workers {
		sh := ex.stats.shard(i)
		// posted is read first: the executed-unposted figure may then run
		// a chunk ahead of the instant, never negative.
		posted := ex.workers[i].posted.Load()
		iters := sh.Get(cIterations)
		fmt.Fprintf(&b, "proc %d: chunks=%d searches=%d iters=%d unposted=%d last-claim=%d\n",
			i, sh.Get(cChunks), sh.Get(cSearches), iters,
			iters+sh.Get(cFailedIterations)-posted, ex.workers[i].lastClaim.Load())
	}
	if d, ok := ex.policy.(interface{ DiagnoseString() string }); ok {
		b.WriteString(d.DiagnoseString())
	}
	if d, ok := ex.cfg.Sink.(interface{ Dump(int) string }); ok {
		// The flight-recorder tail: the last scheduler events before the
		// run went quiet, merged across processors.
		b.WriteString(d.Dump(diagnoseTailEvents))
	}
	return b.String()
}

// diagnoseTailEvents is how many flight-recorder events a Diagnose dump
// ships (merged across processors, newest last).
const diagnoseTailEvents = 32

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func (ex *executor) checkQuiescent() error {
	if c := ex.cause.Load(); c != nil {
		return c.err
	}
	if !ex.done.Load() {
		return fmt.Errorf("core: run finished without program completion")
	}
	if n := ex.live.Load(); n != 0 {
		return fmt.Errorf("core: %d instances still live after completion", n)
	}
	if !ex.pool.Empty() {
		return fmt.Errorf("core: task pool not empty after completion")
	}
	ex.barMu.Lock()
	defer ex.barMu.Unlock()
	if len(ex.bars) != 0 {
		return fmt.Errorf("core: %d BAR_COUNT entries left after completion", len(ex.bars))
	}
	return nil
}

// barInc increments the BAR_COUNT of the instance of the enclosing
// parallel loop at level lvl identified by loc[2..lvl-1], and reports
// whether the barrier is complete (count reached bound). Completed
// entries are removed from the table. The key is rendered into the
// caller's scratch buffer; a string is materialized only when a new
// table entry is created.
func (ex *executor) barInc(pr machine.Proc, buf *[]byte, loopID int, loc []int64, lvl int, bound int64) bool {
	b := strconv.AppendInt((*buf)[:0], int64(loopID), 10)
	for _, v := range loc[2:lvl] {
		b = append(b, ':')
		b = strconv.AppendInt(b, v, 10)
	}
	*buf = b
	ex.barMu.Lock()
	ctr, ok := ex.bars[string(b)]
	if !ok {
		ctr = machine.NewSyncVar("BAR_COUNT", 0)
		ex.bars[string(b)] = ctr
	}
	ex.barMu.Unlock()
	n := ctr.FetchInc(pr) + 1
	if n > bound {
		panic(fmt.Sprintf("core: BAR_COUNT %s exceeded bound %d", string(b), bound))
	}
	if n == bound {
		ex.barMu.Lock()
		delete(ex.bars, string(b))
		ex.barMu.Unlock()
		return true
	}
	return false
}

// userIVec exposes the real enclosing indexes loc[2..upto] as the index
// vector seen by bounds, conditions and bodies. Callers must treat the
// returned slice as read-only and must not retain it.
func userIVec(loc []int64, upto int) loopir.IVec {
	if upto < 2 {
		return nil // virtual root: no real enclosing loops
	}
	return loopir.IVec(loc[2 : upto+1])
}
