package repro

import (
	"errors"
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/flagtab"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/vmachine"
)

// Options configure one run. The struct is also the run-option table:
// a field's tags declare its wire name (json — the daemon decodes a
// request's "options" straight into this struct), its loopsched flag
// (flag; BindFlags registers it), the default an unset value selects
// (default) and its one-line help, and the README reference table is
// generated from them. Fields tagged json:"-" are library-only: they
// need the caller's process (a callback, a trace, a diagnostic dump).
type Options struct {
	// Procs is the processor count (default 4).
	Procs int `json:"procs,omitempty" flag:"procs" default:"4" help:"processor count"`
	// Scheme is the low-level self-scheduling policy specification,
	// e.g. "ss", "css:K", "gss", "tss:F:L", "fac2", "af:CV", "tfss",
	// or "auto" (the adaptive policy). KnownSchemes lists every
	// accepted form; the default is "ss".
	Scheme string `json:"scheme,omitempty" flag:"scheme" default:"ss" help:"low-level self-scheduling scheme, e.g. ss, css:K, gss, auto (loopsched -list-schemes)"`
	// Engine selects the substrate (default EngineVirtual).
	Engine EngineKind `json:"engine,omitempty" flag:"engine" default:"virtual" help:"engine: virtual, real, real-spin"`
	// AccessCost is the virtual machine's synchronization access cost
	// (default 10; ignored by real engines).
	AccessCost int64 `json:"access_cost,omitempty" flag:"access" default:"10" help:"virtual machine synchronization access cost"`
	// Combining enables the virtual machine's combining network for
	// fetch-and-add hot spots.
	Combining bool `json:"combining,omitempty" flag:"combining" help:"enable combining fetch-and-add"`
	// RemotePenalty is the virtual machine's extra cost for accessing a
	// synchronization variable homed on another processor (NUMA model).
	RemotePenalty int64 `json:"remote_penalty,omitempty" flag:"remote" help:"NUMA remote-access penalty (virtual engine)"`
	// Pool selects the task-pool organization: "per-loop" (the paper's
	// m parallel lists + SW), "single" / "single-list" (one shared
	// list), or "distributed" (per-processor lists with work stealing).
	// KnownPools lists every accepted spelling. The empty string picks
	// the engine's pool: "per-loop" on the virtual engine, which
	// reproduces the paper, and "distributed" on the real engines, where
	// a processor then runs the instances its own claims activate
	// instead of sharing one list, lock and SW word with every other
	// (SWShards above 1 keeps "per-loop": it names that pool's SW word).
	Pool string `json:"pool,omitempty" flag:"pool" help:"task pool: per-loop, single, single-list, distributed (unset: per-loop on the virtual engine, distributed on real, real-spin)"`
	// DispatchCost models an OS dispatch on every task grab (baseline).
	DispatchCost int64 `json:"dispatch_cost,omitempty" flag:"dispatch" help:"per-task OS dispatch cost (baseline)"`
	// CollectTrace records an event trace into Result.Trace.
	CollectTrace bool `json:"-"`
	// Verify re-executes the program sequentially after the run and
	// checks exactly-once execution and macro-dataflow precedence
	// against the trace (implies CollectTrace). Note that verification
	// re-runs iteration bodies, so bodies must tolerate re-execution.
	Verify bool `json:"verify,omitempty" flag:"verify" help:"verify the run against the sequential reference"`
	// Observe, if non-nil, is called once when the run starts, with a
	// live probe of the execution. The probe may be sampled concurrently
	// from other goroutines for the whole run; run managers use it to
	// stream progress (iterations grabbed, instances completed, live
	// scheduling efficiency) while the run is in flight.
	Observe func(Live) `json:"-"`
	// Failure selects the partial-failure policy: "" or "failfast" /
	// "fail-fast" (first body failure aborts the run) or "isolate"
	// (failing iterations are quarantined and reported in
	// Result.Stats.Failures while the rest of the nest completes).
	// KnownFailurePolicies lists every accepted spelling. Verify cannot
	// observe exactly-once execution for quarantined iterations, so a
	// verifying run should not expect body failures.
	Failure string `json:"failure,omitempty" flag:"failure" default:"failfast" help:"partial-failure policy: failfast, isolate"`
	// RetryAttempts is the number of extra attempts the isolate policy
	// gives a failing iteration before quarantining it (default 0: no
	// retry).
	RetryAttempts int `json:"retry_attempts,omitempty" flag:"retry-attempts" help:"extra attempts the isolate policy gives a failing iteration"`
	// RetryBackoff is the idle time (engine cost units) charged before
	// the first retry; it doubles on each subsequent attempt.
	RetryBackoff int64 `json:"retry_backoff,omitempty" flag:"retry-backoff" help:"idle time charged before the first retry, doubling per attempt"`
	// Diagnostics enables live-instance tracking so the probe handed to
	// Observe can render a scheduling-state dump (core.Diagnoser); run
	// managers use it for stuck-run watchdog reports. It also attaches a
	// flight recorder of each processor's last 64 scheduling events,
	// whose merged tail ends the dump; the recorder costs no engine time,
	// so virtual-time results are unchanged. It adds a small host-side
	// bookkeeping cost per instance activation.
	Diagnostics bool `json:"-"`
	// CheckpointAfter, when positive, pauses the run at a checkpoint
	// after that many chunk claims (a deterministic trigger on the
	// virtual engine). Like Resume it needs a run that can pause — a
	// cursor scheme, no Doacross or manual-post loop — which every such
	// run also does on RequestCheckpoint (assert Observe's probe to
	// core.Checkpointer); Run rejects others with ErrNotCheckpointable.
	CheckpointAfter int64 `json:"checkpoint_after,omitempty" flag:"checkpoint-after" help:"pause the run after this many chunk claims and emit a checkpoint"`
	// Resume restores a checkpoint captured from the same program (by
	// fingerprint) before the run starts; the resumed run continues to
	// completion, with cumulative statistics. Resume cannot be combined
	// with Verify: the trace cannot observe pre-checkpoint iterations.
	Resume *Checkpoint `json:"resume,omitempty" help:"checkpoint to resume from (loopsched: -resume FILE)"`
	// ClaimBatch, when greater than 1, makes each low-level claim lease a
	// run of up to that many successive chunks with a single indivisible
	// operation, amortizing the per-claim overhead (the O1 of eq. 2)
	// across the batch; the lease is sliced locally without further
	// synchronization accesses. Requires a cursor (dynamic) scheme. Zero
	// or 1 is the paper's one-chunk-per-claim protocol, unchanged.
	ClaimBatch int `json:"claim_batch,omitempty" flag:"claim-batch" help:"lease up to this many chunks per claim (0/1 = one chunk per claim)"`
	// SWShards, when greater than 1, splits the task pool's SW control
	// word into that many shard words, each charged as its own
	// synchronization variable, so pool sweeps and appends to different
	// shards stop contending on one memory module. Applies to the
	// per-loop pool only; zero or 1 is the paper's single control word.
	SWShards int `json:"sw_shards,omitempty" flag:"sw-shards" help:"split the pool's SW control word into this many shard words (0/1 = single word)"`
	// BudgetIterations, when positive, caps the iterations the run may
	// execute: the run pauses at exactly that count (on every engine,
	// scheme and claim batch) and returns a *BudgetExceededError instead
	// of a Result, carrying a resumable Checkpoint when the run can pause
	// (see CheckpointAfter). Zero is unmetered, with no cost on the claim path.
	BudgetIterations int64 `json:"budget_iterations,omitempty" flag:"budget-iterations" help:"stop after exactly this many iterations with a budget-exceeded error (0 = unmetered)"`
	// BudgetTime, when positive, is an engine-time ceiling (virtual
	// units, or nanoseconds on the real engines) checked at claim
	// boundaries: once reached, no further chunk starts and the run
	// returns a *BudgetExceededError. A started chunk still completes, so
	// the overshoot is bounded by one chunk per processor at any
	// ClaimBatch (the unstarted slices of a lease stay pending).
	BudgetTime int64 `json:"budget_time,omitempty" flag:"budget-time" help:"engine-time ceiling checked at claim boundaries (0 = none)"`
	// CombineClaims serves the per-instance claim hot spots (the ICB's
	// Index and ICount) with the virtual machine's software-combining
	// window (vmachine.CombineClaims): concurrent accesses that arrive
	// while one is in flight join its window instead of queueing
	// behind it. The claim on Index is the per-chunk access it
	// serves; ICount takes one post per hold (and one per chunk near an
	// instance's tail), so it is hot only on instances of a few
	// iterations. Ignored by the real engines and subsumed by
	// Options.Combining.
	CombineClaims bool `json:"combine_claims,omitempty" flag:"combine-claims" help:"serve the per-instance claim hot spots with software combining (virtual engine)"`
}

// BindFlags registers one flag on fs for every Options field that
// declares one, storing into o. A field's current value in o is its
// flag default; a zero field takes the table's default, so a caller
// presets only where it differs (loopsched: Procs 8).
func BindFlags(fs *flag.FlagSet, o *Options) { flagtab.Bind(fs, o) }

// Typed option errors. Every configuration mistake Run/RunContext can
// reject resolves, via errors.Is, to exactly one of these sentinels, so
// callers (CLIs, services) can map them to help text without string
// matching.
var (
	// ErrBadProcs reports an Options.Procs above MaxProcs.
	ErrBadProcs = errors.New("repro: too many processors")
	// ErrUnknownEngine reports an Options.Engine outside KnownEngines.
	ErrUnknownEngine = errors.New("repro: unknown engine")
	// ErrUnknownPool reports an Options.Pool outside KnownPools.
	ErrUnknownPool = errors.New("repro: unknown pool")
	// ErrBadScheme reports an Options.Scheme that does not parse (unknown
	// name or invalid parameters).
	ErrBadScheme = errors.New("repro: bad scheme")
	// ErrBadFailure reports an Options.Failure outside
	// KnownFailurePolicies.
	ErrBadFailure = errors.New("repro: unknown failure policy")
	// ErrBadRetry reports a negative Options.RetryAttempts or
	// Options.RetryBackoff.
	ErrBadRetry = errors.New("repro: negative retry configuration")
	// ErrBadClaim reports an invalid claim-path configuration: a negative
	// Options.ClaimBatch or Options.SWShards, or a ClaimBatch above 1
	// combined with a static pre-assignment scheme (leases need a cursor).
	ErrBadClaim = errors.New("repro: bad claim configuration")
	// ErrBadBudget (declared in budget.go) reports a negative
	// Options.BudgetIterations or Options.BudgetTime.
)

// MaxProcs is the largest accepted Options.Procs — 256 times the largest
// P any experiment here uses. Every engine holds a goroutine and a stack
// per processor for the whole run, so an unbounded count from a flag or
// a request exhausts memory before anything is scheduled.
const MaxProcs = 4096

// KnownEngines lists the accepted Options.Engine values.
func KnownEngines() []string {
	return []string{string(EngineVirtual), string(EngineReal), string(EngineRealSpin)}
}

// KnownPools lists the accepted Options.Pool values (the empty string
// picks the engine's pool: "per-loop" on the virtual engine,
// "distributed" on the real ones; Options.ResolvedPool names it).
func KnownPools() []string { return core.PoolNames() }

// KnownFailurePolicies lists the accepted Options.Failure values (the
// empty string defaults to fail-fast).
func KnownFailurePolicies() []string { return core.FailurePolicyNames() }

// KnownSchemes lists the accepted Options.Scheme specifications,
// derived from the lowsched scheme registry: every registered scheme's
// canonical forms first (both arities for optional-parameter schemes,
// uppercase letters standing for integer parameters), alias forms
// after. The displayed list and the parser read the same registry, so
// they cannot drift.
func KnownSchemes() []string { return lowsched.Specs() }

// Validate checks the options without running anything. It returns nil
// or an error matching one of the sentinel errors above.
func (o Options) Validate() error {
	_, err := o.resolve()
	return err
}

// ResolvedPool names the task pool a run under these options uses: Pool
// when it is set, otherwise the engine's (see Options.Pool).
func (o Options) ResolvedPool() (string, error) {
	r, err := o.resolve()
	if err != nil {
		return "", err
	}
	return r.pool.String(), nil
}

// resolved is an Options value after validation: defaults applied,
// strings parsed, ready to build an execution.
type resolved struct {
	procs    int
	scheme   lowsched.Scheme
	pool     core.PoolKind
	failure  core.FailurePolicy
	retry    core.Retry
	mkEngine func(*machine.Interrupt) machine.Engine
}

func (o Options) resolve() (resolved, error) {
	r := resolved{procs: o.Procs}
	if r.procs <= 0 {
		r.procs = 4
	}
	if r.procs > MaxProcs {
		return r, fmt.Errorf("%w: %d (at most %d)", ErrBadProcs, o.Procs, MaxProcs)
	}

	spec := o.Scheme
	if spec == "" {
		spec = "ss"
	}
	scheme, err := lowsched.Parse(spec)
	if err != nil {
		return r, fmt.Errorf("%w: %q", ErrBadScheme, o.Scheme)
	}
	r.scheme = scheme

	switch o.Pool {
	case "":
		r.pool = core.PoolPerLoop
		if o.Engine != "" && o.Engine != EngineVirtual && o.SWShards <= 1 {
			r.pool = core.PoolDistributed
		}
	default:
		kind, err := core.ParsePool(o.Pool)
		if err != nil {
			return r, fmt.Errorf("%w: %q", ErrUnknownPool, o.Pool)
		}
		r.pool = kind
	}

	failure, err := core.ParseFailurePolicy(o.Failure)
	if err != nil {
		return r, fmt.Errorf("%w: %q", ErrBadFailure, o.Failure)
	}
	r.failure = failure
	if o.RetryAttempts < 0 || o.RetryBackoff < 0 {
		return r, fmt.Errorf("%w: attempts %d, backoff %d",
			ErrBadRetry, o.RetryAttempts, o.RetryBackoff)
	}
	r.retry = core.Retry{Attempts: o.RetryAttempts, Backoff: o.RetryBackoff}

	if o.ClaimBatch < 0 || o.SWShards < 0 {
		return r, fmt.Errorf("%w: claim batch %d, SW shards %d",
			ErrBadClaim, o.ClaimBatch, o.SWShards)
	}
	if o.ClaimBatch > 1 && lowsched.IsStatic(scheme) {
		return r, fmt.Errorf("%w: claim batch %d requires a cursor scheme (static scheme %q pre-assigns iterations)",
			ErrBadClaim, o.ClaimBatch, scheme.Name())
	}
	if o.BudgetIterations < 0 || o.BudgetTime < 0 {
		return r, fmt.Errorf("%w: iterations %d, time %d",
			ErrBadBudget, o.BudgetIterations, o.BudgetTime)
	}

	p := r.procs
	switch o.Engine {
	case "", EngineVirtual:
		combining := vmachine.CombineNone
		if o.Combining {
			combining = vmachine.CombineAll
		} else if o.CombineClaims {
			combining = vmachine.CombineClaims
		}
		r.mkEngine = func(intr *machine.Interrupt) machine.Engine {
			return vmachine.New(vmachine.Config{
				P:             p,
				AccessCost:    o.AccessCost,
				Combining:     combining,
				RemotePenalty: o.RemotePenalty,
				Interrupt:     intr,
			})
		}
	case EngineReal:
		r.mkEngine = func(intr *machine.Interrupt) machine.Engine {
			return machine.NewReal(machine.RealConfig{P: p, Mode: machine.WorkCount, Interrupt: intr})
		}
	case EngineRealSpin:
		r.mkEngine = func(intr *machine.Interrupt) machine.Engine {
			return machine.NewReal(machine.RealConfig{P: p, Mode: machine.WorkSpin, Interrupt: intr})
		}
	default:
		return r, fmt.Errorf("%w: %q", ErrUnknownEngine, o.Engine)
	}
	return r, nil
}
