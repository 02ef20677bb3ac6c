// Package vmachine implements the machine.Engine interface on top of the
// deterministic discrete-event simulator in package des.
//
// It models a shared-memory multiprocessor at the fidelity the paper's
// Section IV analysis requires:
//
//   - Each processor is a des.Process with its own virtual clock.
//   - Each synchronization variable lives in a memory module; an access
//     occupies the module for AccessCost time units, and concurrent
//     accesses to the same variable serialize (hot-spot contention).
//     With Combining enabled, accesses pipeline through a combining
//     network (as on Cedar, the RP3 and the NYU Ultracomputer) and do not
//     serialize.
//   - Spin-wait retries consume SpinCost units each, so busy waiting has a
//     cost but always lets virtual time progress.
//
// Because execution is sequential under des, runs are fully deterministic:
// scheduling decisions, virtual makespans and utilization figures are
// exactly reproducible, which is what lets the experiments validate the
// paper's utilization equations quantitatively.
package vmachine

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/machine"
)

// Config configures a virtual multiprocessor.
type Config struct {
	// P is the number of processors. Must be >= 1.
	P int
	// AccessCost is the time one synchronization-variable access occupies
	// its memory module. Defaults to 10 if zero. This is the dominant
	// component of the paper's per-iteration overhead O1.
	AccessCost machine.Time
	// Combining, if true, lets simultaneous accesses to the same variable
	// proceed without serialization (hardware combining network).
	Combining bool
	// SpinCost is the cost of one busy-wait retry. Defaults to AccessCost
	// if zero (a retry re-reads the variable).
	SpinCost machine.Time
	// RemotePenalty is the extra cost of accessing a synchronization
	// variable homed on another processor's memory module (NUMA-style
	// hierarchy; the paper's Section I notes memory-hierarchy placement
	// makes access times "vary widely"). A variable's home is the first
	// processor to access it. Zero models flat shared memory.
	RemotePenalty machine.Time
	// Interrupt, if non-nil, is the run's external stop request. The
	// engine's preemption point is Work/Idle: once the interrupt trips,
	// body work no longer advances virtual time, so the cooperative
	// drain of a cancelled run does not inflate the (partial) makespan.
	// Synchronization accesses and spins keep their normal costs — they
	// are what keeps the drain's busy-wait loops live and deterministic.
	Interrupt *machine.Interrupt
}

func (c Config) withDefaults() Config {
	if c.P <= 0 {
		panic(fmt.Sprintf("vmachine: invalid processor count %d", c.P))
	}
	if c.AccessCost <= 0 {
		c.AccessCost = 10
	}
	if c.SpinCost <= 0 {
		c.SpinCost = c.AccessCost
	}
	return c
}

// varKey identifies one lifetime of a synchronization variable. Keying
// per-variable engine state by {pointer, generation} makes a recycled
// variable (SyncVar.Reset, the ICB freelist) indistinguishable from a
// freshly allocated one: its module availability, NUMA home and
// contention entry all start over, so instance reuse cannot perturb the
// simulated schedule.
type varKey struct {
	sv  *machine.SyncVar
	gen uint64
}

// varState is everything the engine keeps about one variable lifetime:
// its contention profile, when its memory module is next free, and the
// processor it is homed on (-1 until first touched under RemotePenalty).
type varState struct {
	VarStat
	avail machine.Time
	home  int
}

// Engine is a virtual multiprocessor. It implements machine.Engine.
// An Engine is single-use: create a new one for each Run.
type Engine struct {
	cfg   Config
	sim   *des.Sim
	vars  map[varKey]*varState
	procs []*vproc
}

// VarStat is the contention profile of one synchronization variable.
type VarStat struct {
	// Name is the variable's debug name.
	Name string
	// Accesses counts accesses to the variable.
	Accesses int64
	// Wait is the total time processors queued for the variable's memory
	// module beyond the raw access cost.
	Wait machine.Time
	// Combined counts accesses that coalesced into an already-open
	// combining window instead of occupying the module themselves
	// (variables flagged SyncVar.SetCombining only).
	Combined int64
}

// New returns a virtual multiprocessor with the given configuration.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:  cfg,
		sim:  des.New(),
		vars: make(map[varKey]*varState),
	}
}

// NumProcs returns the processor count.
func (e *Engine) NumProcs() int { return e.cfg.P }

// Run executes worker on each virtual processor and returns when the
// simulation has quiesced. The report's Makespan is in virtual time.
func (e *Engine) Run(worker func(machine.Proc)) machine.RunReport {
	e.procs = make([]*vproc, e.cfg.P)
	for i := 0; i < e.cfg.P; i++ {
		vp := &vproc{eng: e}
		e.procs[i] = vp
		e.sim.Spawn(i, 0, func(p *des.Process) {
			vp.p = p
			worker(vp)
		})
	}
	makespan := e.sim.Run()
	rep := machine.RunReport{
		Makespan: makespan,
		Busy:     make([]machine.Time, e.cfg.P),
		Accesses: make([]int64, e.cfg.P),
		Spins:    make([]int64, e.cfg.P),
	}
	for i, vp := range e.procs {
		rep.Busy[i] = vp.busy
		rep.Accesses[i] = vp.accesses
		rep.Spins[i] = vp.spins
	}
	return rep
}

// HotSpots returns the most contended synchronization variables after a
// Run, ordered by total queueing time (ties by access count), at most n
// entries. With Combining enabled queueing is zero and ordering falls
// back to access counts.
func (e *Engine) HotSpots(n int) []VarStat {
	out := make([]VarStat, 0, len(e.vars))
	for _, st := range e.vars {
		out = append(out, st.VarStat)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wait != out[j].Wait {
			return out[i].Wait > out[j].Wait
		}
		if out[i].Accesses != out[j].Accesses {
			return out[i].Accesses > out[j].Accesses
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// vproc implements machine.Proc on a des.Process.
type vproc struct {
	eng      *Engine
	p        *des.Process
	busy     machine.Time
	accesses int64
	spins    int64
}

func (v *vproc) ID() int       { return v.p.ID() }
func (v *vproc) NumProcs() int { return v.eng.cfg.P }
func (v *vproc) Now() machine.Time {
	return v.p.Now()
}

func (v *vproc) Work(cost machine.Time) {
	if cost < 0 {
		panic(fmt.Sprintf("vmachine: negative work cost %d", cost))
	}
	if v.eng.cfg.Interrupt.Tripped() {
		return // preempted: drain without consuming virtual time
	}
	v.busy += cost
	v.p.Advance(cost)
}

func (v *vproc) Idle(cost machine.Time) {
	if cost < 0 {
		panic(fmt.Sprintf("vmachine: negative idle cost %d", cost))
	}
	if v.eng.cfg.Interrupt.Tripped() {
		return
	}
	v.p.Advance(cost)
}

// Access models one synchronization access: the processor waits for the
// variable's memory module to become free (unless combining), occupies it
// for AccessCost, and resumes afterwards. The vars map is shared but safe:
// only one des process executes at a time.
//
// A variable flagged SyncVar.SetCombining is served by the software
// combining network: an access that arrives while the module window is
// still open joins the in-flight operation and completes when it does,
// without extending the module's occupancy — a batch of simultaneous
// fetch-and-adds is charged one module transaction. With the global
// Combining knob set every variable pipelines and no window tracking is
// needed at all.
func (v *vproc) Access(sv *machine.SyncVar) {
	v.accesses++
	cfg := &v.eng.cfg
	key := varKey{sv: sv, gen: sv.Generation()}
	now := v.p.Now()
	st := v.eng.vars[key]
	if st == nil {
		st = &varState{VarStat: VarStat{Name: sv.Name()}, home: -1}
		v.eng.vars[key] = st
	}
	st.Accesses++
	start := now
	if !cfg.Combining && st.avail > now {
		if sv.Combining() {
			// Join the open window: finish with the in-flight combined
			// operation, leaving avail untouched.
			st.Combined++
			v.p.AdvanceTo(st.avail)
			return
		}
		start = st.avail
	}
	cost := cfg.AccessCost
	if cfg.RemotePenalty > 0 {
		if st.home < 0 {
			st.home = v.p.ID() // first toucher homes the variable
		}
		if st.home != v.p.ID() {
			cost += cfg.RemotePenalty
		}
	}
	end := start + cost
	if !cfg.Combining {
		st.avail = end
	}
	st.Wait += start - now
	v.p.AdvanceTo(end)
}

func (v *vproc) Spin() {
	v.spins++
	v.p.Advance(v.eng.cfg.SpinCost)
}
