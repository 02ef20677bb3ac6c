package machine

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// WorkMode selects how the real engine realizes Proc.Work.
type WorkMode uint8

const (
	// WorkCount only accounts the cost; no real time is consumed. Use for
	// correctness tests, where wall-clock fidelity is irrelevant.
	WorkCount WorkMode = iota
	// WorkSpin busy-loops for approximately one nanosecond per cost unit.
	// Use for wall-clock benchmarks on the real engine.
	WorkSpin
)

// RealConfig configures a real (goroutine-based) machine.
type RealConfig struct {
	// P is the number of processors (worker goroutines). Defaults to
	// runtime.GOMAXPROCS(0) if zero.
	P int
	// Mode selects how Work is realized. Defaults to WorkCount.
	Mode WorkMode
	// Interrupt, if non-nil, is the run's external stop request. The
	// engine's preemption point is the calibrated busy-wait of WorkSpin
	// mode: once the interrupt trips, in-flight Work/Idle spins end
	// early so a cancelled run is not pinned behind large grains.
	Interrupt *Interrupt
}

// Real is a machine whose processors are goroutines and whose
// synchronization variables are realized with sync/atomic. It implements
// Engine.
type Real struct {
	cfg RealConfig
}

// NewReal returns a real machine with the given configuration.
func NewReal(cfg RealConfig) *Real {
	if cfg.P <= 0 {
		cfg.P = runtime.GOMAXPROCS(0)
	}
	return &Real{cfg: cfg}
}

// NumProcs returns the processor count.
func (e *Real) NumProcs() int { return e.cfg.P }

// realClockStride is the real engine's clock stride: the scheduling kernel
// reads a processor's clock inside one hold in this many, and there around
// one sampled chunk in this many, not at every phase boundary, because on
// this engine a read (runtime.nanotime) costs more than the fetch-and-add
// it would time.
// Chosen by measurement (DESIGN §17).
const realClockStride = 16

// ClockStride returns the kernel's clock stride on this engine (the
// optional method the scheduling kernel asks its engine once per run).
func (e *Real) ClockStride() int { return realClockStride }

// InlineInstances reports that the scheduling kernel may run an instance
// whose measured body costs less than publishing it on the processor that
// activates it (the optional method the kernel asks once per run).
func (e *Real) InlineInstances() bool { return true }

// Run executes worker on P goroutines and blocks until all return.
func (e *Real) Run(worker func(Proc)) RunReport {
	// One value slice instead of P separate allocations; the structs are
	// padded so adjacent processors' hot counters do not share lines.
	procs := make([]realProc, e.cfg.P)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range procs {
		p := &procs[i]
		p.id, p.n, p.mode, p.start, p.intr = i, e.cfg.P, e.cfg.Mode, start, e.cfg.Interrupt
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(p)
		}()
	}
	wg.Wait()
	rep := RunReport{
		Makespan: time.Since(start).Nanoseconds(),
		Busy:     make([]Time, e.cfg.P),
		Accesses: make([]int64, e.cfg.P),
		Spins:    make([]int64, e.cfg.P),
	}
	for i := range procs {
		p := &procs[i]
		rep.Busy[i] = p.busy
		rep.Accesses[i] = p.accesses
		rep.Spins[i] = p.spins
	}
	return rep
}

type realProc struct {
	id    int
	n     int
	mode  WorkMode
	start time.Time
	intr  *Interrupt
	// busy, accesses and spins are written only by the processor's own
	// goroutine and read by Run only after wg.Wait, which orders the two:
	// plain fields, no atomics.
	busy     Time
	accesses int64
	spins    int64
	// The pad keeps neighboring processors in Run's value slice off each
	// other's cache lines (the three counters above are the engine's
	// hottest writes).
	_ [48]byte
}

func (p *realProc) ID() int       { return p.id }
func (p *realProc) NumProcs() int { return p.n }

func (p *realProc) Now() Time { return time.Since(p.start).Nanoseconds() }

func (p *realProc) Work(cost Time) {
	if cost < 0 {
		panic(fmt.Sprintf("machine: negative work cost %d", cost))
	}
	p.busy += cost
	if p.mode == WorkSpin && cost > 0 {
		spinFor(time.Duration(cost), p.intr)
	}
}

func (p *realProc) Idle(cost Time) {
	if cost < 0 {
		panic(fmt.Sprintf("machine: negative idle cost %d", cost))
	}
	if p.mode == WorkSpin && cost > 0 {
		spinFor(time.Duration(cost), p.intr)
	}
}

func (p *realProc) Access(*SyncVar) { p.accesses++ }

func (p *realProc) Spin() {
	p.spins++
	runtime.Gosched()
}

// spinFor busy-waits for approximately d, ending early if the interrupt
// trips. For very short durations the granularity of time.Now dominates;
// that is acceptable for benchmarking grains of ~100ns and above.
func spinFor(d time.Duration, intr *Interrupt) {
	t0 := time.Now()
	for time.Since(t0) < d {
		if intr.Tripped() {
			return
		}
		// burn a little before re-reading the clock
		for i := 0; i < 32; i++ {
			_ = i * i //nolint:staticcheck // intentional busy work
		}
	}
}
