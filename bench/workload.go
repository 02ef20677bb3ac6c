package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

var workloadNames = []string{"kernel_fine", "kernel_nested", "serve_durable", "serve_cluster3"}

// sizing is every input size and op count of the benchmark. reference
// is frozen from probes on the 2-vCPU reference box (README.md gives the
// arithmetic); the smoke test substitutes tiny values.
type sizing struct {
	setupReps  int   // set-ups per run; setup_s is their median
	fineIters  int64 // kernel_fine: iterations of the flat doall (+ seed offset < 1024)
	nestedInst int64 // kernel_nested: instance activations per op (+ seed offset < 128)
	warmupOps  int   // kernel: checked runs of a set-up
	seedRuns   int   // serve_durable: runs journaled before the restart
	warmRuns   int   // serve_cluster3: runs served before measuring
	// ops is the measure phase of each workload: fixed work, not fixed
	// time. loopschedd retains every run, so under a time window a faster
	// daemon would serve more runs, read as a fatter one and sink deeper
	// into the slow regime of a long run table. BENCHMARK.json repeats
	// each count in the workload's "why".
	ops       map[string]int
	probeReps int // samples of each direct layer probe
	streamOps int // streamed ops of the proxied-stream stall probe
}

var reference = sizing{
	setupReps:  3,
	fineIters:  400_000,
	nestedInst: 50_000,
	warmupOps:  10,
	seedRuns:   600,
	warmRuns:   300,
	ops: map[string]int{
		"kernel_fine":    190,
		"kernel_nested":  170,
		"serve_durable":  7000,
		"serve_cluster3": 6500,
	},
	probeReps: 200,
	streamOps: 25,
}

// phaseBlocks is how many equal blocks of ops a phase is cut into.
// throughput and cpu_ms_per_op are the median over the blocks, so a
// neighbour that slows the box for a few seconds moves a block or two,
// not the number reported.
const phaseBlocks = 10

// rssSamples is about how many times a phase reads the resident set of
// the system under test, evenly spaced over its ops. rss_mb is their
// median: a single reading, and the peak (VmHWM) more so, follows whether
// the Go collector has just run and moves by up to a third between runs.
const rssSamples = 100

// workload is one of the four systems under load.
type workload interface {
	// setUp does everything that precedes the first measured op, checking
	// the system's answers against the oracle; after tearDown it can run
	// again, which is how setup_s gets a median.
	setUp() error
	tearDown()
	// verify is the part of the oracle check that is too heavy to precede
	// the measurement in the same process; it runs after it.
	verify() error
	// op runs operation i to completion, checks its answer and returns
	// the units of work it did. Spans go under parent.
	op(i int, tr *tracer, parent int) (units int64, err error)
	// pids lists the processes of the system under test; none means the
	// harness process itself (the in-process kernel workloads).
	pids() []int
	// baseline takes the "first" readings of a traced run, after set-up.
	baseline() error
	// layers fills in the per-layer metrics that come from the workload's
	// own traced ops; vals already holds the direct probes.
	layers(tr *tracer, ph phase, vals map[string]float64) error
}

func newWorkload(name string, seed int64, sz sizing) (workload, error) {
	switch name {
	case "kernel_fine", "kernel_nested":
		return newKernel(name, seed, sz), nil
	case "serve_durable", "serve_cluster3":
		return newServe(name, seed, sz)
	}
	return nil, fmt.Errorf("unknown workload (want one of %v)", workloadNames)
}

// block is one of the phaseBlocks equal stretches of a phase's ops.
type block struct {
	ops   int
	units int64   // of successful ops only
	opMs  float64 // summed op wall time
	cpuMs float64 // CPU of the system under test
}

// phase is one closed-loop stretch of ops from a single goroutine.
type phase struct {
	firstOp, ops, failed int
	truncated            bool      // the wall cap ended it before its op count
	latMs                []float64 // wall time of every op, failed ones too
	blocks               []block
	rssKB                []float64 // resident set of the system under test (VmRSS, summed over its processes)
	sutCPUms             []float64 // CPU time per process of the system under test
	genCPUms             float64   // of the harness process (the same thing for in-process workloads)
	mallocs              uint64    // heap objects allocated by the harness process (traced phases)
}

// throughput is units of successful ops per second of op time, the median
// over the blocks: the loop is closed, so a block is its ops laid end to
// end.
func (ph phase) throughput() float64 {
	per := make([]float64, len(ph.blocks))
	for i, b := range ph.blocks {
		per[i] = ratio(float64(b.units), b.opMs/1e3)
	}
	return median(per)
}

// cpuMsPerOp is the CPU time of the system under test per op, the median
// over the blocks.
func (ph phase) cpuMsPerOp() float64 {
	per := make([]float64, len(ph.blocks))
	for i, b := range ph.blocks {
		per[i] = ratio(b.cpuMs, float64(b.ops))
	}
	return median(per)
}

// rssMB is the median reading of the resident set. loopschedd retains
// every run, so for a serve workload this is its size after half the
// phase's runs.
func (ph phase) rssMB() float64 { return median(ph.rssKB) / 1024 }

// opTime is the phase's three op-time metrics.
func (ph phase) opTime() map[string]float64 {
	return map[string]float64{
		"throughput":     ph.throughput(),
		"latency_p50_ms": median(ph.latMs),
		"cpu_ms_per_op":  ph.cpuMsPerOp(),
	}
}

// join lays the ops of two phases end to end.
func join(a, b phase) phase {
	return phase{
		firstOp:   a.firstOp,
		ops:       a.ops + b.ops,
		failed:    a.failed + b.failed,
		truncated: a.truncated || b.truncated,
		latMs:     slices.Concat(a.latMs, b.latMs),
		blocks:    slices.Concat(a.blocks, b.blocks),
	}
}

func (ph phase) opSeconds() float64 {
	var ms float64
	for _, b := range ph.blocks {
		ms += b.opMs
	}
	return ms / 1e3
}

// sutCPU reads the CPU time of each process under test.
func sutCPU(pids []int) ([]time.Duration, error) {
	if len(pids) == 0 {
		return []time.Duration{selfCPU()}, nil
	}
	out := make([]time.Duration, len(pids))
	for i, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func sumMs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum.Nanoseconds()) / 1e6
}

// sumKB sums a /proc status field over the processes under test.
func sumKB(pids []int, key string) (int64, error) {
	if len(pids) == 0 {
		pids = []int{os.Getpid()}
	}
	var sum int64
	for _, pid := range pids {
		kb, err := procKB(pid, key)
		if err != nil {
			return 0, err
		}
		sum += kb
	}
	return sum, nil
}

// runPhase issues ops ops back to back: the next op starts when the
// previous one has been answered and checked. wallCap is the longest the
// phase may take; a phase it cuts short is flagged truncated and reports
// what it has.
func runPhase(w workload, firstOp, ops int, wallCap time.Duration, tr *tracer) (phase, error) {
	ph := phase{firstOp: firstOp, latMs: make([]float64, 0, ops)}
	pids := w.pids()
	var ms runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms)
		ph.mallocs = ms.Mallocs
	}
	cpu0, err := sutCPU(pids)
	if err != nil {
		return ph, err
	}
	gen0 := selfCPU()
	root := tr.begin("phase", -1, -1)
	start := time.Now()

	nBlocks := min(phaseBlocks, ops)
	blockCPU := cpu0
	for b := 0; b < nBlocks && !ph.truncated; b++ {
		var blk block
		for end := (b + 1) * ops / nBlocks; ph.ops < end; {
			if time.Since(start) >= wallCap {
				ph.truncated = true
				break
			}
			i := firstOp + ph.ops
			id := tr.begin("op", root, i)
			t0 := time.Now()
			units, err := w.op(i, tr, id)
			lat := float64(time.Since(t0).Nanoseconds()) / 1e6
			tr.end(id)
			ph.latMs = append(ph.latMs, lat)
			ph.ops++
			blk.ops++
			blk.opMs += lat
			if err != nil {
				if ph.failed++; ph.failed <= 3 {
					fmt.Fprintf(os.Stderr, "bench: op %d failed: %v\n", i, err)
				}
			} else {
				blk.units += units
			}
			if ph.ops%max(1, ops/rssSamples) == 0 {
				kb, err := sumKB(pids, "VmRSS")
				if err != nil {
					return ph, err
				}
				ph.rssKB = append(ph.rssKB, float64(kb))
			}
		}
		if blk.ops == 0 {
			break
		}
		cpu, err := sutCPU(pids)
		if err != nil {
			return ph, err
		}
		blk.cpuMs = sumMs(cpu) - sumMs(blockCPU)
		blockCPU = cpu
		ph.blocks = append(ph.blocks, blk)
	}
	tr.end(root)

	ph.genCPUms = float64((selfCPU() - gen0).Nanoseconds()) / 1e6
	for i := range blockCPU {
		ph.sutCPUms = append(ph.sutCPUms, float64((blockCPU[i]-cpu0[i]).Nanoseconds())/1e6)
	}
	if tr != nil {
		runtime.ReadMemStats(&ms)
		ph.mallocs = ms.Mallocs - ph.mallocs
	}
	if ph.truncated {
		fmt.Fprintf(os.Stderr, "bench: TRUNCATED: the %v cap ended the phase after %d of %d ops\n", wallCap, ph.ops, ops)
	}
	return ph, nil
}

// runWorkload sets the workload up setupReps times, measures it and
// prints its metrics: the end-to-end ones, or for a traced run the
// per-layer ones. seconds caps the wall time of a measure phase; its
// length is the workload's op count.
func runWorkload(out io.Writer, name string, seed int64, seconds float64, traced bool, sz sizing) (*result, error) {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	defer w.tearDown()
	setups := make([]float64, sz.setupReps)
	for r := range setups {
		if r > 0 {
			w.tearDown()
		}
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[r] = time.Since(t0).Seconds()
	}
	ops := sz.ops[name]
	wallCap := time.Duration(seconds * float64(time.Second))
	fmt.Fprintf(out, "workload %s  seed %d  ops %d  cap %v  traced %v  nproc %d  %s  set-ups %.3f s\n",
		name, seed, ops, wallCap, traced, runtime.NumCPU(), runtime.Version(), setups)

	vals := map[string]float64{}
	defs := endToEnd
	var ph phase
	if !traced {
		if ph, err = runPhase(w, 0, ops, wallCap, nil); err != nil {
			return nil, err
		}
		vals["setup_s"] = median(setups)
		vals["rss_mb"] = ph.rssMB()
	} else {
		defs = perLayer
		if ph, err = traceRun(w, name, ops, wallCap, sz, vals); err != nil {
			return nil, err
		}
	}
	if err := w.verify(); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	fmt.Fprintf(out, "ops attempted %d  failed %d  latency samples %d  op time %.3f s  truncated %v\n",
		ph.ops, ph.failed, len(ph.latMs), ph.opSeconds(), ph.truncated)
	if !traced {
		// Measured by every run, but not part of its result: see opTime.
		fmt.Fprintln(out, "op-time metrics (demoted for noise, no bound):")
		if _, err := report(out, opTime, ph.opTime()); err != nil {
			return nil, err
		}
		fmt.Fprintln(out, "end-to-end metrics:")
	}
	ms, err := report(out, defs, vals)
	if err != nil {
		return nil, err
	}
	return &result{Correct: ph.failed == 0, Attempted: ph.ops, Failed: ph.failed, Metrics: ms}, nil
}

// traceRun is the outside-in decomposition: the direct layer probes, then
// a traced phase of a fifth of the workload's ops between two untraced
// ones of three tenths each, then the per-layer metrics the traced ops
// yield. The op-time metrics come from the untraced phases, and the gap
// between their throughput and the traced one's is the tracing overhead,
// with any drift over the run cancelled. Spans are written to
// out/<workload>.trace.json.
func traceRun(w workload, name string, ops int, wallCap time.Duration, sz sizing, vals map[string]float64) (phase, error) {
	for _, d := range perLayer {
		vals[d.name] = 0 // a layer the workload bypasses stays 0
	}
	tr := newTracer()
	tick := readTick()
	if err := probeLayers(tr, sz, vals); err != nil {
		return phase{}, fmt.Errorf("layer probes: %w", err)
	}
	if err := w.baseline(); err != nil {
		return phase{}, err
	}
	tenth := max(1, ops/10)
	before, err := runPhase(w, 0, 3*tenth, wallCap, nil)
	if err != nil {
		return before, err
	}
	ph, err := runPhase(w, before.ops, 2*tenth, wallCap, tr)
	if err != nil {
		return ph, err
	}
	after, err := runPhase(w, before.ops+ph.ops, 3*tenth, wallCap, nil)
	if err != nil {
		return after, err
	}
	if err := w.layers(tr, ph, vals); err != nil {
		return ph, err
	}
	untraced := join(before, after)
	maps.Copy(vals, untraced.opTime())
	vals["trace.overhead_pct"] = 100 * (1 - ratio(ph.throughput(), untraced.throughput()))
	vals["harness.tick_us"] = (tick + readTick()) / 2 / 1e3
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return ph, err
	}
	if err := tr.write(filepath.Join(outDir, name+".trace.json")); err != nil {
		return ph, err
	}
	ph.failed += untraced.failed
	ph.truncated = ph.truncated || untraced.truncated
	return ph, nil
}
