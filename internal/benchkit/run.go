package benchkit

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"repro"
	"repro/internal/machine"
)

// RunConfig configures one suite execution.
type RunConfig struct {
	// Reps is the number of repetitions per scenario (default 5).
	Reps int `json:"reps"`
	// Warmup is the number of unmeasured warmup runs per scenario (zero
	// is none). Warmups only steady the host-side columns (wall_ns,
	// allocs); the simulator metrics do not depend on them.
	Warmup int `json:"warmup"`
	// Filter, if non-empty, is the regular expression (matched against
	// scenario names and tags) that selected the suite subset; recorded
	// for provenance.
	Filter string `json:"filter,omitempty"`

	// CPUProfileDir, if non-empty, captures one CPU profile per
	// scenario (over its timed repetitions) into
	// <dir>/<scenario>.cpu.pprof. Not serialized.
	CPUProfileDir string `json:"-"`
	// MemProfileDir captures one post-run heap profile per scenario
	// into <dir>/<scenario>.mem.pprof.
	MemProfileDir string `json:"-"`
	// TraceDir captures one runtime execution trace per scenario into
	// <dir>/<scenario>.trace.
	TraceDir string `json:"-"`

	// Logf, if non-nil, receives one progress line per scenario.
	Logf func(format string, args ...any) `json:"-"`
}

func (cfg *RunConfig) defaults() {
	if cfg.Reps <= 0 {
		cfg.Reps = 5
	}
}

// Filter returns the scenarios whose name or any tag matches the
// regular expression expr; an empty expr selects everything.
func Filter(scs []Scenario, expr string) ([]Scenario, error) {
	if expr == "" {
		return scs, nil
	}
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("benchkit: bad filter %q: %w", expr, err)
	}
	var out []Scenario
	for _, s := range scs {
		if re.MatchString(s.Name) {
			out = append(out, s)
			continue
		}
		for _, t := range s.Tags {
			if re.MatchString(t) {
				out = append(out, s)
				break
			}
		}
	}
	return out, nil
}

// Run executes every scenario (warmup runs, then Reps repetitions),
// enforces the virtual-engine determinism contract, and returns the
// validated result file.
func Run(scs []Scenario, cfg RunConfig) (*File, error) {
	cfg.defaults()
	if err := validateScenarios(scs); err != nil {
		return nil, err
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("benchkit: no scenarios selected")
	}
	f := &File{
		SchemaVersion: SchemaVersion,
		CreatedUnix:   time.Now().Unix(),
		Env:           CaptureEnv(),
		Config:        cfg,
	}
	for _, s := range scs {
		start := time.Now()
		res, err := runScenario(s, cfg)
		if err != nil {
			return nil, fmt.Errorf("benchkit: scenario %q: %w", s.Name, err)
		}
		if cfg.Logf != nil {
			cfg.Logf("%-40s %d reps in %v", s.Name, cfg.Reps, time.Since(start).Round(time.Millisecond))
		}
		f.Scenarios = append(f.Scenarios, res)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// repSample is the raw measurement of one repetition.
type repSample struct {
	wallNS       float64
	makespan     float64
	utilization  float64
	imbalance    float64
	overhead     float64
	accesses     float64
	searches     float64
	chunks       float64
	allocs       float64
	bytesPerIter float64
	perClaim     float64
	perSweep     float64
}

func runScenario(s Scenario, cfg RunConfig) (ScenarioResult, error) {
	out := ScenarioResult{
		Name:          s.Name,
		Workload:      s.Workload,
		Scheme:        s.scheme(),
		Pool:          s.poolName(),
		Engine:        string(repro.EngineVirtual),
		Procs:         s.Opts.Procs,
		Tags:          s.Tags,
		Deterministic: !s.adaptive(),
	}
	prog, err := repro.Compile(s.Nest())
	if err != nil {
		return out, err
	}
	for i := 0; i < cfg.Warmup; i++ {
		if _, err := prog.Run(s.Opts); err != nil {
			return out, fmt.Errorf("warmup %d: %w", i, err)
		}
	}

	stopProfiles, err := startProfiles(s.Name, cfg)
	if err != nil {
		return out, err
	}
	samples := make([]repSample, cfg.Reps)
	for i := 0; i < cfg.Reps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := prog.Run(s.Opts)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			stopProfiles()
			return out, fmt.Errorf("rep %d: %w", i, err)
		}
		var accesses int64
		for _, a := range res.Accesses {
			accesses += a
		}
		samples[i] = repSample{
			wallNS:      float64(wall.Nanoseconds()),
			makespan:    float64(res.Makespan),
			utilization: res.Utilization,
			imbalance:   machine.Imbalance(res.Busy),
			overhead:    float64(res.Stats.OverheadTime()),
			accesses:    float64(accesses),
			searches:    float64(res.Stats.Searches),
			chunks:      float64(res.Stats.Chunks),
			allocs:      float64(m1.Mallocs - m0.Mallocs),
		}
		if res.Stats.Iterations > 0 {
			samples[i].bytesPerIter = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Stats.Iterations)
		}
		if res.Stats.Chunks > 0 {
			samples[i].perClaim = float64(res.Stats.O1Time) / float64(res.Stats.Chunks)
		}
		if res.Stats.Search.Sweeps > 0 {
			samples[i].perSweep = float64(res.Stats.O2Time) / float64(res.Stats.Search.Sweeps)
		}
	}
	if err := stopProfiles(); err != nil {
		return out, err
	}

	if out.Deterministic {
		if err := checkDeterminism(samples); err != nil {
			return out, err
		}
	}

	sum := func(get func(repSample) float64) Summary {
		vals := make([]float64, len(samples))
		for i, sm := range samples {
			vals[i] = get(sm)
		}
		return Summarize(vals)
	}
	// Gating: the deterministic simulator quantities gate; what the host
	// measured (wall clock, allocator) is recorded for provenance only.
	out.Metrics = map[string]Metric{
		"wall_ns":     {Unit: "ns", Better: BetterLess, Summary: sum(func(r repSample) float64 { return r.wallNS })},
		"makespan":    {Unit: "vtime", Better: BetterLess, Gate: true, Summary: sum(func(r repSample) float64 { return r.makespan })},
		"utilization": {Unit: "ratio", Better: BetterMore, Gate: true, Summary: sum(func(r repSample) float64 { return r.utilization })},
		"overhead":    {Unit: "vtime", Better: BetterLess, Gate: true, Summary: sum(func(r repSample) float64 { return r.overhead })},
		"accesses":    {Unit: "count", Better: BetterLess, Gate: true, Summary: sum(func(r repSample) float64 { return r.accesses })},
		"searches":    {Unit: "count", Better: BetterLess, Summary: sum(func(r repSample) float64 { return r.searches })},
		"chunks":      {Unit: "count", Better: BetterLess, Summary: sum(func(r repSample) float64 { return r.chunks })},
		"allocs":      {Unit: "count", Better: BetterLess, Summary: sum(func(r repSample) float64 { return r.allocs })},
		// imbalance is max/mean of per-processor busy time: the load-balance
		// column of a sweep. Ungated — makespan already gates its effect.
		"imbalance": {Unit: "ratio", Better: BetterLess, Summary: sum(func(r repSample) float64 { return r.imbalance })},
		// bytes_per_iter is heap bytes allocated per executed iteration —
		// the steady-state allocation figure the ICB freelist exists to
		// shrink. Ungated: GC timing makes it noisy on small runs.
		"bytes_per_iter": {Unit: "bytes", Better: BetterLess, Summary: sum(func(r repSample) float64 { return r.bytesPerIter })},
		// ns_per_claim is the low-level scheduling cost per claimed chunk
		// (O1 time / chunks): what one pass through the bound ChunkCalculator
		// costs, dispatch included. Ungated — a trend metric for the scheme
		// layer's overhead.
		"ns_per_claim": {Unit: "vtime", Better: BetterLess, Summary: sum(func(r repSample) float64 { return r.perClaim })},
		// sweep_ns is the medium-level cost per pool sweep (O2 time /
		// SEARCH sweeps): what one pass over the SW control word(s) and
		// the retest/lock protocol costs. Ungated for the same reason as
		// ns_per_claim — a trend metric for the claim-path work, tracked
		// across sharding and combining variants.
		"sweep_ns": {Unit: "vtime", Better: BetterLess, Summary: sum(func(r repSample) float64 { return r.perSweep })},
	}
	return out, nil
}

// checkDeterminism enforces the virtual engine's contract: every timed
// repetition must report bit-identical makespan, utilization, access
// and scheduling counts. A mismatch means nondeterminism leaked into
// the simulator — a bug worth failing the whole suite over.
func checkDeterminism(samples []repSample) error {
	for i := 1; i < len(samples); i++ {
		a, b := samples[0], samples[i]
		switch {
		case a.makespan != b.makespan:
			return fmt.Errorf("determinism violation: makespan %g (rep 0) vs %g (rep %d)", a.makespan, b.makespan, i)
		case a.utilization != b.utilization:
			return fmt.Errorf("determinism violation: utilization %g (rep 0) vs %g (rep %d)", a.utilization, b.utilization, i)
		case a.accesses != b.accesses:
			return fmt.Errorf("determinism violation: accesses %g (rep 0) vs %g (rep %d)", a.accesses, b.accesses, i)
		case a.overhead != b.overhead:
			return fmt.Errorf("determinism violation: overhead %g (rep 0) vs %g (rep %d)", a.overhead, b.overhead, i)
		case a.searches != b.searches || a.chunks != b.chunks:
			return fmt.Errorf("determinism violation: searches/chunks %g/%g (rep 0) vs %g/%g (rep %d)",
				a.searches, a.chunks, b.searches, b.chunks, i)
		}
	}
	return nil
}

// startProfiles begins the per-scenario profile captures requested by
// cfg and returns a stop function that finalizes them. Profiles cover
// the timed repetitions only (warmups are excluded).
func startProfiles(scenario string, cfg RunConfig) (stop func() error, err error) {
	base := profileBase(scenario)
	var cpuFile, traceFile *os.File
	if cfg.CPUProfileDir != "" {
		cpuFile, err = createProfile(cfg.CPUProfileDir, base+".cpu.pprof")
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if cfg.TraceDir != "" {
		traceFile, err = createProfile(cfg.TraceDir, base+".trace")
		if err == nil {
			err = rtrace.Start(traceFile)
		}
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if traceFile != nil {
				traceFile.Close()
			}
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if traceFile != nil {
			rtrace.Stop()
			if err := traceFile.Close(); err != nil {
				return err
			}
		}
		if cfg.MemProfileDir != "" {
			memFile, err := createProfile(cfg.MemProfileDir, base+".mem.pprof")
			if err != nil {
				return err
			}
			defer memFile.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func createProfile(dir, name string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(dir, name))
}

// profileBase flattens a scenario name into a filesystem-safe stem.
func profileBase(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', ':', ' ':
			return '_'
		}
		return r
	}, name)
}
