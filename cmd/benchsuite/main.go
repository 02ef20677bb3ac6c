// Command benchsuite runs the deterministic performance ledger
// (internal/benchkit: every scenario on the virtual-time machine) and
// gates regressions between result files. Wall clock is bench/'s ledger.
//
// Usage:
//
//	benchsuite run [-filter RE] [-reps N] [-warmup N] [-o FILE]
//	               [-cpuprofile DIR] [-memprofile DIR] [-trace DIR]
//	benchsuite compare [-threshold 0.10] [-bit-identical] BASELINE.json CANDIDATE.json
//	benchsuite list [-filter RE]
//	benchsuite sweep [-workload NAME | -file PROG] [-procs 1,2,4] [-schemes ss,gss]
//	                 [-access N] [-remote N] [-pool NAME] [-csv]
//
// `run` executes the scenario registry (or the -filter subset, matched
// against scenario names and tags — e.g. -filter smoke) with warmup
// plus N repetitions per scenario, checked bit-identical, and writes a
// schema-versioned BENCH_<rev>.json; the profile flags capture one
// CPU/heap/execution profile per scenario for hot-path digging.
//
// `compare` exits 0 when no gated metric of the candidate regresses
// against the baseline beyond the threshold, and exits 1 (after
// printing the delta table) when one does. With -bit-identical it
// additionally requires every deterministic scenario to report exactly
// the baseline's simulator metrics — the check `make verify-gates` runs.
//
// `sweep` prints the processors × schemes grid (speedup over a P=1 ss
// run, utilization, imbalance) of one built-in workload or program
// file, as a table or CSV: ad-hoc scenarios through the runner `run` uses.
//
// Examples:
//
//	benchsuite run -o BENCH_base.json
//	... hack on the scheduler ...
//	benchsuite run -o BENCH_new.json && benchsuite compare -bit-identical BENCH_base.json BENCH_new.json
//	benchsuite run -filter 'adjoint/gss' -cpuprofile prof/
//	benchsuite sweep -workload adjoint -procs 1,2,4,8,16 -schemes ss,css:8,gss,tss,fsc
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchkit"
)

// errRegression marks a compare failure so main can exit 1 (regression)
// rather than 2 (usage or execution error).
var errRegression = errors.New("benchsuite: regression detected")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errRegression):
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(1)
	default:
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(2)
	}
}

// run dispatches the subcommand; separated from main for testing.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New(`missing subcommand: "run", "compare", "list" or "sweep"`)
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], out)
	case "compare":
		return cmdCompare(args[1:], out)
	case "list":
		return cmdList(args[1:], out)
	case "sweep":
		return cmdSweep(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want run, compare, list or sweep)", args[0])
	}
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchsuite run", flag.ContinueOnError)
	var (
		filter  = fs.String("filter", "", "regexp selecting scenarios by name or tag (e.g. smoke)")
		reps    = fs.Int("reps", 5, "repetitions per scenario")
		warmup  = fs.Int("warmup", 1, "unmeasured warmup runs per scenario")
		outPath = fs.String("o", "", "output file (default BENCH_<git-rev>.json)")
		cpuDir  = fs.String("cpuprofile", "", "directory for per-scenario CPU profiles")
		memDir  = fs.String("memprofile", "", "directory for per-scenario heap profiles")
		trcDir  = fs.String("trace", "", "directory for per-scenario execution traces")
		quiet   = fs.Bool("q", false, "suppress per-scenario progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("run takes no positional arguments, got %q", fs.Args())
	}
	scs, err := benchkit.Filter(benchkit.Default(), *filter)
	if err != nil {
		return err
	}
	if len(scs) == 0 {
		return fmt.Errorf("filter %q selects no scenarios", *filter)
	}
	cfg := benchkit.RunConfig{
		Reps: *reps, Warmup: *warmup, Filter: *filter,
		CPUProfileDir: *cpuDir, MemProfileDir: *memDir, TraceDir: *trcDir,
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) }
	}
	f, err := benchkit.Run(scs, cfg)
	if err != nil {
		return err
	}
	path := *outPath
	if path == "" {
		path = "BENCH_" + f.Env.GitRev + ".json"
	}
	if err := f.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d scenarios, %d reps, go %s, rev %s)\n",
		path, len(f.Scenarios), cfg.Reps, f.Env.GoVersion, f.Env.GitRev)
	return nil
}

func cmdCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchsuite compare", flag.ContinueOnError)
	threshold := fs.Float64("threshold", benchkit.DefaultThreshold,
		"relative median movement a gated metric must exceed to regress")
	bitIdentical := fs.Bool("bit-identical", false,
		"additionally require deterministic scenarios to match the baseline exactly")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare takes exactly two result files, got %d", fs.NArg())
	}
	old, err := benchkit.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	cand, err := benchkit.Load(fs.Arg(1))
	if err != nil {
		return err
	}
	c, err := benchkit.Compare(old, cand, *threshold)
	if err != nil {
		return err
	}
	c.WriteTable(out)
	if *bitIdentical {
		if viol := benchkit.BitIdentical(old, cand); len(viol) > 0 {
			for _, v := range viol {
				fmt.Fprintf(out, "BIT-IDENTITY: %s\n", v)
			}
			return fmt.Errorf("%w: %d deterministic metric(s) differ from baseline", errRegression, len(viol))
		}
		fmt.Fprintln(out, "deterministic scenarios bit-identical")
	}
	if regs := c.Regressions(); len(regs) > 0 {
		return fmt.Errorf("%w: %d gated metric(s) beyond %.0f%% threshold", errRegression, len(regs), *threshold*100)
	}
	fmt.Fprintf(out, "no regressions (threshold %.0f%%)\n", *threshold*100)
	return nil
}

func cmdList(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchsuite list", flag.ContinueOnError)
	filter := fs.String("filter", "", "regexp selecting scenarios by name or tag")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scs, err := benchkit.Filter(benchkit.Default(), *filter)
	if err != nil {
		return err
	}
	for _, s := range scs {
		tags := ""
		for _, t := range s.Tags {
			tags += " [" + t + "]"
		}
		fmt.Fprintf(out, "%s%s\n", s.Name, tags)
	}
	fmt.Fprintf(out, "%d scenarios\n", len(scs))
	return nil
}
