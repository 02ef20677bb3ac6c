// Command benchsuite runs the deterministic performance ledger
// (internal/benchkit: every scenario on the virtual-time machine) and
// compares a result file against a committed baseline. Wall clock is
// bench/'s ledger.
//
// Usage:
//
//	benchsuite run [-filter RE] [-o FILE] [-q]
//	benchsuite compare BASELINE.json CANDIDATE.json
//	benchsuite list [-filter RE]
//	benchsuite sweep [-workload NAME | -file PROG] [-procs 1,2,4] [-schemes ss,gss]
//	                 [-access N] [-remote N] [-pool NAME] [-csv]
//
// `run` executes the scenario registry (or the -filter subset, matched
// against scenario names and tags — e.g. -filter smoke), each scenario
// twice: the two runs must agree exactly. It writes one value per metric,
// one scenario to a line. To profile the virtual engine, use
// `go test -run '^$' -bench VirtualServed -cpuprofile cpu.out .`.
//
// `compare` exits 0 when the candidate holds exactly the baseline's
// scenarios with exactly its values — only an adaptive scenario may get
// worse, by at most 10 % on makespan, utilization, overhead and
// accesses — and exits 1 after listing every violation otherwise.
//
// `sweep` prints the processors × schemes grid (speedup over a P=1 ss
// run, utilization, imbalance) of one built-in workload or program
// file, as a table or CSV: ad-hoc scenarios through the runner `run` uses.
//
// Examples:
//
//	benchsuite run -o BENCH_base.json
//	... hack on the scheduler ...
//	benchsuite run -o BENCH_new.json && benchsuite compare BENCH_base.json BENCH_new.json
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

// errRegression marks a compare failure so main can exit 1 (a value
// differs from the baseline) rather than 2 (usage or execution error).
var errRegression = errors.New("regression detected")

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
		outPath = fs.String("o", "BENCH.json", "output file")
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
	var logf func(string, ...any)
	if !*quiet {
		logf = func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) }
	}
	f, err := benchkit.Run(scs, logf)
	if err != nil {
		return err
	}
	if err := f.WriteFile(*outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d scenarios)\n", *outPath, len(f.Scenarios))
	return nil
}

func cmdCompare(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("compare takes exactly two result files, got %d", len(args))
	}
	base, err := benchkit.Load(args[0])
	if err != nil {
		return err
	}
	cand, err := benchkit.Load(args[1])
	if err != nil {
		return err
	}
	if viol := benchkit.Compare(base, cand); len(viol) > 0 {
		for _, v := range viol {
			fmt.Fprintf(out, "MISMATCH: %s\n", v)
		}
		return fmt.Errorf("%w: %d value(s) differ from %s", errRegression, len(viol), args[0])
	}
	fmt.Fprintf(out, "%d scenarios match %s\n", len(cand.Scenarios), args[0])
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
