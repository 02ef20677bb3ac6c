// Command experiments regenerates the paper's figures and analytic
// results (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
// recorded outcomes).
//
// Usage:
//
//	experiments              # run everything, report to stdout
//	experiments -exp E2      # run one experiment
//	experiments -list        # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI against the given arguments and output stream; it
// is separated from main for testing.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp  = fs.String("exp", "", "run a single experiment by ID (e.g. F4, E2)")
		list = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-3s %s\n", e.ID, e.Title)
		}
		return nil
	}

	if *exp != "" {
		e, ok := experiments.ByID(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *exp)
		}
		fmt.Fprintf(out, "%s — %s\n\n", e.ID, e.Title)
		v, err := e.Run(out)
		if err != nil {
			return err
		}
		v.Write(out)
		if !v.OK() {
			return fmt.Errorf("experiment %s has failing shape checks", e.ID)
		}
		return nil
	}

	return experiments.RunAll(out)
}
