// Command dotgraph emits the macro-dataflow graph (the paper's Fig. 4) of
// a built-in workload (the table loopsched -list prints) in Graphviz DOT
// format.
//
// Usage:
//
//	dotgraph               # Fig. 1's graph
//	dotgraph -workload triangular -n 6 | dot -Tsvg > graph.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dotgraph: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI against the given arguments and output stream; it
// is separated from main for testing.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dotgraph", flag.ContinueOnError)
	var (
		name = fs.String("workload", "fig1", "built-in workload name (loopsched -list)")
		n    = fs.Int64("n", 0, "size override (the defaults are sized for timing runs; a readable graph wants a small one)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, ok := workload.Lookup(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	prog, err := repro.Compile(w.Make(*n, 0, 1))
	if err != nil {
		return err
	}
	fmt.Fprint(out, prog.GraphDOT())
	return nil
}
