// Command bench is the repository's benchmark: four workloads, five
// end-to-end metrics and a per-layer trace, as declared in
// ../BENCHMARK.json and explained in README.md.
//
//	bash bench/run.sh --workload kernel_fine --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh                 # every workload, untraced then traced
//	bash bench/run.sh -selfcheck      # repeatability report (REPEATABILITY.md)
//
// One invocation with -workload measures one workload in this process and
// prints every metric by name with its unit, then one JSON object as the
// last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run in this process: "+fmt.Sprint(workloadNames)+" (\"\" = each in a child process)")
		seed      = fs.Int64("seed", 1, "input seed: perturbs the kernel nest sizes and permutes the served program cycle")
		seconds   = fs.Float64("seconds", 24, "wall cap of a measure phase; its length is the workload's fixed op count")
		trace     = fs.Int("trace", 0, "1 = traced run: per-layer metrics and out/<workload>.trace.json instead of end-to-end metrics")
		selfcheck = fs.Bool("selfcheck", false, "run two alternating sets of ten runs per workload and print the repeatability report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}

	// Children must not outlive the harness, whichever way it ends.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	switch {
	case *selfcheck:
		return selfCheck(out, *seed, *seconds)
	case *name == "":
		return runAll(out, *seed, *seconds)
	}
	res, err := runWorkload(out, *name, *seed, *seconds, *trace == 1, reference)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll measures every workload in a fresh child process each, untraced
// and then traced, so one command prints every declared metric.
func runAll(out io.Writer, seed int64, seconds float64) int {
	code := 0
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			if _, err := runChild(out, name, seed, seconds, traced); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				code = 1
			}
		}
	}
	return code
}
