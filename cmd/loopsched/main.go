// Command loopsched runs a built-in workload under the two-level
// self-scheduling scheme and reports scheduling statistics.
//
// Usage:
//
//	loopsched -workload fig1 -procs 8 -scheme gss
//	loopsched -workload adjoint -n 512 -scheme tss -show-program
//	loopsched -workload wavefront -n 200 -scheme css:4 -access 5
//	loopsched -workload flat -diagnose
//	loopsched -workload flat -checkpoint-after 20 -checkpoint-out ck.json
//	loopsched -workload flat -resume ck.json
//	loopsched -list
//
// Workloads: fig1 (the paper's example program), adjoint, radjoint,
// triangular, wavefront, branchy, flat, many, random.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "loopsched: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI against the given arguments and output stream; it
// is separated from main for testing.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loopsched", flag.ContinueOnError)
	var (
		name        = fs.String("workload", "fig1", "workload name (see -list)")
		file        = fs.String("file", "", "run a mini-language program file instead of a built-in workload")
		list        = fs.Bool("list", false, "list workloads and exit")
		listSchemes = fs.Bool("list-schemes", false, "list scheduling schemes and exit")
		timeout     = fs.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = none)")
		n           = fs.Int64("n", 0, "workload size override")
		grain       = fs.Int64("grain", 0, "iteration grain override")
		seed        = fs.Int64("seed", 1, "seed for -workload random")
		showProgram = fs.Bool("show-program", false, "print the standardized program")
		showTables  = fs.Bool("show-tables", false, "print the DEPTH/BOUND and DESCRPT tables")
		gantt       = fs.Int("gantt", 0, "render a Gantt chart with the given width (0 = off)")
		hotspots    = fs.Int("hotspots", 0, "print the top-N contended variables (virtual engine)")
		showInstr   = fs.Bool("show-instr", false, "print the instrumented-program listing")
		jsonOut     = fs.Bool("json", false, "emit the run result as JSON")
		coalesce    = fs.Bool("coalesce", false, "apply implicit loop coalescing")
		diagnose    = fs.Bool("diagnose", false, "attach a flight recorder and print the scheduler diagnostic dump after the run")
		ckptOut     = fs.String("checkpoint-out", "", "file to write the checkpoint to (default stdout)")
		resumeFrom  = fs.String("resume", "", "resume from a checkpoint file written by -checkpoint-out")
	)
	// Every run option is a flag, declared once in repro.Options.
	opts := repro.Options{Procs: 8}
	repro.BindFlags(fs, &opts)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
		for _, w := range workload.Builtins {
			fmt.Fprintf(tw, "%s\t%s\n", w.Name, w.Desc)
		}
		tw.Flush()
		return nil
	}
	if *listSchemes {
		tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
		for _, d := range lowsched.Defs() {
			fmt.Fprintf(tw, "%s\t%s\n", strings.Join(d.Forms(), ", "), d.Help)
		}
		tw.Flush()
		return nil
	}

	var nest *loopir.Nest
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		nest, err = lang.Parse(string(src))
		if err != nil {
			return fmt.Errorf("%s: %v", *file, err)
		}
		*name = *file
	} else {
		w, ok := workload.Lookup(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (try -list)", *name)
		}
		nest = w.Make(*n, *grain, *seed)
	}

	var copts []repro.CompileOption
	if *coalesce {
		copts = append(copts, repro.WithCoalescing())
	}
	prog, err := repro.Compile(nest, copts...)
	if err != nil {
		return fmt.Errorf("compile: %v", err)
	}
	if *showProgram {
		fmt.Fprintf(out, "standardized program (%d innermost parallel loops):\n\n%s\n", prog.NumLoops(), prog)
	}
	if *showTables {
		fmt.Fprintf(out, "%s\n%s\n", prog.DepthBoundTable(), prog.DescriptorTable())
	}
	if *showInstr {
		fmt.Fprintf(out, "%s\n", prog.InstrumentationListing())
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts.CollectTrace = *gantt > 0
	var live repro.Live
	if *diagnose {
		opts.Diagnostics = true
		opts.FlightRecorder = 256
		opts.Observe = func(l repro.Live) { live = l }
	}
	if *resumeFrom != "" {
		src, err := os.ReadFile(*resumeFrom)
		if err != nil {
			return err
		}
		ck := &repro.Checkpoint{}
		if err := json.Unmarshal(src, ck); err != nil {
			return fmt.Errorf("%s: not a checkpoint: %v", *resumeFrom, err)
		}
		opts.Resume = ck
	}
	res, err := prog.RunContext(ctx, opts)
	var cke *repro.CheckpointedError
	if errors.As(err, &cke) {
		wire, err := json.MarshalIndent(cke.Checkpoint, "", "  ")
		if err != nil {
			return err
		}
		if *ckptOut != "" {
			if err := os.WriteFile(*ckptOut, wire, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "%v\ncheckpoint written to %s; resume the run with -resume %s\n",
				cke, *ckptOut, *ckptOut)
		} else {
			fmt.Fprintf(out, "%s\n", wire)
		}
		printDiagnostic(out, *diagnose, live)
		return nil
	}
	if err != nil {
		return runError(err, *timeout)
	}

	if *jsonOut {
		type jsonResult struct {
			Workload    string          `json:"workload"`
			Engine      string          `json:"engine"`
			Procs       int             `json:"procs"`
			Scheme      string          `json:"scheme"`
			Pool        string          `json:"pool"`
			Makespan    int64           `json:"makespan"`
			Utilization float64         `json:"utilization"`
			Busy        []int64         `json:"busy"`
			Stats       core.Snapshot   `json:"stats"`
			HotSpots    []repro.HotSpot `json:"hot_spots,omitempty"`
		}
		payload := jsonResult{
			Workload: *name, Engine: orDefault(string(opts.Engine), "virtual"),
			Procs: res.Procs, Scheme: res.SchemeName, Pool: orDefault(opts.Pool, "per-loop"),
			Makespan: res.Makespan, Utilization: res.Utilization,
			Busy: res.Busy, Stats: res.Stats, HotSpots: res.HotSpots,
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload); err != nil {
			return err
		}
		return nil
	}

	fmt.Fprintf(out, "workload     %s\n", *name)
	fmt.Fprintf(out, "engine       %s, P=%d\n", orDefault(string(opts.Engine), "virtual"), res.Procs)
	fmt.Fprintf(out, "scheme       %s\n", res.SchemeName)
	fmt.Fprintf(out, "makespan     %d\n", res.Makespan)
	fmt.Fprintf(out, "utilization  %.4f\n", res.Utilization)
	s := res.Stats
	fmt.Fprintf(out, "instances    %d   iterations %d   chunks %d\n", s.Instances, s.Iterations, s.Chunks)
	fmt.Fprintf(out, "searches     %d   enters %d   exits %d   zero-trips %d\n",
		s.Searches, s.Enters, s.Exits, s.ZeroTrips)
	// The whole eq. (1) budget: P x makespan is body + overheads + the
	// processor time the kernel attributed to neither.
	fmt.Fprintf(out, "overheads    O1=%d  O2=%d  O3=%d  dispatch=%d  body=%d  unaccounted=%d\n",
		s.O1Time, s.O2Time, s.O3Time, s.DispatchTime, s.BodyTime,
		int64(res.Procs)*res.Makespan-s.AccountedTime())
	fmt.Fprintf(out, "pool         sweeps %d  walked %d  lock-failures %d  retests %d  saturated %d\n",
		s.Search.Sweeps, s.Search.Walked, s.Search.LockFailures, s.Search.Retests, s.Search.Saturated)
	if s.AdaptFits > 0 || s.AdaptSwitches > 0 {
		fmt.Fprintf(out, "adaptive     fits %d  switches %d\n", s.AdaptFits, s.AdaptSwitches)
	}
	if opts.Verify {
		fmt.Fprintln(out, "verify       OK (exactly-once execution, macro-dataflow precedence)")
	}
	if *gantt > 0 {
		fmt.Fprintf(out, "\n%s", res.GanttChart(*gantt))
	}
	if *hotspots > 0 {
		fmt.Fprintln(out, "\nhot spots (queueing time at the memory module):")
		for i, h := range res.HotSpots {
			if i >= *hotspots {
				break
			}
			fmt.Fprintf(out, "  %-12s accesses %8d   wait %10d\n", h.Name, h.Accesses, h.Wait)
		}
	}
	printDiagnostic(out, *diagnose, live)
	return nil
}

// printDiagnostic dumps the executor's scheduling state — including the
// flight recorder's tail of the last scheduler events — when -diagnose
// captured a live probe.
func printDiagnostic(out io.Writer, enabled bool, live repro.Live) {
	if !enabled || live == nil {
		return
	}
	if d, ok := live.(core.Diagnoser); ok {
		fmt.Fprintf(out, "\ndiagnostic dump:\n%s", d.Diagnose())
	}
}

// runError maps the typed option errors to messages that include the
// valid value sets, so a mistyped flag tells the user what would work.
func runError(err error, timeout time.Duration) error {
	switch {
	case errors.Is(err, repro.ErrBadScheme):
		return fmt.Errorf("%v\nvalid schemes: %s", err, strings.Join(repro.KnownSchemes(), ", "))
	case errors.Is(err, repro.ErrUnknownEngine):
		return fmt.Errorf("%v\nvalid engines: %s", err, strings.Join(repro.KnownEngines(), ", "))
	case errors.Is(err, repro.ErrUnknownPool):
		return fmt.Errorf("%v\nvalid pools: %s", err, strings.Join(repro.KnownPools(), ", "))
	case errors.Is(err, repro.ErrBadClaim):
		return fmt.Errorf("%v\n-claim-batch and -sw-shards must be nonnegative, and batching needs a cursor (dynamic) scheme", err)
	case errors.Is(err, repro.ErrNotCheckpointable):
		return fmt.Errorf("%v\ncheckpointing needs a dynamic scheme and the default failure policy", err)
	case errors.Is(err, repro.ErrBadCheckpoint), errors.Is(err, repro.ErrBadSnapshot):
		return fmt.Errorf("%v\nthe -resume file must come from -checkpoint-out for the same program and options", err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("run aborted: -timeout %v expired", timeout)
	}
	return fmt.Errorf("run: %v", err)
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}
