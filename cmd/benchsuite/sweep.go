package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/benchkit"
	"repro/internal/experiments"
	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/workload"
)

// cmdSweep is the processors × schemes grid over one workload — the
// standard way to read a loop-scheduling result — as a view over the
// ledger: each cell is an ad-hoc scenario run through benchkit.Run, and
// speedup is read against a P=1 ss run of the same workload.
func cmdSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchsuite sweep", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "adjoint", "built-in workload name (loopsched -list)")
		file    = fs.String("file", "", "mini-language program file instead of a built-in workload")
		procs   = fs.String("procs", "1,2,4,8,16", "comma-separated processor counts")
		schemes = fs.String("schemes", "ss,css:8,gss,tss,fsc", "comma-separated scheme specs")
		access  = fs.Int64("access", 10, "synchronization access cost")
		remote  = fs.Int64("remote", 0, "NUMA remote-access penalty")
		pool    = fs.String("pool", "per-loop", "task pool: "+strings.Join(repro.KnownPools(), ", "))
		csvOut  = fs.Bool("csv", false, "emit CSV instead of a table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var nest func() *loopir.Nest
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		if _, err := lang.Parse(string(src)); err != nil {
			return fmt.Errorf("%s: %v", *file, err)
		}
		nest = func() *loopir.Nest { return lang.MustParse(string(src)) }
		*name = *file
	} else {
		w, ok := workload.Lookup(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (try loopsched -list)", *name)
		}
		nest = func() *loopir.Nest { return w.Make(0, 0, 1) }
	}

	var ps []int
	for _, s := range strings.Split(*procs, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			return fmt.Errorf("bad processor count %q", s)
		}
		ps = append(ps, p)
	}

	cell := func(p int, spec string) benchkit.Scenario {
		return benchkit.Scenario{
			Name:     fmt.Sprintf("%s/%s/P=%d/virtual", *name, spec, p),
			Workload: *name,
			Nest:     nest,
			Opts: repro.Options{
				Procs: p, Scheme: spec, Pool: *pool,
				AccessCost: *access, RemotePenalty: *remote,
			},
		}
	}
	serial := cell(1, "ss")
	serial.Name = *name + "/serial"
	scs := []benchkit.Scenario{serial}
	var labels []string // the scheme's display name, per cell
	for _, spec := range strings.Split(*schemes, ",") {
		sch, err := lowsched.Parse(spec)
		if err != nil {
			return err
		}
		for _, p := range ps {
			scs = append(scs, cell(p, spec))
			labels = append(labels, sch.Name())
		}
	}
	f, err := benchkit.Run(scs, nil)
	if err != nil {
		return err
	}

	// Result 0 is the serial baseline; every other result is one grid
	// cell, run from scs[i+1].
	cells := f.Scenarios[1:]
	procsOf := func(i int) int { return scs[i+1].Opts.Procs }
	val := func(i int, metric string) float64 { return cells[i].Metrics[metric] }
	speedup := func(i int) float64 { return f.Scenarios[0].Metrics["makespan"] / val(i, "makespan") }
	if *csvOut {
		// csv.Writer keeps the first write error; Error reports it after Flush.
		cw := csv.NewWriter(out)
		cw.Write([]string{"procs", "scheme", "makespan", "utilization", "speedup", "imbalance", "chunks", "searches"})
		for i := range cells {
			cw.Write([]string{
				strconv.Itoa(procsOf(i)), labels[i],
				strconv.FormatInt(int64(val(i, "makespan")), 10),
				strconv.FormatFloat(val(i, "utilization"), 'f', 4, 64),
				strconv.FormatFloat(speedup(i), 'f', 3, 64),
				strconv.FormatFloat(val(i, "imbalance"), 'f', 3, 64),
				strconv.FormatInt(int64(val(i, "chunks")), 10),
				strconv.FormatInt(int64(val(i, "searches")), 10),
			})
		}
		cw.Flush()
		return cw.Error()
	}
	tb := experiments.NewTable(fmt.Sprintf("sweep: %s (access %d, pool %s)", *name, *access, *pool),
		"P", "scheme", "makespan", "eta", "speedup", "imbalance", "chunks")
	for i := range cells {
		tb.Add(procsOf(i), labels[i], int64(val(i, "makespan")), val(i, "utilization"),
			speedup(i), val(i, "imbalance"), int64(val(i, "chunks")))
	}
	_, err = fmt.Fprint(out, tb)
	return err
}
