package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runChild measures one workload in a fresh process of this same binary,
// copies what it prints to out and returns its result line. For an
// untraced run the op-time metrics it printed are added to the result's.
func runChild(out io.Writer, name string, seed int64, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, out)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
	}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 3 || traced || !isOpTime(f[0]) {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %q: %w", name, seed, line, err)
		}
		res.Metrics[f[0]] = metric{Value: v, Unit: f[2]}
	}
	return &res, nil
}

// declaredMetric is a metric as ../BENCHMARK.json declares it; only an
// end-to-end one has a bound.
type declaredMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of ../BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

// selfcheckRuns is the size of each of the self-check's two sets.
const selfcheckRuns = 10

// selfCheck measures the same code twice, as two alternating sets of
// runs, each run with its own seed, and holds the result against the
// bounds BENCHMARK.json declares: for every workload and end-to-end
// metric the spread of each set (interquartile range over median) must
// stay within the bound, and the second set's median must not be worse
// than the first's by more than it. setup_s is exempt from the spread
// rule, as in the acceptance procedure. The demoted op-time metrics are
// listed with their spread and no verdict. The report is markdown.
func selfCheck(out io.Writer, seed int64, seconds float64) int {
	data, err := os.ReadFile("../BENCHMARK.json")
	var decl benchmarkFile
	if err == nil {
		err = json.Unmarshal(data, &decl)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return 1
	}
	rows := decl.EndToEnd
	for _, d := range decl.PerLayer {
		if isOpTime(d.Name) {
			rows = append(rows, d) // its bound is 0: demoted
		}
	}

	// samples[set][workload][metric] in run order.
	var samples [2]map[string]map[string][]float64
	for set := range samples {
		samples[set] = map[string]map[string][]float64{}
		for _, name := range workloadNames {
			samples[set][name] = map[string][]float64{}
		}
	}
	for r := 0; r < selfcheckRuns; r++ {
		for set := range samples {
			for _, name := range workloadNames {
				res, err := runChild(io.Discard, name, seed+int64(2*r+set), seconds, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed\n", name, res.Failed, res.Attempted)
					return 1
				}
				for metric, v := range res.Metrics {
					samples[set][name][metric] = append(samples[set][name][metric], v.Value)
				}
			}
		}
	}

	fmt.Fprintf(out, "Two alternating sets of %d runs per workload, %g s cap, seeds %d..%d, nproc %d, %s, %s.\n\n",
		selfcheckRuns, seconds, seed, seed+int64(2*selfcheckRuns)-1, runtime.NumCPU(), runtime.Version(), kernelVersion())
	fmt.Fprintln(out, "| workload | metric | median A | median B | B worse by | IQR/median A | IQR/median B | bound | |")
	fmt.Fprintln(out, "|---|---|---:|---:|---:|---:|---:|---:|---|")
	code := 0
	worst := map[string]float64{} // per metric, the widest spread of any workload and set
	for _, name := range workloadNames {
		for _, d := range rows {
			a, b := samples[0][name][d.Name], samples[1][name][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := spread(a), spread(b)
			worst[d.Name] = max(worst[d.Name], spreadA, spreadB)
			bound, verdict := fmt.Sprintf("%.0f%%", 100*d.Bound), "PASS"
			switch {
			case d.Bound == 0:
				bound, verdict = "none", "demoted"
			case worse > d.Bound || (d.Name != "setup_s" && math.Max(spreadA, spreadB) > d.Bound):
				verdict, code = "FAIL", 1
			}
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %s | %s |\n",
				name, d.Name, ma, mb, 100*worse, 100*spreadA, 100*spreadB, bound, verdict)
		}
	}
	fmt.Fprintln(out, "\nOne bound per metric covers every workload; by the rule max(5 %, 2 x the widest IQR/median):")
	fmt.Fprintln(out)
	for _, d := range rows {
		declared := fmt.Sprintf("declared %.0f%%", 100*d.Bound)
		if d.Bound == 0 {
			declared = "demoted"
		}
		fmt.Fprintf(out, "- `%s`: widest spread %.2f%%, rule %.1f%%, %s\n",
			d.Name, 100*worst[d.Name], 100*max(0.05, 2*worst[d.Name]), declared)
	}
	fmt.Fprintln(out, "\nEvery run made, in run order (set A, then set B):")
	fmt.Fprintln(out)
	for _, name := range workloadNames {
		for _, d := range rows {
			fmt.Fprintf(out, "- `%s` `%s`: %s; %s\n", name, d.Name,
				formatRuns(samples[0][name][d.Name]), formatRuns(samples[1][name][d.Name]))
		}
	}
	return code
}

func formatRuns(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func kernelVersion() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown kernel"
	}
	return "Linux " + strings.TrimSpace(string(data))
}
