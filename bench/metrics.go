package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// metricDef names one metric of BENCHMARK.json; bench_test.go checks the
// two lists below against that file.
type metricDef struct{ name, unit string }

// endToEnd is what BENCHMARK.json holds a change to, each with a bound.
// Every workload reports both from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// opTime is the three op-time metrics ISSUE 12 also named end-to-end. On
// the shared reference box their run-to-run spread on the serve workloads
// is 5-17 % (REPEATABILITY.md), past what a bound of at most 10 % allows,
// so by the issue's rule they are demoted: every run still measures and
// prints them (an op and a unit are defined per workload, README.md), the
// traced run reports them as per-layer metrics, and none has a bound.
var opTime = []metricDef{
	{"throughput", "units/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

func isOpTime(name string) bool {
	return slices.ContainsFunc(opTime, func(d metricDef) bool { return d.name == name })
}

// perLayer is the traced decomposition. Every traced run reports every
// name; a layer the workload bypasses reports 0 (README.md lists which).
var perLayer = append(slices.Clip(opTime), []metricDef{
	// Low level of the kernel: the O1 term of eq. (2).
	{"lowsched.o1_ns_per_chunk", "ns"},
	{"lowsched.chunks_per_iter", "count"},
	{"lowsched.calc_ns_per_chunk", "ns"},
	{"machine.fetchadd_ns", "ns"},
	{"machine.speedup_p", "x"},
	{"core.body_share", "share"},
	{"core.unaccounted_share", "share"},
	// High level of the kernel: O2 (SEARCH) and O3 (ENTER/EXIT).
	{"pool.o2_ns_per_search", "ns"},
	{"pool.walked_per_sweep", "count"},
	{"pool.lock_failure_share", "share"},
	{"core.o3_ns_per_instance", "ns"},
	{"core.icb_reuse_share", "share"},
	{"core.allocs_per_op", "count"},
	// Fixed per-run costs every served run pays.
	{"core.run_fixed_us", "us"},
	{"core.plan_us", "us"},
	{"descr.compile_us", "us"},
	{"lang.parse_us", "us"},
	{"vmachine.run_us", "us"},
	{"vmachine.util", "share"},
	{"runner.overhead_us", "us"},
	// Durability.
	{"journal.append_us", "us"},
	{"journal.append_sync_us", "us"},
	{"journal.records_per_op", "count"},
	{"journal.bytes_per_op", "bytes"},
	{"journal.replay_ms", "ms"},
	// Cluster.
	{"cluster.rpc_ms_p50", "ms"},
	{"cluster.forward_share", "share"},
	{"cluster.open_placements_end", "count"},
	{"cluster.stream_stall_share", "share"},
	{"loopschedd.cpu_ms_per_op.n1", "ms"},
	{"loopschedd.cpu_ms_per_op.n2", "ms"},
	{"loopschedd.cpu_ms_per_op.n3", "ms"},
	// Growth with the number of runs ever served.
	{"loopschedd.readyz_ms_first", "ms"},
	{"loopschedd.readyz_ms_last", "ms"},
	{"loopschedd.metrics_ms_last", "ms"},
	{"loopschedd.rss_kb_per_run", "kB"},
	// Client-side split of a served op.
	{"client.submit_ms_p50", "ms"},
	{"client.wait_ms_p50", "ms"},
	{"client.fetch_ms_p50", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.polls_per_op", "count"},
	{"client.cpu_ms_per_op", "ms"},
	{"serve.unaccounted_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"harness.tick_us", "us"},
}...)

// report prints defs in order with the values in m and returns them as
// the result's metric map. A value that was never set is a bug in the
// harness, not a measurement.
func report(out io.Writer, defs []metricDef, m map[string]float64) (map[string]metric, error) {
	res := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		fmt.Fprintf(out, "%-32s %16.6f %s\n", d.name, v, d.unit)
		res[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(m) != len(defs) {
		return nil, fmt.Errorf("%d values for %d declared metrics", len(m), len(defs))
	}
	return res, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how
// the repeatability contract measures spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // the i-th of 4 cut points
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
