package experiments

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/workload"
)

// calibrate extracts the Section-IV model parameters from a run's
// measured overhead decomposition.
func calibrate(res *repro.Result, tau float64) model.Params {
	s := res.Stats
	p := model.Params{Tau: tau}
	if s.Iterations > 0 {
		p.O1 = float64(s.O1Time) / float64(s.Iterations)
	}
	if s.Searches > 0 {
		p.O2 = float64(s.O2Time) / float64(s.Searches)
		p.NIter = float64(s.Iterations) / float64(s.Searches)
	}
	if s.Exits > 0 {
		p.O3 = float64(s.O3Time) / float64(s.Exits)
	}
	if s.Instances > 0 {
		p.N = float64(s.Iterations) / float64(s.Instances)
	}
	return p
}

// runE1 validates eq. (1) on a flat self-scheduled loop: measured
// utilization against the model evaluated with measured O1, O2, O3, n, N.
func runE1(w io.Writer) (Verdict, error) {
	var v Verdict
	const (
		P     = 8
		iters = 2000
		acc   = 10
	)
	taus := []int64{20, 50, 100, 200, 500, 1000, 2000}
	tb := NewTable(
		fmt.Sprintf("eq. (1) validation: flat Doall, N=%d, P=%d, access cost %d, SS", iters, P, acc),
		"tau", "eta measured", "eta model", "rel err", "O1/iter", "n", "N")
	var etas []float64
	relErrCoarse := -1.0
	for _, tau := range taus {
		res, err := repro.Execute(workload.UniformDoall(iters, tau),
			repro.Options{Procs: P, AccessCost: acc, Scheme: "ss", Verify: true})
		if err != nil {
			return v, err
		}
		meas := res.Utilization
		p := calibrate(res, float64(tau))
		pred := model.Utilization(p)
		re := RelErr(meas, pred)
		tb.Add(tau, meas, pred, re, p.O1, p.NIter, p.N)
		etas = append(etas, meas)
		relErrCoarse = re
	}
	fmt.Fprintf(w, "%s\n", tb)
	mono := true
	for i := 1; i < len(etas); i++ {
		if etas[i] < etas[i-1] {
			mono = false
		}
	}
	v.check("eta rises with grain tau", mono, "etas = %v", etas)
	v.check("fine grain hurts utilization", etas[0] < 0.8*etas[len(etas)-1],
		"eta(tau=%d)=%.3f vs eta(tau=%d)=%.3f", taus[0], etas[0], taus[len(taus)-1], etas[len(etas)-1])
	v.check("model matches at coarse grain", relErrCoarse < 0.1,
		"rel err at tau=%d is %.3f", taus[len(taus)-1], relErrCoarse)
	v.check("coarse grain near-perfect utilization", etas[len(etas)-1] > 0.9,
		"eta = %.3f", etas[len(etas)-1])
	return v, nil
}

// runE2 sweeps the CSS chunk size, showing the interior optimum predicted
// by eq. (2)/(7).
func runE2(w io.Writer) (Verdict, error) {
	var v Verdict
	const (
		P     = 8
		iters = 4096
		tau   = 30
		acc   = 15
	)
	ks := []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	tb := NewTable(
		fmt.Sprintf("eq. (2)/(7): CSS(k) sweep, flat Doall N=%d tau=%d, P=%d, access cost %d", iters, tau, P, acc),
		"k", "eta measured", "eta model", "makespan", "chunks")
	type pt struct {
		k   int64
		eta float64
	}
	var pts []pt
	for _, k := range ks {
		res, err := repro.Execute(workload.UniformDoall(iters, tau),
			repro.Options{Procs: P, AccessCost: acc, Scheme: fmt.Sprintf("css:%d", k), Verify: true})
		if err != nil {
			return v, err
		}
		meas := res.Utilization
		p := calibrate(res, tau)
		pred := model.UtilizationChunked(p, model.ConstO2(p.O2), float64(k))
		tb.Add(k, meas, pred, res.Makespan, res.Stats.Chunks)
		pts = append(pts, pt{k, meas})
	}
	fmt.Fprintf(w, "%s\n", tb)
	best := pts[0]
	for _, p := range pts {
		if p.eta > best.eta {
			best = p
		}
	}
	fmt.Fprintf(w, "measured optimal k = %d (eta %.3f)\n\n", best.k, best.eta)
	v.check("interior optimal chunk exists", best.k > 1 && best.k < ks[len(ks)-1],
		"k* = %d", best.k)
	v.check("optimum beats k=1 (overhead amortized)", best.eta > pts[0].eta*1.05,
		"eta(k*)=%.3f vs eta(1)=%.3f", best.eta, pts[0].eta)
	last := pts[len(pts)-1]
	v.check("oversized chunks lose (imbalance)", best.eta > last.eta*1.2,
		"eta(k*)=%.3f vs eta(%d)=%.3f", best.eta, last.k, last.eta)
	return v, nil
}

// runE3 measures the Section-I claim: chunk-scheduling a distance-1
// Doacross loop forfeits about (k-1)/k of the overlappable work.
func runE3(w io.Writer) (Verdict, error) {
	var v Verdict
	const (
		P    = 8
		n    = 240
		head = 10
		tail = 90
		acc  = 2
	)
	ks := []int64{1, 2, 3, 4, 5, 6, 8}
	tb := NewTable(
		fmt.Sprintf("Doacross chunking: wavefront n=%d head=%d tail=%d dist=1, P=%d", n, head, tail, P),
		"k", "makespan", "model T(k)", "overlap lost (meas)", "overlap lost (model)")
	dp := model.DoacrossParams{N: n, Head: head, Tail: tail, P: P}
	var makespans []int64
	var t1 float64
	for _, k := range ks {
		res, err := repro.Execute(workload.Wavefront(n, 1, head, tail),
			repro.Options{Procs: P, AccessCost: acc, Scheme: fmt.Sprintf("css:%d", k), Verify: true})
		if err != nil {
			return v, err
		}
		ms := float64(res.Makespan)
		if k == 1 {
			t1 = ms
		}
		lost := (ms - t1) / float64(n*tail)
		tb.Add(k, res.Makespan, model.DoacrossTime(dp, float64(k)), lost, model.OverlapLoss(float64(k)))
		makespans = append(makespans, res.Makespan)
	}
	fmt.Fprintf(w, "%s\n", tb)
	mono := true
	for i := 1; i < len(makespans); i++ {
		if makespans[i] < makespans[i-1] {
			mono = false
		}
	}
	v.check("completion time grows with chunk size", mono, "makespans = %v", makespans)
	// k=5: the paper's "about four out of five iterations cannot be
	// overlapped".
	k5 := float64(makespans[4])
	lost5 := (k5 - t1) / float64(n*tail)
	v.check("k=5 loses about 4/5 of the overlap", lost5 > 0.6 && lost5 < 1.0,
		"measured loss %.2f vs model 0.80", lost5)
	ratio := k5 / t1
	mratio := model.DoacrossTime(dp, 5) / model.DoacrossTime(dp, 1)
	v.check("k=5 slowdown matches the model ratio", RelErr(ratio, mratio) < 0.3,
		"measured %.2fx vs model %.2fx", ratio, mratio)
	return v, nil
}

// runE4 compares the low-level schemes on irregular workloads.
func runE4(w io.Writer) (Verdict, error) {
	var v Verdict
	const P = 8
	schemes := []string{"ss", "css:8", "css:64", "gss", "tss", "fsc", "afs"}
	type result struct {
		name      string
		makespan  int64
		eta       float64
		imbalance float64
		chunks    int64
	}
	workloads := []struct {
		name string
		mk   func() *loopir.Nest
		acc  int64
	}{
		{"adjoint n=512 (decreasing cost)", func() *loopir.Nest { return workload.AdjointConvolution(512, 4) }, 10},
		{"reverse adjoint n=512 (increasing cost)", func() *loopir.Nest { return workload.ReverseAdjoint(512, 4) }, 10},
		{"triangular n=48 grain=60", func() *loopir.Nest { return workload.Triangular(48, 60) }, 10},
		{"branchy n=24 (40:1 branch cost)", func() *loopir.Nest { return workload.Branchy(24, 64, 16, 200, 5) }, 10},
	}
	results := map[string]map[string]result{}
	for _, wl := range workloads {
		tb := NewTable("scheme comparison: "+wl.name+fmt.Sprintf(" (P=%d)", P),
			"scheme", "makespan", "eta", "imbalance", "chunks")
		results[wl.name] = map[string]result{}
		var busies []int64
		for _, s := range schemes {
			res, err := repro.Execute(wl.mk(),
				repro.Options{Procs: P, AccessCost: wl.acc, Scheme: s, Verify: true})
			if err != nil {
				return v, err
			}
			r := result{
				name:      res.SchemeName,
				makespan:  res.Makespan,
				eta:       res.Utilization,
				imbalance: machine.Imbalance(res.Busy),
				chunks:    res.Stats.Chunks,
			}
			results[wl.name][r.name] = r
			var busy int64
			for _, b := range res.Busy {
				busy += b
			}
			busies = append(busies, busy)
			tb.Add(r.name, r.makespan, r.eta, r.imbalance, r.chunks)
		}
		fmt.Fprintf(w, "%s\n", tb)
		same := true
		for _, b := range busies {
			if b != busies[0] {
				same = false
			}
		}
		v.check("work conservation on "+wl.name, same, "per-scheme busy totals %v", busies)
	}
	adj := results[workloads[0].name]
	radj := results[workloads[1].name]
	v.check("GSS beats large fixed chunks on increasing workload",
		float64(radj["GSS"].makespan)*1.3 < float64(radj["CSS(64)"].makespan),
		"GSS %d vs CSS(64) %d", radj["GSS"].makespan, radj["CSS(64)"].makespan)
	v.check("on decreasing workload GSS's oversized first chunk hurts; TSS repairs it",
		adj["TSS"].makespan < adj["GSS"].makespan,
		"TSS %d vs GSS %d (the known GSS pathology factoring/trapezoid address)",
		adj["TSS"].makespan, adj["GSS"].makespan)
	v.check("factoring also repairs the decreasing workload",
		adj["FSC"].makespan < adj["GSS"].makespan,
		"FSC %d vs GSS %d", adj["FSC"].makespan, adj["GSS"].makespan)
	v.check("GSS needs far fewer chunks than SS",
		adj["GSS"].chunks*4 < adj["SS"].chunks,
		"GSS %d chunks vs SS %d", adj["GSS"].chunks, adj["SS"].chunks)
	gssChunksPerInstance := model.GSSChunkCount(512, P)
	v.check("GSS chunk count matches the [14] series",
		RelErr(float64(adj["GSS"].chunks), float64(gssChunksPerInstance)) < 0.5,
		"measured %d vs series %d", adj["GSS"].chunks, gssChunksPerInstance)
	v.check("affinity scheduling's stealing repairs the decreasing workload",
		adj["AFS"].makespan < adj["CSS(64)"].makespan,
		"AFS %d vs CSS(64) %d", adj["AFS"].makespan, adj["CSS(64)"].makespan)
	return v, nil
}

// The many-instance workload of E5, E9 and E11: m innermost loops
// activated as many small instances, so SEARCH and the pool do the work.
const (
	manyLoops     = 12
	manyInstances = 96
	manyIters     = 4
	manyGrain     = 30
	manyAccess    = 10
)

// runMany runs the many-instance workload on P processors with the given
// pool and remote-access penalty, and returns its makespan.
func runMany(P int, pool string, penalty int64) (int64, error) {
	res, err := repro.Execute(workload.ManyInstances(manyLoops, manyInstances, manyIters, manyGrain),
		repro.Options{Procs: P, AccessCost: manyAccess, Pool: pool, RemotePenalty: penalty, Verify: true})
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// runE5 compares the paper's m parallel linked lists against a single
// shared list.
func runE5(w io.Writer) (Verdict, error) {
	var v Verdict
	tb := NewTable(
		fmt.Sprintf("task pool scaling: %d loops, %d instances x %d iterations, grain %d",
			manyLoops, manyInstances, manyIters, manyGrain),
		"P", "multi-list makespan", "single-list makespan", "single/multi")
	ratios := map[int]float64{}
	for _, P := range []int{2, 4, 8, 16} {
		multi, err := runMany(P, "per-loop", 0)
		if err != nil {
			return v, err
		}
		single, err := runMany(P, "single-list", 0)
		if err != nil {
			return v, err
		}
		ratio := float64(single) / float64(multi)
		ratios[P] = ratio
		tb.Add(P, multi, single, ratio)
	}
	fmt.Fprintf(w, "%s\n", tb)
	v.check("multiple lists win at high processor counts", ratios[16] > 1.0,
		"single/multi at P=16 = %.2f", ratios[16])
	v.check("single-list penalty grows with P", ratios[16] > ratios[2],
		"ratio P=16 %.2f vs P=2 %.2f", ratios[16], ratios[2])
	return v, nil
}

// runE6 quantifies the motivation of Section I: self-scheduling avoids
// the cost of involving the operating system on every dispatch.
func runE6(w io.Writer) (Verdict, error) {
	var v Verdict
	cfg := workload.DefaultFig1()
	cfg.NI, cfg.NJ, cfg.NK = 4, 4, 4
	cfg.NA, cfg.NB, cfg.NC, cfg.ND, cfg.NE, cfg.NF, cfg.NG, cfg.NH = 16, 16, 16, 16, 16, 16, 16, 16
	cfg.IterCost = 100
	dispatches := []int64{0, 200, 2000, 20000}
	tb := NewTable("self-scheduling vs OS-involved dispatch (Fig. 1 workload, P=8)",
		"dispatch cost", "makespan", "eta", "dispatch time share")
	var etas []float64
	for _, d := range dispatches {
		res, err := repro.Execute(workload.Fig1(cfg),
			repro.Options{Procs: 8, AccessCost: 10, DispatchCost: d, Verify: true})
		if err != nil {
			return v, err
		}
		share := float64(res.Stats.DispatchTime) / (float64(res.Makespan) * 8)
		tb.Add(d, res.Makespan, res.Utilization, share)
		etas = append(etas, res.Utilization)
	}
	fmt.Fprintf(w, "%s\n", tb)
	mono := true
	for i := 1; i < len(etas); i++ {
		if etas[i] > etas[i-1] {
			mono = false
		}
	}
	v.check("utilization falls with dispatch cost", mono, "etas = %v", etas)
	v.check("self-scheduling clearly beats heavyweight dispatch",
		etas[0] > 1.5*etas[len(etas)-1],
		"eta(self)=%.3f vs eta(OS)=%.3f", etas[0], etas[len(etas)-1])
	return v, nil
}

// runE7 compares serialized and combining fetch-and-add on the hot
// shared index (the hardware note of Section II-A).
func runE7(w io.Writer) (Verdict, error) {
	var v Verdict
	const (
		iters = 2000
		tau   = 5
		acc   = 10
	)
	tb := NewTable(
		fmt.Sprintf("combining vs serialized fetch-and-add: flat Doall N=%d tau=%d, access cost %d", iters, tau, acc),
		"P", "serialized makespan", "combining makespan", "serialized/combining")
	ratios := map[int]float64{}
	for _, P := range []int{2, 4, 8, 16} {
		ser, err := repro.Execute(workload.UniformDoall(iters, tau),
			repro.Options{Procs: P, AccessCost: acc, Scheme: "ss", Verify: true})
		if err != nil {
			return v, err
		}
		comb, err := repro.Execute(workload.UniformDoall(iters, tau),
			repro.Options{Procs: P, AccessCost: acc, Scheme: "ss", Combining: true, Verify: true})
		if err != nil {
			return v, err
		}
		r := float64(ser.Makespan) / float64(comb.Makespan)
		ratios[P] = r
		tb.Add(P, ser.Makespan, comb.Makespan, r)
	}
	fmt.Fprintf(w, "%s\n", tb)
	v.check("combining wins on the hot index at P=16", ratios[16] > 1.5,
		"ratio = %.2f", ratios[16])
	v.check("hot-spot penalty grows with P", ratios[16] > ratios[2],
		"P=16 %.2f vs P=2 %.2f", ratios[16], ratios[2])
	return v, nil
}

// runE8 exercises the paper's Section II-B remark that the scheme "can be
// easily extended to accommodate such vertical parallelism" (PCF Fortran
// parallel sections): three unequal section bodies run concurrently via
// the sections lowering, against the same bodies in sequence.
func runE8(w io.Writer) (Verdict, error) {
	var v Verdict
	sec := func(name string, iters, grain int64) func(b *loopir.B) {
		return func(b *loopir.B) {
			b.DoallLeaf(name, loopir.Const(iters), func(e loopir.Env, iv loopir.IVec, j int64) {
				e.Work(grain)
			})
		}
	}
	secs := []struct {
		name         string
		iters, grain int64
	}{
		{"FFT", 24, 200}, {"FILTER", 48, 50}, {"STATS", 8, 100},
	}
	mk := func(parallel bool) *loopir.Nest {
		return loopir.MustBuild(func(b *loopir.B) {
			if parallel {
				b.Sections("PAR",
					sec(secs[0].name, secs[0].iters, secs[0].grain),
					sec(secs[1].name, secs[1].iters, secs[1].grain),
					sec(secs[2].name, secs[2].iters, secs[2].grain))
			} else {
				for _, sc := range secs {
					sec(sc.name, sc.iters, sc.grain)(b)
				}
			}
		})
	}
	tb := NewTable("parallel sections vs serialized sections (P=8)",
		"layout", "makespan", "eta")
	var par, ser int64
	for _, parallel := range []bool{false, true} {
		res, err := repro.Execute(mk(parallel), repro.Options{Procs: 8, AccessCost: 5, Verify: true})
		if err != nil {
			return v, err
		}
		name := "serialized"
		if parallel {
			name = "sections"
			par = res.Makespan
		} else {
			ser = res.Makespan
		}
		tb.Add(name, res.Makespan, res.Utilization)
	}
	fmt.Fprintf(w, "%s\n", tb)
	v.check("sections overlap the three bodies", float64(par) < 0.75*float64(ser),
		"sections %d vs serialized %d", par, ser)
	return v, nil
}

// runE9 compares the paper's per-loop lists against a single shared list
// and a per-processor work-stealing pool (the Section III-A remark that
// "other parallel data structures ... can also be used to implement the
// task pool").
func runE9(w io.Writer) (Verdict, error) {
	var v Verdict
	kinds := []string{"per-loop", "single-list", "distributed"}
	tb := NewTable(
		fmt.Sprintf("task-pool structures: %d loops, %d instances x %d iterations, grain %d",
			manyLoops, manyInstances, manyIters, manyGrain),
		"P", "per-loop", "single-list", "distributed")
	makespans := map[string]map[int]int64{}
	for _, k := range kinds {
		makespans[k] = map[int]int64{}
	}
	for _, P := range []int{2, 4, 8, 16} {
		row := []any{P}
		for _, k := range kinds {
			ms, err := runMany(P, k, 0)
			if err != nil {
				return v, err
			}
			makespans[k][P] = ms
			row = append(row, ms)
		}
		tb.Add(row...)
	}
	fmt.Fprintf(w, "%s\n", tb)
	v.check("per-loop lists beat the single list at P=16",
		makespans["per-loop"][16] < makespans["single-list"][16],
		"per-loop %d vs single %d",
		makespans["per-loop"][16], makespans["single-list"][16])
	v.check("the work-stealing pool also beats the single list at P=16",
		makespans["distributed"][16] < makespans["single-list"][16],
		"distributed %d vs single %d",
		makespans["distributed"][16], makespans["single-list"][16])
	ratio := float64(makespans["distributed"][16]) / float64(makespans["per-loop"][16])
	v.check("per-loop and distributed pools are within 3x of each other",
		ratio > 1.0/3 && ratio < 3,
		"distributed/per-loop at P=16 = %.2f", ratio)
	return v, nil
}

// runE10 reproduces the paper's Section-I motivation (and its [23]
// discussion): with predictable uniform iterations static pre-scheduling
// is unbeatable (zero scheduling overhead), but once iteration times vary
// — monotone trends or data-dependent branches — static assignments
// cannot rebalance and dynamic self-scheduling wins.
func runE10(w io.Writer) (Verdict, error) {
	var v Verdict
	const P = 8
	schemes := []string{"static-block", "static-cyclic", "ss", "css:16", "gss", "fsc"}
	loads := []struct {
		name string
		mk   func() *loopir.Nest
	}{
		{"uniform n=2048 tau=100", func() *loopir.Nest { return workload.UniformDoall(2048, 100) }},
		{"decreasing (adjoint n=512)", func() *loopir.Nest { return workload.AdjointConvolution(512, 4) }},
		{"bimodal n=2048 (10 vs 1000, 1/16 heavy)", func() *loopir.Nest {
			return workload.BimodalDoall(2048, 10, 1000, 16, 99)
		}},
	}
	results := map[string]map[string]int64{}
	for _, wl := range loads {
		tb := NewTable("static vs dynamic: "+wl.name+fmt.Sprintf(" (P=%d)", P),
			"scheme", "makespan", "eta", "imbalance")
		results[wl.name] = map[string]int64{}
		for _, s := range schemes {
			res, err := repro.Execute(wl.mk(),
				repro.Options{Procs: P, AccessCost: 10, Scheme: s, Verify: true})
			if err != nil {
				return v, err
			}
			results[wl.name][res.SchemeName] = res.Makespan
			tb.Add(res.SchemeName, res.Makespan, res.Utilization, machine.Imbalance(res.Busy))
		}
		fmt.Fprintf(w, "%s\n", tb)
	}
	uni := results[loads[0].name]
	bestDynUni := min(uni["SS"], uni["CSS(16)"], uni["GSS"], uni["FSC"])
	v.check("uniform load: static block matches the best dynamic scheme",
		float64(uni["static-block"]) <= 1.05*float64(bestDynUni),
		"static-block %d vs best dynamic %d (low variance favors static, per [23])",
		uni["static-block"], bestDynUni)
	dec := results[loads[1].name]
	bestDynDec := min(dec["SS"], dec["CSS(16)"], dec["GSS"], dec["FSC"])
	v.check("decreasing load: static block collapses",
		float64(dec["static-block"]) > 1.5*float64(bestDynDec),
		"static-block %d vs best dynamic %d", dec["static-block"], bestDynDec)
	v.check("decreasing load: static cyclic survives the monotone trend",
		float64(dec["static-cyclic"]) < 1.2*float64(bestDynDec),
		"static-cyclic %d vs best dynamic %d", dec["static-cyclic"], bestDynDec)
	bim := results[loads[2].name]
	bestDynBim := min(bim["SS"], bim["CSS(16)"], bim["GSS"], bim["FSC"])
	worstStatic := bim["static-block"]
	if bim["static-cyclic"] > worstStatic {
		worstStatic = bim["static-cyclic"]
	}
	v.check("unpredictable load: dynamic self-scheduling wins",
		float64(worstStatic) > 1.08*float64(bestDynBim),
		"worst static %d vs best dynamic %d", worstStatic, bestDynBim)
	return v, nil
}

// runE11 models the paper's other Section-I motivation: "the location of
// data in a memory hierarchy ... can cause memory access time to vary
// widely". Synchronization variables live on the memory module of their
// first toucher; remote accesses pay a penalty. The per-processor
// work-stealing pool keeps its lists local and degrades less than the
// paper's shared per-loop lists as the remote penalty grows.
func runE11(w io.Writer) (Verdict, error) {
	var v Verdict
	const P = 8
	tb := NewTable(
		fmt.Sprintf("task-pool locality under NUMA penalties: %d instances, P=%d, access cost %d",
			manyInstances, P, manyAccess),
		"remote penalty", "per-loop makespan", "distributed makespan", "per-loop/distributed")
	ratio := map[int64]float64{}
	for _, pen := range []int64{0, 20, 80} {
		perLoop, err := runMany(P, "per-loop", pen)
		if err != nil {
			return v, err
		}
		dist, err := runMany(P, "distributed", pen)
		if err != nil {
			return v, err
		}
		r := float64(perLoop) / float64(dist)
		ratio[pen] = r
		tb.Add(pen, perLoop, dist, r)
	}
	fmt.Fprintf(w, "%s\n", tb)
	v.check("locality matters more as remote accesses get dearer",
		ratio[80] > ratio[0],
		"per-loop/distributed at penalty 80 = %.2f vs %.2f at 0", ratio[80], ratio[0])
	return v, nil
}

// realEngineSmoke is used by tests to ensure experiments also execute on
// the real machine (not part of the report).
func realEngineSmoke() error {
	_, err := repro.Execute(workload.Fig1(workload.DefaultFig1()),
		repro.Options{Procs: 4, Engine: repro.EngineReal, Verify: true})
	return err
}
