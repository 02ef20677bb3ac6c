package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// run compiles and executes a nest on a fresh virtual machine.
func run(nest *loopir.Nest, vcfg vmachine.Config, ccfg core.Config) (*core.Report, error) {
	std, err := nest.Standardize()
	if err != nil {
		return nil, err
	}
	prog, err := descr.Compile(std)
	if err != nil {
		return nil, err
	}
	ccfg.Engine = vmachine.New(vcfg)
	return core.Run(prog, ccfg)
}

// calibrate extracts the Section-IV model parameters from a run's
// measured overhead decomposition.
func calibrate(rep *core.Report, tau float64) model.Params {
	s := rep.Stats
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
		rep, err := run(workload.UniformDoall(iters, tau),
			vmachine.Config{P: P, AccessCost: acc},
			core.Config{Scheme: lowsched.SS{}})
		if err != nil {
			return v, err
		}
		meas := rep.Utilization()
		p := calibrate(rep, float64(tau))
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
		rep, err := run(workload.UniformDoall(iters, tau),
			vmachine.Config{P: P, AccessCost: acc},
			core.Config{Scheme: lowsched.CSS{K: k}})
		if err != nil {
			return v, err
		}
		meas := rep.Utilization()
		p := calibrate(rep, tau)
		pred := model.UtilizationChunked(p, model.ConstO2(p.O2), float64(k))
		tb.Add(k, meas, pred, rep.Makespan, rep.Stats.Chunks)
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
		rep, err := run(workload.Wavefront(n, 1, head, tail),
			vmachine.Config{P: P, AccessCost: acc},
			core.Config{Scheme: lowsched.CSS{K: k}})
		if err != nil {
			return v, err
		}
		ms := float64(rep.Makespan)
		if k == 1 {
			t1 = ms
		}
		lost := (ms - t1) / float64(n*tail)
		tb.Add(k, rep.Makespan, model.DoacrossTime(dp, float64(k)), lost, model.OverlapLoss(float64(k)))
		makespans = append(makespans, rep.Makespan)
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
	schemes := []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 8}, lowsched.CSS{K: 64},
		lowsched.GSS{}, lowsched.TSS{}, lowsched.FSC{}, lowsched.AFS{},
	}
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
			rep, err := run(wl.mk(), vmachine.Config{P: P, AccessCost: wl.acc},
				core.Config{Scheme: s})
			if err != nil {
				return v, err
			}
			r := result{
				name:      s.Name(),
				makespan:  rep.Makespan,
				eta:       rep.Utilization(),
				imbalance: machine.Imbalance(rep.Busy),
				chunks:    rep.Stats.Chunks,
			}
			results[wl.name][s.Name()] = r
			busies = append(busies, rep.TotalBusy())
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

// runE5 compares the paper's m parallel linked lists against a single
// shared list.
func runE5(w io.Writer) (Verdict, error) {
	var v Verdict
	const (
		m         = 12
		instances = 96
		iters     = 4
		grain     = 30
		acc       = 10
	)
	tb := NewTable(
		fmt.Sprintf("task pool scaling: %d loops, %d instances x %d iterations, grain %d", m, instances, iters, grain),
		"P", "multi-list makespan", "single-list makespan", "single/multi")
	ratios := map[int]float64{}
	for _, P := range []int{2, 4, 8, 16} {
		multi, err := run(workload.ManyInstances(m, instances, iters, grain),
			vmachine.Config{P: P, AccessCost: acc}, core.Config{})
		if err != nil {
			return v, err
		}
		single, err := run(workload.ManyInstances(m, instances, iters, grain),
			vmachine.Config{P: P, AccessCost: acc}, core.Config{Pool: core.PoolSingleList})
		if err != nil {
			return v, err
		}
		ratio := float64(single.Makespan) / float64(multi.Makespan)
		ratios[P] = ratio
		tb.Add(P, multi.Makespan, single.Makespan, ratio)
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
		rep, err := run(workload.Fig1(cfg), vmachine.Config{P: 8, AccessCost: 10},
			core.Config{DispatchCost: d})
		if err != nil {
			return v, err
		}
		share := float64(rep.Stats.DispatchTime) / (float64(rep.Makespan) * 8)
		tb.Add(d, rep.Makespan, rep.Utilization(), share)
		etas = append(etas, rep.Utilization())
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
		ser, err := run(workload.UniformDoall(iters, tau),
			vmachine.Config{P: P, AccessCost: acc}, core.Config{Scheme: lowsched.SS{}})
		if err != nil {
			return v, err
		}
		comb, err := run(workload.UniformDoall(iters, tau),
			vmachine.Config{P: P, AccessCost: acc, Combining: true},
			core.Config{Scheme: lowsched.SS{}})
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
		rep, err := run(mk(parallel), vmachine.Config{P: 8, AccessCost: 5}, core.Config{})
		if err != nil {
			return v, err
		}
		name := "serialized"
		if parallel {
			name = "sections"
			par = rep.Makespan
		} else {
			ser = rep.Makespan
		}
		tb.Add(name, rep.Makespan, rep.Utilization())
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
	const (
		m         = 12
		instances = 96
		iters     = 4
		grain     = 30
		acc       = 10
	)
	kinds := []core.PoolKind{core.PoolPerLoop, core.PoolSingleList, core.PoolDistributed}
	tb := NewTable(
		fmt.Sprintf("task-pool structures: %d loops, %d instances x %d iterations, grain %d",
			m, instances, iters, grain),
		"P", "per-loop", "single-list", "distributed")
	makespans := map[core.PoolKind]map[int]int64{}
	for _, k := range kinds {
		makespans[k] = map[int]int64{}
	}
	for _, P := range []int{2, 4, 8, 16} {
		row := []any{P}
		for _, k := range kinds {
			rep, err := run(workload.ManyInstances(m, instances, iters, grain),
				vmachine.Config{P: P, AccessCost: acc}, core.Config{Pool: k})
			if err != nil {
				return v, err
			}
			makespans[k][P] = rep.Makespan
			row = append(row, rep.Makespan)
		}
		tb.Add(row...)
	}
	fmt.Fprintf(w, "%s\n", tb)
	v.check("per-loop lists beat the single list at P=16",
		makespans[core.PoolPerLoop][16] < makespans[core.PoolSingleList][16],
		"per-loop %d vs single %d",
		makespans[core.PoolPerLoop][16], makespans[core.PoolSingleList][16])
	v.check("the work-stealing pool also beats the single list at P=16",
		makespans[core.PoolDistributed][16] < makespans[core.PoolSingleList][16],
		"distributed %d vs single %d",
		makespans[core.PoolDistributed][16], makespans[core.PoolSingleList][16])
	ratio := float64(makespans[core.PoolDistributed][16]) / float64(makespans[core.PoolPerLoop][16])
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
	schemes := []lowsched.Scheme{
		lowsched.StaticBlock{}, lowsched.StaticCyclic{},
		lowsched.SS{}, lowsched.CSS{K: 16}, lowsched.GSS{}, lowsched.FSC{},
	}
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
			rep, err := run(wl.mk(), vmachine.Config{P: P, AccessCost: 10}, core.Config{Scheme: s})
			if err != nil {
				return v, err
			}
			results[wl.name][s.Name()] = rep.Makespan
			tb.Add(s.Name(), rep.Makespan, rep.Utilization(), machine.Imbalance(rep.Busy))
		}
		fmt.Fprintf(w, "%s\n", tb)
	}
	uni := results[loads[0].name]
	bestDynUni := min64(uni["SS"], uni["CSS(16)"], uni["GSS"], uni["FSC"])
	v.check("uniform load: static block matches the best dynamic scheme",
		float64(uni["static-block"]) <= 1.05*float64(bestDynUni),
		"static-block %d vs best dynamic %d (low variance favors static, per [23])",
		uni["static-block"], bestDynUni)
	dec := results[loads[1].name]
	bestDynDec := min64(dec["SS"], dec["CSS(16)"], dec["GSS"], dec["FSC"])
	v.check("decreasing load: static block collapses",
		float64(dec["static-block"]) > 1.5*float64(bestDynDec),
		"static-block %d vs best dynamic %d", dec["static-block"], bestDynDec)
	v.check("decreasing load: static cyclic survives the monotone trend",
		float64(dec["static-cyclic"]) < 1.2*float64(bestDynDec),
		"static-cyclic %d vs best dynamic %d", dec["static-cyclic"], bestDynDec)
	bim := results[loads[2].name]
	bestDynBim := min64(bim["SS"], bim["CSS(16)"], bim["GSS"], bim["FSC"])
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
	const (
		m         = 12
		instances = 96
		iters     = 4
		grain     = 30
		P         = 8
		acc       = 10
	)
	tb := NewTable(
		fmt.Sprintf("task-pool locality under NUMA penalties: %d instances, P=%d, access cost %d",
			instances, P, acc),
		"remote penalty", "per-loop makespan", "distributed makespan", "per-loop/distributed")
	ratio := map[int64]float64{}
	for _, pen := range []int64{0, 20, 80} {
		perLoop, err := run(workload.ManyInstances(m, instances, iters, grain),
			vmachine.Config{P: P, AccessCost: acc, RemotePenalty: pen}, core.Config{})
		if err != nil {
			return v, err
		}
		dist, err := run(workload.ManyInstances(m, instances, iters, grain),
			vmachine.Config{P: P, AccessCost: acc, RemotePenalty: pen},
			core.Config{Pool: core.PoolDistributed})
		if err != nil {
			return v, err
		}
		r := float64(perLoop.Makespan) / float64(dist.Makespan)
		ratio[pen] = r
		tb.Add(pen, perLoop.Makespan, dist.Makespan, r)
	}
	fmt.Fprintf(w, "%s\n", tb)
	v.check("locality matters more as remote accesses get dearer",
		ratio[80] > ratio[0],
		"per-loop/distributed at penalty 80 = %.2f vs %.2f at 0", ratio[80], ratio[0])
	return v, nil
}

func min64(xs ...int64) int64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// realEngineSmoke is used by tests to ensure experiments also execute on
// the real machine (not part of the report).
func realEngineSmoke() error {
	std, err := workload.Fig1(workload.DefaultFig1()).Standardize()
	if err != nil {
		return err
	}
	prog, err := descr.Compile(std)
	if err != nil {
		return err
	}
	_, err = core.Run(prog, core.Config{Engine: machine.NewReal(machine.RealConfig{P: 4})})
	return err
}
