package adapt

import (
	"fmt"
	"math"

	"repro/internal/lowsched"
)

// This file is the eq. (2) fitter: the arithmetic that turns obs-spine
// counter deltas into scheme choices. The paper's utilization model
//
//	eta' = tau / (tau + O1/k + O2(k)/(k n') + O3/N)      (eq. 2)
//
// says the best chunk scheme is fixed by three measurable quantities —
// the mean iteration body time tau, the per-claim overhead O1 and the
// per-search overhead O2 — plus the iteration-time variability the
// model's derivation assumes away. All four are estimated online from
// cumulative counter samples; candidate schemes are then scored not by
// plugging k into the closed form (which only covers fixed-k CSS) but
// by simulating each candidate's exact chunk sequence — free, because
// PR 4 made every scheme a pure ChunkCalculator — and greedily
// list-scheduling it onto P processors under the estimated costs. The
// closed form reappears as the fast path for fixed-stride schemes,
// where greedy assignment is round-robin and the simulation collapses
// to eq. (2) itself.

// Fitter tunables. The margins are deliberately coarse: the estimates
// carry sampling noise, and the point of hysteresis is to converge on a
// good scheme, not to chase the model's argmin every instance.
const (
	// minChunkDelta: refit only after this many new claims since the
	// last sample, so back-to-back tiny instances don't fit noise.
	minChunkDelta = 8
	// ewmaAlpha is the exponential smoothing weight of new estimates.
	ewmaAlpha = 0.4
	// switchMargin: a challenger must predict a makespan this factor
	// better than the incumbent's fresh prediction to count. Kept tight:
	// near-optimal schemes predict within a few percent of each other,
	// and the confirmation streak (not the margin) is what absorbs
	// estimate noise.
	switchMargin = 1.02
	// confirmStreak: consecutive fits some challenger must beat the
	// incumbent by the margin before the switch happens. The streak does
	// not require the same challenger each time — near-tied candidates
	// (tss vs tfss) may alternate at the top without resetting it; the
	// switch adopts whichever leads on the confirming fit.
	confirmStreak = 2
	// simChunkCap bounds the simulated chunk count; fixed-stride
	// schemes beyond it use the closed form, variable schemes never
	// reach it (their sequences are O(P log N)).
	simChunkCap = 4096
	// tauHistLen is the window of per-sample tau means kept for the
	// variability estimate.
	tauHistLen = 8
	// maxCV caps the variability estimate so one wild window cannot
	// veto every large-chunk candidate forever.
	maxCV = 3.0
)

// estimates are the fitted model inputs, in engine time units.
type estimates struct {
	tau float64 // mean body time per iteration
	o1  float64 // claim overhead per chunk (the O1 of eq. 2)
	o2  float64 // SEARCH overhead per search (the O2 of eq. 2)
	n   float64 // iterations per instance (the N of eq. 2)
	cv  float64 // coefficient of variation of iteration times
}

// Decision is one fit's outcome, kept for the run's adaptation
// trajectory (History, Diagnose).
type Decision struct {
	// Scheme is the incumbent spec after this fit; Best the
	// best-scoring candidate (they differ while hysteresis holds a
	// challenger back).
	Scheme, Best string
	// Switched reports that this fit changed the incumbent.
	Switched bool
	// Tau, O1, O2, CV, N are the estimates the fit used.
	Tau, O1, O2, CV, N float64
	// Util is the predicted utilization of the chosen scheme.
	Util float64
}

// tauObs is one sample window's mean body time, for the variability
// estimate.
type tauObs struct {
	mean float64
}

// fitter accumulates counter samples and decides scheme switches. It is
// not safe for concurrent use; the policy serializes access.
//
// Batched claiming needs no special handling in the estimates: O1Time is
// charged once per lease while Chunks counts every covered slice, so the
// measured o1 = O1Time/Chunks is already the amortized per-chunk claim
// cost under the active batch factor — the fit learns the batched O1
// directly, and predictions stay comparable across batch settings. batch
// records the run's factor for diagnostics.
type fitter struct {
	procs int
	batch int

	have bool
	last lowsched.RuntimeSample

	primed bool
	est    estimates
	hist   []tauObs

	incumbent string
	streak    int

	decisions []Decision
}

// observe folds in a new cumulative sample. It returns (decision, true)
// when enough fresh measurement arrived to refit, (zero, false) when
// the sample only primed or extended the current window.
func (f *fitter) observe(s lowsched.RuntimeSample) (Decision, bool) {
	if !f.have {
		f.have, f.last = true, s
		return Decision{}, false
	}
	d := lowsched.RuntimeSample{
		O1Time: s.O1Time - f.last.O1Time, O2Time: s.O2Time - f.last.O2Time,
		O3Time: s.O3Time - f.last.O3Time, BodyTime: s.BodyTime - f.last.BodyTime,
		Iterations: s.Iterations - f.last.Iterations, Chunks: s.Chunks - f.last.Chunks,
		Searches: s.Searches - f.last.Searches, Instances: s.Instances - f.last.Instances,
	}
	if d.Chunks < minChunkDelta || d.Iterations < 1 || d.Searches < 1 || d.BodyTime <= 0 {
		return Decision{}, false
	}
	f.last = s
	f.update(d)
	dec := f.decide()
	f.decisions = append(f.decisions, dec)
	return dec, true
}

// update folds a counter delta into the EWMA estimates.
func (f *fitter) update(d lowsched.RuntimeSample) {
	tau := float64(d.BodyTime) / float64(d.Iterations)
	o1 := float64(d.O1Time) / float64(d.Chunks)
	o2 := float64(d.O2Time) / float64(d.Searches)
	n := f.est.n
	if d.Instances > 0 {
		n = float64(d.Iterations) / float64(d.Instances)
	}
	if !f.primed {
		f.primed = true
		f.est = estimates{tau: tau, o1: o1, o2: o2, n: n}
	} else {
		mix := func(old, v float64) float64 { return old + ewmaAlpha*(v-old) }
		f.est.tau = mix(f.est.tau, tau)
		f.est.o1 = mix(f.est.o1, o1)
		f.est.o2 = mix(f.est.o2, o2)
		f.est.n = mix(f.est.n, n)
	}
	f.hist = append(f.hist, tauObs{mean: tau})
	if len(f.hist) > tauHistLen {
		f.hist = f.hist[1:]
	}
	f.est.cv = f.cvEstimate()
}

// cvEstimate infers iteration-time variability from the dispersion of
// window means, read as drift: cv = std(window means)/tau. A window is
// typically a whole loop instance, whose mean over thousands of
// iterations is essentially exact — so dispersion between windows is
// structural tau drift (phase changes), not sampling noise, and
// amplifying it by sqrt(window size) as an iid-noise reading would
// have the straggler penalty veto every large-chunk scheme whenever
// the workload has phases at all. The un-amplified reading
// understates true per-iteration spread on genuinely noisy bodies;
// that conservatism costs a slightly-too-large chunk tail, while the
// amplified reading cost the whole model (every candidate but the
// smallest-tail scheme drowned in penalty). The cumulative counters
// carry no within-window second moment, so this is the best
// single-pass estimate available.
func (f *fitter) cvEstimate() float64 {
	if len(f.hist) < 3 || f.est.tau <= 0 {
		return 0
	}
	var mean float64
	for _, o := range f.hist {
		mean += o.mean
	}
	mean /= float64(len(f.hist))
	var m2 float64
	for _, o := range f.hist {
		d := o.mean - mean
		m2 += d * d
	}
	std := math.Sqrt(m2 / float64(len(f.hist)-1))
	return math.Min(std/f.est.tau, maxCV)
}

// decide scores the candidate roster under the current estimates and
// applies hysteresis. The roster covers the distinct shapes the scheme
// space offers — one-at-a-time (ss), fixed chunks at the model's best k
// (css:k*), the decreasing families (gss, fac2, tss, tfss) and
// variability-tuned factoring (af:cv) — all cursor schemes, so a regime
// switch never changes the claim protocol or the Doacross legality of
// the run. The incumbent is always (re)scored so hysteresis compares
// fresh predictions.
func (f *fitter) decide() Decision {
	e := f.est
	n := int64(math.Round(e.n))
	if n < 1 {
		n = 1
	}
	if n > math.MaxInt32 {
		n = math.MaxInt32 // keep packed-cursor candidates in range
	}
	specs := []string{"ss", "gss", "fac2", "tss", "tfss",
		fmt.Sprintf("css:%d", f.bestCSSK(n))}
	if cv := int64(math.Round(e.cv * 100)); cv > 0 {
		specs = append(specs, fmt.Sprintf("af:%d", cv))
	} else {
		specs = append(specs, "af")
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		seen[sp] = true
	}
	if !seen[f.incumbent] {
		specs = append(specs, f.incumbent)
	}

	best, bestMs := "", math.Inf(1)
	ms := map[string]float64{}
	for _, sp := range specs {
		m := f.predict(lowsched.MustParse(sp), n)
		ms[sp] = m
		if m < bestMs {
			best, bestMs = sp, m
		}
	}

	dec := Decision{Best: best, Tau: e.tau, O1: e.o1, O2: e.o2, CV: e.cv, N: e.n}
	switch {
	case best == f.incumbent:
		f.streak = 0
	case bestMs*switchMargin < ms[f.incumbent]:
		f.streak++
		if f.streak >= confirmStreak {
			f.incumbent = best
			f.streak = 0
			dec.Switched = true
		}
	default:
		f.streak = 0
	}
	dec.Scheme = f.incumbent
	if m := ms[dec.Scheme]; m > 0 && !math.IsInf(m, 1) {
		dec.Util = e.tau * float64(n) / (float64(f.procs) * m)
	}
	return dec
}

// predict estimates the makespan of one n-iteration instance under the
// scheme: the exact chunk sequence (from the pure calculator) is
// greedily assigned to the least-loaded processor at cost
// size·tau + o1 per chunk, plus the per-processor SEARCH charge o2 and
// a variability penalty cv·tau·(final chunk size) — a straggler on the
// trailing chunk delays completion by about its size times the
// iteration-time spread, which is why decreasing-chunk schemes end
// small. Fixed-stride schemes use the closed form (greedy assignment of
// equal chunks is round-robin), which is eq. (2) times n·tau.
func (f *fitter) predict(s lowsched.Scheme, n int64) float64 {
	cs, ok := s.(lowsched.CalcScheme)
	if !ok {
		return math.Inf(1)
	}
	c := cs.Calculator(f.procs)
	e := f.est
	if k, fixed := c.Stride(); fixed {
		chunks := (n + k - 1) / k
		perProc := math.Ceil(float64(chunks) / float64(f.procs))
		return perProc*(float64(k)*e.tau+e.o1) + e.o2 + e.cv*e.tau*float64(k)
	}
	loads := make([]float64, f.procs)
	state := int64(1)
	var lastSize int64
	for i := 0; ; i++ {
		a, next, ok := c.Chunk(state, n)
		if !ok {
			break
		}
		if i >= simChunkCap {
			return math.Inf(1) // defensive: no sane variable scheme gets here
		}
		mi := 0
		for p := 1; p < len(loads); p++ {
			if loads[p] < loads[mi] {
				mi = p
			}
		}
		lastSize = a.Size()
		loads[mi] += float64(lastSize)*e.tau + e.o1
		state = next
	}
	var span float64
	for _, l := range loads {
		span = math.Max(span, l)
	}
	return span + e.o2 + e.cv*e.tau*float64(lastSize)
}

// bestCSSK searches the CSS chunk size minimizing the predicted
// makespan over a power-of-two grid plus the model's natural anchors
// N/2P, N/P and N.
func (f *fitter) bestCSSK(n int64) int64 {
	bestK, bestMs := int64(1), math.Inf(1)
	tried := map[int64]bool{}
	try := func(k int64) {
		if k < 1 || k > n || k > lowsched.MaxClaimAdd || tried[k] {
			return
		}
		tried[k] = true
		if m := f.predict(lowsched.CSS{K: k}, n); m < bestMs {
			bestK, bestMs = k, m
		}
	}
	for k := int64(1); k <= n && k > 0; k *= 2 {
		try(k)
	}
	p := int64(f.procs)
	try((n + 2*p - 1) / (2 * p))
	try((n + p - 1) / p)
	try(n)
	return bestK
}
