package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/refexec"
	"repro/internal/trace"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

func compileFig1() (*descr.Program, *loopir.Nest, error) {
	std := workload.Fig1Std(workload.DefaultFig1())
	prog, err := descr.Compile(std)
	return prog, std, err
}

// runF1 prints the Fig. 1 program before and after standardization.
func runF1(w io.Writer) (Verdict, error) {
	var v Verdict
	raw := workload.Fig1(workload.DefaultFig1())
	fmt.Fprintf(w, "Fig. 1 program (reconstruction; see DESIGN.md):\n\n%s\n", raw)
	std, err := raw.Standardize()
	if err != nil {
		return v, err
	}
	fmt.Fprintf(w, "standardized:\n\n%s\n", std)
	leaves := std.Leaves()
	var names []string
	for _, l := range leaves {
		names = append(names, l.Label)
	}
	v.check("eight innermost parallel loops", len(leaves) == 8, "leaves = %v", names)
	v.check("program order A..H", fmt.Sprint(names) == "[A B C D E F G H]", "numbering %v", names)
	return v, nil
}

// runF2 reproduces the Fig. 2 transformation.
func runF2(w io.Writer) (Verdict, error) {
	var v Verdict
	noop := func(e loopir.Env, iv loopir.IVec) { e.Work(1) }
	raw := loopir.MustBuild(func(b *loopir.B) {
		b.Serial("J1", loopir.Const(2), func(b *loopir.B) {
			b.Doall("J", loopir.Const(3), func(b *loopir.B) {
				b.Serial("J4", loopir.Const(2), func(b *loopir.B) {
					b.Stmt("S", noop)
				})
			})
			b.Serial("J2", loopir.Const(2), func(b *loopir.B) { b.Stmt("S2", noop) })
			b.Serial("J3", loopir.Const(2), func(b *loopir.B) { b.Stmt("S3", noop) })
		})
	})
	fmt.Fprintf(w, "Fig. 2(a) — nonperfect nest with innermost serial loop and scalar code:\n\n%s\n", raw)
	std, err := raw.Standardize()
	if err != nil {
		return v, err
	}
	fmt.Fprintf(w, "Fig. 2(b) — standardized (J4 folded into J's body; J2,J3 wrapped as a bound-1 parallel loop):\n\n%s\n", std)
	body := std.Root[0].Body
	v.check("two schedulable constructs in J1", len(body) == 2, "got %d", len(body))
	v.check("J is an innermost parallel loop", body[0].IsLeaf() && body[0].Label == "J", "%v %q", body[0].Kind, body[0].Label)
	scalarOK := body[1].IsLeaf()
	if b, ok := body[1].Bound.IsStatic(); !ok || b != 1 {
		scalarOK = false
	}
	v.check("scalar code became a bound-1 parallel loop", scalarOK, "%q bound %v", body[1].Label, body[1].Bound)
	return v, nil
}

// runF3 reproduces the Fig. 3 coalescing.
func runF3(w io.Writer) (Verdict, error) {
	var v Verdict
	raw := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("K1", loopir.Const(6), func(b *loopir.B) {
			b.DoallLeaf("K2", loopir.Const(5), func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(1) })
		})
	})
	fmt.Fprintf(w, "Fig. 3(a) — perfect Doall nest:\n\n%s\n", raw)
	std, err := raw.Standardize()
	if err != nil {
		return v, err
	}
	co, err := std.Coalesce()
	if err != nil {
		return v, err
	}
	fmt.Fprintf(w, "Fig. 3(b) — coalesced:\n\n%s\n", co)
	leaf := co.Root[0]
	v.check("single coalesced loop", len(co.Root) == 1 && leaf.IsLeaf(), "%d roots", len(co.Root))
	b, _ := leaf.Bound.IsStatic()
	v.check("bound is the product P1*P2", b == 30, "bound = %d", b)
	return v, nil
}

// runF4 emits the macro-dataflow graph of Fig. 1.
func runF4(w io.Writer) (Verdict, error) {
	var v Verdict
	prog, _, err := compileFig1()
	if err != nil {
		return v, err
	}
	g := descr.BuildGraph(prog)
	fmt.Fprintf(w, "%s\n", g.DOT())
	var init []string
	for _, n := range g.InitialNodes() {
		init = append(init, n.Key())
	}
	sort.Strings(init)
	fmt.Fprintf(w, "initially active nodes: %v\n", init)
	v.check("A1 and A2 initially active", fmt.Sprint(init) == "[A(1) A(2)]", "%v", init)
	instances, conds := 0, 0
	for _, n := range g.Nodes {
		if n.Kind == descr.GCond {
			conds++
		} else {
			instances++
		}
	}
	// A:2 B:4 C:4 D:4 E:2 F:1 G:1 H:1 = 19 instances + 1 diamond.
	v.check("node counts", instances == 19 && conds == 1,
		"%d instance nodes, %d condition nodes", instances, conds)
	return v, nil
}

// runF5 prints the DEPTH/BOUND arrays.
func runF5(w io.Writer) (Verdict, error) {
	var v Verdict
	prog, _, err := compileFig1()
	if err != nil {
		return v, err
	}
	fmt.Fprintf(w, "%s\n", prog.FormatDepthBound())
	want := map[string]int{"A": 1, "B": 2, "C": 2, "D": 2, "E": 1, "F": 0, "G": 0, "H": 0}
	ok := true
	for _, l := range prog.Leaves() {
		if l.PaperDepth() != want[l.Node.Label] {
			ok = false
		}
	}
	v.check("DEPTH matches the paper's nesting", ok, "A:1 B:2 C:2 D:2 E:1 F,G,H:0")
	return v, nil
}

// runF6 prints the DESCRPT records.
func runF6(w io.Writer) (Verdict, error) {
	var v Verdict
	prog, _, err := compileFig1()
	if err != nil {
		return v, err
	}
	fmt.Fprintf(w, "%s\n", prog.FormatDescriptors())
	num := func(label string) int {
		for _, l := range prog.Leaves() {
			if l.Node.Label == label {
				return l.Num
			}
		}
		return -1
	}
	d := prog.Leaf(num("D"))
	v.check("D's serial-level next wraps to C", d.Levels[3].Last && d.Levels[3].Next == num("C"),
		"last=%v next=%d", d.Levels[3].Last, d.Levels[3].Next)
	v.check("D's outer-level next is E", d.Levels[2].Next == num("E"), "next=%d", d.Levels[2].Next)
	f := prog.Leaf(num("F"))
	v.check("F guarded with altern G", len(f.Levels[1].Guards) == 1 && f.Levels[1].Guards[0].Altern == num("G"),
		"guards=%v", f.Levels[1].Guards)
	return v, nil
}

// runF7 runs Fig. 1 and reports the task pool's activity.
func runF7(w io.Writer) (Verdict, error) {
	var v Verdict
	cfg := workload.DefaultFig1()
	cfg.NI, cfg.NJ, cfg.NK = 4, 4, 4
	cfg.NA, cfg.NB, cfg.NC, cfg.ND, cfg.NE, cfg.NF, cfg.NG, cfg.NH = 8, 8, 8, 8, 8, 8, 8, 8
	std := workload.Fig1Std(cfg)
	prog, err := descr.Compile(std)
	if err != nil {
		return v, err
	}
	ref, err := refexec.Run(std)
	if err != nil {
		return v, err
	}
	log := trace.New()
	rep, err := core.Run(prog, core.Config{
		Engine: vmachine.New(vmachine.Config{P: 8, AccessCost: 10}),
		Scheme: lowsched.SS{},
		Sink:   log,
	})
	if err != nil {
		return v, err
	}
	tb := NewTable("task pool activity (Fig. 1, P=8, SS)",
		"metric", "value")
	tb.Add("innermost parallel loops (lists)", prog.M)
	tb.Add("instances (ICBs) activated", rep.Stats.Instances)
	tb.Add("iterations executed", rep.Stats.Iterations)
	tb.Add("SEARCH calls", rep.Stats.Searches)
	tb.Add("SW sweeps", rep.Stats.Search.Sweeps)
	tb.Add("list-lock failures", rep.Stats.Search.LockFailures)
	tb.Add("SW retests failed under lock", rep.Stats.Search.Retests)
	tb.Add("ICBs walked during SEARCH", rep.Stats.Search.Walked)
	tb.Add("saturated list walks", rep.Stats.Search.Saturated)
	fmt.Fprintf(w, "%s\n", tb)
	err = log.VerifyExactlyOnce(prog, ref)
	v.check("exactly-once execution through the pool", err == nil, "%v", err)
	err = log.VerifyPrecedence(prog, descr.BuildGraph(prog))
	v.check("macro-dataflow precedence respected", err == nil, "%v", err)
	v.check("every ICB found via SEARCH", rep.Stats.Search.Walked >= rep.Stats.Instances,
		"walked %d >= %d instances", rep.Stats.Search.Walked, rep.Stats.Instances)
	return v, nil
}

// runF8 exercises the four ENTER activation cases of Fig. 8.
func runF8(w io.Writer) (Verdict, error) {
	var v Verdict
	grain := func(e loopir.Env, iv loopir.IVec, j int64) { e.Work(10) }
	type cse struct {
		name string
		nest *loopir.Nest
		// completing instance key and the expected activations it causes
		wantBs int
		label  string
	}
	const M = 3
	cases := []cse{
		{
			name: "(a) B at the same level as A: one instance",
			nest: loopir.MustBuild(func(b *loopir.B) {
				b.Doall("I", loopir.Const(2), func(b *loopir.B) {
					b.DoallLeaf("A", loopir.Const(2), grain)
					b.DoallLeaf("B", loopir.Const(2), grain)
				})
			}),
			wantBs: 2, // one per I iteration
			label:  "B",
		},
		{
			name: "(b) B one level deeper under a parallel loop: M instances",
			nest: loopir.MustBuild(func(b *loopir.B) {
				b.DoallLeaf("A", loopir.Const(2), grain)
				b.Doall("J", loopir.Const(M), func(b *loopir.B) {
					b.DoallLeaf("B", loopir.Const(2), grain)
				})
			}),
			wantBs: M,
			label:  "B",
		},
		{
			name: "(c) B one level deeper under a serial loop: one instance at a time",
			nest: loopir.MustBuild(func(b *loopir.B) {
				b.DoallLeaf("A", loopir.Const(2), grain)
				b.Serial("K", loopir.Const(M), func(b *loopir.B) {
					b.DoallLeaf("B", loopir.Const(2), grain)
				})
			}),
			wantBs: M, // activated one per serial iteration, M total
			label:  "B",
		},
		{
			name: "(d) B s levels deeper: full fan-out over the parallel dimensions",
			nest: loopir.MustBuild(func(b *loopir.B) {
				b.DoallLeaf("A", loopir.Const(2), grain)
				b.Doall("J1", loopir.Const(M), func(b *loopir.B) {
					b.Doall("J2", loopir.Const(M), func(b *loopir.B) {
						b.DoallLeaf("B", loopir.Const(2), grain)
					})
				})
			}),
			wantBs: M * M,
			label:  "B",
		},
	}
	for _, c := range cases {
		std, err := c.nest.Standardize()
		if err != nil {
			return v, err
		}
		prog, err := descr.Compile(std)
		if err != nil {
			return v, err
		}
		log := trace.New()
		if _, err := core.Run(prog, core.Config{
			Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 5}),
			Sink:   log,
		}); err != nil {
			return v, err
		}
		got := 0
		for _, e := range log.Events() {
			if e.Kind == trace.EvActivated && prog.Leaf(int(e.Loop)).Node.Label == c.label {
				got++
			}
		}
		fmt.Fprintf(w, "%s: %d instances of %s activated (expected %d)\n", c.name, got, c.label, c.wantBs)
		v.check(c.name, got == c.wantBs, "activated %d, want %d", got, c.wantBs)
	}
	return v, nil
}
