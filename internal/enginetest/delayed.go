package enginetest

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/trace"
)

// DelayedPosters is the delayed-completion half of the suite. A worker
// counts the iterations it completes privately and posts them to icount
// when it stops claiming from the instance, so icount lags executed work
// and the processor whose post completes an instance need not be the one
// that ran its last iteration. The engine's own event order produces few
// such cases, so they are planted:
//
//   - a straggler stalled inside a body while it holds unposted
//     completions and the other processors exhaust the instance — EXIT
//     must fire once, on the straggler's post, and no successor iteration
//     may start before the stalled iteration ends;
//   - a checkpoint and an iteration-budget cut taken while every worker
//     holds unposted work — the snapshot must satisfy icount + pending ==
//     ExecutedPrefix(cursor) and the resumed run must land on the
//     oracle's totals.
//
// The assertions about who held what are exact on a deterministic engine
// only; run it on the virtual one.
func DelayedPosters(t *testing.T, name string, f Factory) {
	t.Run("Straggler", func(t *testing.T) { straggler(t, name, f) })
	t.Run("PausedHolders", func(t *testing.T) { pausedHolders(t, name, f) })
}

func straggler(t *testing.T, name string, f Factory) {
	const p, n, stalled = 4, 64, 10
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(n), work(10))
		b.DoallLeaf("B", loopir.Const(8), work(10))
	})
	prog, pl, ref := compile(t, nest)
	loopA, loopB := prog.Leaves()[0].Num, prog.Leaves()[1].Num
	// Iteration 10 is not tail (64-10 >= P), so its processor holds it —
	// and the iterations it ran before it — unposted for the whole stall,
	// which outlasts the other three processors' sweep of the instance.
	inj := fault.New(1).At(loopA, nil, stalled, fault.Fault{Kind: fault.Delay, Cost: 100 * n}, 1)
	rec := trace.NewRing(p, 4*n)
	log := trace.New()
	intr := machine.NewInterrupt()
	rep, err := core.RunPlan(pl, core.Config{
		Engine: f(p, intr), Scheme: lowsched.SS{}, Interrupt: intr,
		Sink: trace.Attach(log, rec), Inject: inj,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ctx := refexec.Context{Nest: "straggler", Scheme: "SS", Pool: core.PoolPerLoop.String(), Engine: name}
	if err := log.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Exits != 2 {
		t.Errorf("Exits = %d, want one per instance", rep.Stats.Exits)
	}

	// The stalled iteration's end, its processor, and B's first start.
	var stallEnd, firstB machine.Time = -1, -1
	var slow int32 = -1
	for _, e := range log.Events() {
		switch {
		case e.Kind == trace.EvIterEnd && int(e.Loop) == loopA && e.A == stalled:
			stallEnd, slow = e.At, e.Proc
		case e.Kind == trace.EvIterStart && int(e.Loop) == loopB && (firstB < 0 || e.At < firstB):
			firstB = e.At
		}
	}
	if slow < 0 || firstB < stallEnd {
		t.Fatalf("B started at %d, before A's stalled iteration ended at %d (processor %d)", firstB, stallEnd, slow)
	}

	// A's posts sum to its bound; the straggler's is the last, carries
	// more than the stalled iteration alone, and is the one the completion
	// follows.
	var posted int64
	var last trace.Event
	exits := 0
	for _, e := range rec.Tail(0) {
		if int(e.Loop) != loopA {
			continue
		}
		switch e.Kind {
		case trace.EvPost:
			posted += e.A
			last = e
		case trace.EvCompleted:
			exits++
			if e.Proc != slow || last.B != n || e.At < last.At {
				t.Errorf("A completed on processor %d at %d; the completing post was %v, the straggler is processor %d", e.Proc, e.At, last, slow)
			}
		}
	}
	if posted != n || exits != 1 {
		t.Errorf("A: %d iterations posted, %d exit(s); want %d and 1", posted, exits, n)
	}
	if last.Proc != slow || last.A < 2 || last.At < stallEnd {
		t.Errorf("A's completing post is %v; want processor %d's, after %d, carrying the iterations it held through the stall", last, slow, stallEnd)
	}
}

func pausedHolders(t *testing.T, name string, f Factory) {
	const p, n = 4, 400
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("L", loopir.Const(n), work(10))
	})
	_, pl, ref := compile(t, nest)
	cases := []struct {
		label  string
		scheme lowsched.Scheme
		cfg    core.Config
		// pending: the pause cuts a claimed chunk short.
		pending bool
	}{
		// Claim 40 of 400: every processor is ten iterations into its
		// hold, none of them tail.
		{"checkpoint", lowsched.SS{}, core.Config{Checkpoint: &core.CheckpointConfig{AfterChunks: 40}}, false},
		// 101 = 25 chunks of 4 and one iteration of the 26th.
		{"budget-cut", lowsched.CSS{K: 4}, core.Config{Budget: &core.Budget{Iterations: 101}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			rec := trace.NewRing(p, 2*n)
			partLog := trace.New()
			intr := machine.NewInterrupt()
			cfg := tc.cfg
			cfg.Engine, cfg.Scheme, cfg.Interrupt = f(p, intr), tc.scheme, intr
			cfg.Sink = trace.Attach(partLog, rec)
			_, err := core.RunPlan(pl, cfg)
			var snap *core.RunSnapshot
			var cke *core.CheckpointedError
			var be *core.BudgetExceededError
			switch {
			case errors.As(err, &cke):
				snap = cke.Snapshot
			case errors.As(err, &be):
				snap = be.Snapshot
			}
			if snap == nil || len(snap.ICBs) != 1 {
				t.Fatalf("paused run returned %v, want a snapshot of the one live instance", err)
			}

			// Every processor left through a post of the work it held, and
			// the posts are the snapshot's icount.
			holders := map[int32]bool{}
			var posted int64
			for _, e := range rec.Tail(0) {
				if e.Kind == trace.EvPost {
					posted += e.A
					if e.A >= 2 {
						holders[e.Proc] = true
					}
				}
			}
			if len(holders) != p {
				t.Errorf("%d of %d processors posted held work at the pause", len(holders), p)
			}
			icb := snap.ICBs[0]
			var pend int64
			for _, r := range icb.Pending {
				pend += r.Hi - r.Lo + 1
			}
			executed := int64(len(iterMultiset(partLog)))
			if icb.Done != posted || icb.Done != executed {
				t.Errorf("snapshot icount %d, posts %d, iterations executed %d", icb.Done, posted, executed)
			}
			calc := tc.scheme.(lowsched.CalcScheme).Calculator(p)
			if prefix := lowsched.ExecutedPrefix(calc, icb.Cursor, icb.Bound); icb.Done+pend != prefix {
				t.Errorf("icount %d + pending %d != cursor prefix %d", icb.Done, pend, prefix)
			}
			if (pend > 0) != tc.pending {
				t.Errorf("pending %v, want a cut chunk: %v", icb.Pending, tc.pending)
			}

			restLog := trace.New()
			intr = machine.NewInterrupt()
			rep, err := core.RunPlan(pl, core.Config{
				Engine: f(p, intr), Scheme: tc.scheme, Interrupt: intr, Sink: restLog,
				Checkpoint: &core.CheckpointConfig{Restore: snap},
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if rep.Stats.Iterations != ref.Iterations || rep.Stats.Exits != int64(len(ref.Instances)) {
				t.Errorf("resumed totals: %d iterations, %d exits; oracle %d, %d",
					rep.Stats.Iterations, rep.Stats.Exits, ref.Iterations, len(ref.Instances))
			}
			got := iterMultiset(partLog)
			for key, c := range iterMultiset(restLog) {
				got[key] += c
			}
			if int64(len(got)) != ref.Iterations {
				t.Errorf("the two parts cover %d iterations, oracle %d", len(got), ref.Iterations)
			}
			for key, c := range got {
				if c != 1 {
					t.Errorf("iteration %s executed %d times across the parts", key, c)
				}
			}
		})
	}
}

// TailInstances is the other end of the rule: on instances of at most P
// iterations every chunk is tail and posts before the next claim, so
// eight processors race four iterations' posts, the failed claims behind
// them, and the completer's release spin; a twelve-iteration sibling
// mixes held and tail chunks on one instance. Run it on goroutines under
// -race, many times over (make verify-gates does).
func TailInstances(t *testing.T, name string, f Factory) {
	const p = 8
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.Doall("I", loopir.Const(60), func(b *loopir.B) {
			b.DoallLeaf("T", loopir.Const(4), work(2))
			b.DoallLeaf("M", loopir.Const(p+4), work(2))
		})
	})
	prog, pl, ref := compile(t, nest)
	for _, s := range []lowsched.Scheme{lowsched.SS{}, lowsched.CSS{K: 2}} {
		t.Run(s.Name(), func(t *testing.T) {
			intr := machine.NewInterrupt()
			log := trace.New()
			rep, err := core.RunPlan(pl, core.Config{Engine: f(p, intr), Scheme: s, Sink: log, Interrupt: intr})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep.Stats.Iterations != ref.Iterations || rep.Stats.Exits != rep.Stats.Instances {
				t.Errorf("%d iterations, %d exits of %d instances; oracle %d iterations",
					rep.Stats.Iterations, rep.Stats.Exits, rep.Stats.Instances, ref.Iterations)
			}
			ctx := refexec.Context{Nest: "tail", Scheme: s.Name(), Pool: core.PoolPerLoop.String(), Engine: name}
			if err := log.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
				t.Error(err)
			}
		})
	}
}
