package enginetest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/trace"
)

// BodyLog is a verification sink under which a run may still execute
// tiny instances inline. A run whose sink records iterations publishes
// every instance (DESIGN §2), so a BodyLog keeps the scheduling kinds
// only (trace.SchedulingOnly) and the bodies Body builds record their own
// iterations into the same trace.Log. Every event is stamped with a
// host-order sequence number instead of engine time: on any engine a
// completion is recorded before the EXIT that activates its successors,
// and an iteration starts after its instance is activated, so the Log's
// exactly-once and precedence checks hold a run to the same contracts
// the engine-time stamps do.
type BodyLog struct {
	seq atomic.Int64
	log atomic.Pointer[trace.Log]
	// nums maps a leaf label to its loop number, for the body events; it
	// is written by Begin, between runs.
	nums map[string]int32

	mu sync.Mutex
	// last is each processor's latest scheduling event kind; inlined
	// counts the completions that followed their processor's chunk event
	// directly. A published instance completes on the post that brings
	// its icount to the bound, which has an event of its own; an inline
	// instance posts nothing.
	last    map[int32]trace.Kind
	inlined int
}

// NewBodyLog returns a BodyLog; Begin starts its first Log.
func NewBodyLog() *BodyLog {
	b := &BodyLog{nums: map[string]int32{}}
	b.log.Store(trace.New())
	return b
}

// Begin starts a fresh Log for one run of prog and returns it.
func (b *BodyLog) Begin(prog *descr.Program) *trace.Log {
	for _, l := range prog.Leaves() {
		b.nums[l.Node.Label] = int32(l.Num)
	}
	b.mu.Lock()
	b.last, b.inlined = map[int32]trace.Kind{}, 0
	b.mu.Unlock()
	l := trace.New()
	b.log.Store(l)
	return l
}

// Inlined returns the number of instances the run since Begin ran inline.
func (b *BodyLog) Inlined() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inlined
}

// Record implements trace.Sink.
func (b *BodyLog) Record(e trace.Event) {
	e.At = b.seq.Add(1)
	b.mu.Lock()
	if e.Kind == trace.EvCompleted && b.last[e.Proc] == trace.EvChunk {
		b.inlined++
	}
	b.last[e.Proc] = e.Kind
	b.mu.Unlock()
	b.log.Load().Record(e)
}

// SchedulingOnly implements trace.SchedulingOnly.
func (b *BodyLog) SchedulingOnly() {}

// Body returns the body of leaf label: it records its iteration's start
// and end around cost units of work.
func (b *BodyLog) Body(label string, cost int64) loopir.BodyFn {
	return func(e loopir.Env, iv loopir.IVec, j int64) {
		ev := trace.Event{Kind: trace.EvIterStart, Proc: int32(e.Proc()), Loop: b.nums[label], IVec: iv, A: j}
		ev.At = b.seq.Add(1)
		b.log.Load().Record(ev)
		e.Work(cost)
		ev.Kind, ev.At = trace.EvIterEnd, b.seq.Add(1)
		b.log.Load().Record(ev)
	}
}

// TinySerial is `serial K = 1..l { doall Z = 1..1 { work 1 } }`: a chain
// of one-iteration instances, each activated by its predecessor's EXIT.
func TinySerial(b *BodyLog, l int64) *loopir.Nest {
	return loopir.MustBuild(func(lb *loopir.B) {
		lb.Serial("K", loopir.Const(l), func(lb *loopir.B) {
			lb.DoallLeaf("Z", loopir.Const(1), b.Body("Z", 1))
		})
	})
}

// tinyGuards is a serial loop around a fan-out of 40 whose iterations
// pass an IF with an empty FALSE branch and then an IF ladder to one of
// four two-iteration leaves: tiny instances behind guards, activated by
// fan-out claims and by completions, with vacuous completions between.
func tinyGuards(b *BodyLog) *loopir.Nest {
	return loopir.MustBuild(func(lb *loopir.B) {
		lb.Serial("K", loopir.Const(2), func(lb *loopir.B) {
			lb.Doall("I", loopir.Const(40), func(lb *loopir.B) {
				lb.If("fifth?", func(iv loopir.IVec) bool { return iv[1]%5 == 0 },
					func(lb *loopir.B) { lb.DoallLeaf("X", loopir.Const(2), b.Body("X", 1)) }, nil)
				var ladder func(lb *loopir.B, k int)
				ladder = func(lb *loopir.B, k int) {
					name := fmt.Sprintf("L%d", k)
					if k == 3 {
						lb.DoallLeaf(name, loopir.Const(2), b.Body(name, 1))
						return
					}
					k64 := int64(k)
					lb.If(name+"?", func(iv loopir.IVec) bool { return iv[1]%4 == k64 },
						func(lb *loopir.B) { lb.DoallLeaf(name, loopir.Const(2), b.Body(name, 1)) },
						func(lb *loopir.B) { ladder(lb, k+1) })
				}
				ladder(lb, 0)
			})
		})
	})
}

// TinyInstances is the exactly-once and precedence matrix of the tiny
// shapes — tiny-serial (a serial loop of 500 one-iteration instances) and
// tiny-guards (two-iteration leaves behind IF ladders) — over every
// scheme, task pool and P ∈ {1, 4}, verified through a BodyLog: an engine
// that runs instances inline runs them here, and the ENTER/EXIT loop
// walks a long chain of completions on every engine.
func TinyInstances(t *testing.T, name string, f Factory) {
	schemes := []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{},
		lowsched.FAC2{}, lowsched.AF{CV: 50}, lowsched.TFSS{},
		adapt.Auto{},
	}
	pools := []core.PoolKind{core.PoolPerLoop, core.PoolSingleList, core.PoolDistributed}
	inlined := 0
	for _, shape := range []struct {
		label string
		nest  func(*BodyLog) *loopir.Nest
	}{
		{"tiny-serial", func(b *BodyLog) *loopir.Nest { return TinySerial(b, 500) }},
		{"tiny-guards", tinyGuards},
	} {
		bl := NewBodyLog()
		prog, pl, ref := compile(t, shape.nest(bl))
		g := descr.BuildGraph(prog)
		for _, s := range schemes {
			for _, pk := range pools {
				for _, p := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/%s/P=%d", shape.label, s.Name(), pk, p), func(t *testing.T) {
						intr := machine.NewInterrupt()
						log := bl.Begin(prog)
						rep, err := core.RunPlan(pl, core.Config{
							Engine: f(p, intr), Scheme: s, Pool: pk, Sink: bl, Interrupt: intr,
						})
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						st := rep.Stats
						if st.Iterations != ref.Iterations || st.Exits != st.Instances || st.Enters != st.Exits+1 {
							t.Errorf("%d iterations, %d instances, %d exits, %d enters; oracle %d iterations",
								st.Iterations, st.Instances, st.Exits, st.Enters, ref.Iterations)
						}
						ctx := refexec.Context{Nest: shape.label, Scheme: s.Name(), Pool: pk.String(), Engine: name}
						if err := log.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
							t.Error(err)
						}
						if err := log.VerifyPrecedence(prog, g); err != nil {
							t.Error(err)
						}
						inlined += bl.Inlined()
					})
				}
			}
		}
	}
	t.Logf("%s: %d instances ran inline across the matrix", name, inlined)
}

// InlineCheckpointResume pauses a chain of tiny instances at a claim-k
// checkpoint and resumes it, on every task pool. On an engine that runs
// instances inline the pause lands among inline instances: the worker
// running the chain finishes the instance whose claim requested the pause,
// publishes the next and drains. The two parts must execute exactly the
// uninterrupted run's iterations and land on its totals.
func InlineCheckpointResume(t *testing.T, name string, f Factory) {
	const p, l, k = 4, 500, 250
	bl := NewBodyLog()
	prog, pl, ref := compile(t, TinySerial(bl, l))
	for _, pk := range []core.PoolKind{core.PoolPerLoop, core.PoolSingleList, core.PoolDistributed} {
		t.Run(pk.String(), func(t *testing.T) {
			leg := func(ck *core.CheckpointConfig) (*core.Report, *trace.Log, int, error) {
				intr := machine.NewInterrupt()
				log := bl.Begin(prog)
				rep, err := core.RunPlan(pl, core.Config{
					Engine: f(p, intr), Scheme: lowsched.SS{}, Pool: pk,
					Sink: bl, Interrupt: intr, Checkpoint: ck,
				})
				return rep, log, bl.Inlined(), err
			}
			full, fullLog, _, err := leg(nil)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			ctx := refexec.Context{Nest: "inline-resume", Scheme: "ss", Pool: pk.String(), Engine: name}
			if err := fullLog.VerifyExactlyOnceIn(prog, ref, ctx); err != nil {
				t.Fatal(err)
			}
			_, partLog, inlined, pause := leg(&core.CheckpointConfig{AfterChunks: k})
			var cke *core.CheckpointedError
			if !errors.As(pause, &cke) {
				t.Fatalf("checkpoint run returned %v, want CheckpointedError", pause)
			}
			rest, restLog, _, err := leg(&core.CheckpointConfig{Restore: cke.Snapshot})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			verifyParts(t, fullLog, partLog, restLog)
			fs, gs := full.Stats, rest.Stats
			if gs.Iterations != fs.Iterations || gs.Instances != fs.Instances || gs.Exits != fs.Exits || gs.Enters != fs.Enters {
				t.Errorf("resumed totals diverge:\nresumed       %+v\nuninterrupted %+v", gs, fs)
			}
			t.Logf("paused after %d inline instances with %d live instances", inlined, len(cke.Snapshot.ICBs))
			if inlines(f) && inlined == 0 {
				t.Errorf("no instance ran inline before the pause")
			}
		})
	}
}

// inlines reports whether the engine f builds runs tiny instances inline.
func inlines(f Factory) bool {
	in, ok := f(1, machine.NewInterrupt()).(interface{ InlineInstances() bool })
	return ok && in.InlineInstances()
}
