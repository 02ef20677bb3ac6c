// Package trace is the kernel's one event stream: package core reports
// each scheduling point of the paper's Algorithms 3–6 once, as an Event,
// to the run's one Sink. Two sinks live here, both host-side (recording
// charges no machine time, so it cannot change a virtual schedule):
//
//   - the Log keeps the verification kinds and checks exactly-once
//     execution (every instance the sequential reference records with
//     bound > 0 is activated once and runs each iteration once) and
//     macro-dataflow precedence (along every Fig. 4 edge between executed
//     instances, projected through condition nodes and untaken branches,
//     the predecessor completes before the successor's first iteration);
//   - the Ring is the flight recorder (ring.go).
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/refexec"
)

// Kind discriminates kernel events.
type Kind uint8

// Event kinds, with their A/B payload words.
const (
	EvActivated Kind = iota // an instance was activated; A = bound
	EvIterStart             // iteration A began on processor Proc
	EvIterEnd               // iteration A ended on processor Proc
	EvCompleted             // the instance's icount reached its bound, before the EXIT walk; A = bound
	EvClaim                 // a chunk (or a lease of chunks) [A, B] was claimed
	EvChunk                 // chunk [A, B] finished executing; icount moves at the next post
	EvPost                  // A executed iterations were added to icount, which became B
	EvSwitch                // a processor dropped an exhausted hold to SEARCH; no IVec (the block may be recycled)
	EvBarrier               // the BAR_COUNT barrier of structural loop Loop filled; A = bound
)

var kindNames = [...]string{
	"activated", "iter-start", "iter-end", "completed",
	"claim", "chunk", "post", "switch", "barrier",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one kernel event. At is engine time (virtual units on the
// simulator, nanoseconds on the real engines). Seq is the sink's record
// order: global for the Log, per processor for the Ring. The kernel's
// IVec is only valid during Record — the block it belongs to is recycled
// — so a sink that keeps it clones it.
type Event struct {
	At   machine.Time
	Seq  int64
	IVec loopir.IVec
	A, B int64
	Kind Kind
	Proc int32
	Loop int32
}

// Key returns the instance identity "loop(ivec)".
func (e Event) Key() string { return fmt.Sprintf("%d%v", e.Loop, e.IVec) }

// String renders the event in the Ring's dump format.
func (e Event) String() string {
	head := fmt.Sprintf("t=%-8d p%-2d %-7s loop %d", e.At, e.Proc, e.Kind, e.Loop)
	switch e.Kind {
	case EvActivated, EvCompleted:
		return fmt.Sprintf("%s bound %d outer %d", head, e.A, e.B)
	case EvClaim, EvChunk:
		return fmt.Sprintf("%s [%d,%d]", head, e.A, e.B)
	case EvPost:
		return fmt.Sprintf("%s +%d icount %d", head, e.A, e.B)
	case EvBarrier:
		return fmt.Sprintf("%s bound %d", head, e.A)
	}
	return head
}

// Sink receives the kernel's events, one Record call per event, from
// every processor concurrently; it must not block for long and must not
// charge machine time.
type Sink interface {
	Record(Event)
}

// SchedulingOnly is implemented by a sink that keeps none of the
// iteration kinds (EvIterStart, EvIterEnd): the kernel then makes no
// call on its per-iteration path, so such a sink costs a body nothing.
type SchedulingOnly interface {
	Sink
	SchedulingOnly()
}

// Attach returns the sink of a run that wants the Log, the Ring, both or
// neither (nil).
func Attach(log *Log, ring *Ring) Sink {
	switch {
	case ring == nil && log == nil:
		return nil
	case ring == nil:
		return log
	case log == nil:
		return ring
	}
	return logRing{log, ring}
}

// logRing is both sinks on one run; its dump is the Ring's.
type logRing struct {
	log  *Log
	ring *Ring
}

func (s logRing) Record(e Event)    { s.log.Record(e); s.ring.Record(e) }
func (s logRing) Dump(n int) string { return s.ring.Dump(n) }

// Log is the verification sink: it keeps every event of the four
// verification kinds and is safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	events []Event
	seq    int64
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Record implements Sink. Of the verification kinds the Log keeps what
// verification and the JSONL format read — an activation's bound, an
// iteration's index and processor — and drops the other kinds.
func (l *Log) Record(e Event) {
	switch e.Kind {
	case EvIterStart, EvIterEnd:
	case EvActivated:
		e.Proc = 0
	case EvCompleted:
		e.Proc, e.A = 0, 0
	default:
		return
	}
	e.B = 0
	e.IVec = e.IVec.Clone()
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Events returns a copy of the recorded events in record order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// instance is the per-instance digest built from a log: the oracle's
// observation plus what precedence checking reads.
type instance struct {
	refexec.InstanceObs
	firstStart, completedAt machine.Time
	sawStart                bool
}

func (l *Log) digest() map[string]*instance {
	m := map[string]*instance{}
	for _, e := range l.Events() {
		in := m[e.Key()]
		if in == nil {
			in = &instance{InstanceObs: refexec.InstanceObs{Iters: map[int64]int{}}}
			m[e.Key()] = in
		}
		switch e.Kind {
		case EvActivated:
			in.Activations++
			in.Bound = e.A
		case EvIterStart:
			if !in.sawStart || e.At < in.firstStart {
				in.firstStart = e.At
				in.sawStart = true
			}
		case EvIterEnd:
			in.Iters[e.A]++
		case EvCompleted:
			in.Completions++
			in.completedAt = e.At
		}
	}
	return m
}

// VerifyExactlyOnceIn checks the log against the reference execution:
// the set of activated instances matches the reference's bound>0
// instances, each is activated and completed exactly once, and each
// iteration 1..bound executed exactly once. The comparison (and the
// mismatch dump it writes on failure) is refexec.Check's; ctx identifies
// the configuration (nest, scheme, pool, engine) in the dump.
func (l *Log) VerifyExactlyOnceIn(prog *descr.Program, ref *refexec.Result, ctx refexec.Context) error {
	obs := &refexec.Observed{Instances: map[string]*refexec.InstanceObs{}}
	for k, in := range l.digest() {
		obs.Instances[k] = &in.InstanceObs
	}
	return refexec.Check(ref, prog.NumOf, obs, ctx)
}

// VerifyPrecedence checks the macro-dataflow precedence: for every
// executed instance v and every executed instance u reachable backwards
// from v through condition nodes and unexecuted instances of g, u's
// completion time must not exceed v's first iteration start.
//
// One pass in topological order carries, to every node, the latest
// completion among the executed instances directly behind it, so the
// check is linear in the graph; only an instance that started before that
// completion is walked backwards, to name each violating predecessor.
func (l *Log) VerifyPrecedence(prog *descr.Program, g *descr.Graph) error {
	got := l.digest()
	keyOf := func(n descr.GNode) string { return fmt.Sprintf("%d%v", n.Leaf, n.IVec) }

	// preds[i] and succs[i] are node i's direct neighbours; exec[i] is its
	// digest if it is an executed instance, else nil.
	preds := make([][]int, len(g.Nodes))
	succs := make([][]int, len(g.Nodes))
	indeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		preds[e.To] = append(preds[e.To], e.From)
		succs[e.From] = append(succs[e.From], e.To)
		indeg[e.To]++
	}
	exec := make([]*instance, len(g.Nodes))
	for i, n := range g.Nodes {
		if n.Kind == descr.GInstance {
			exec[i] = got[keyOf(n)]
		}
	}

	// behind[i] is the latest completion among the executed instances
	// behind node i: its predecessors that executed, and those behind its
	// other predecessors. A node the topological order does not reach (a
	// cycle) is flagged as if a violation were behind it.
	order := make([]int, 0, len(g.Nodes))
	for i, d := range indeg {
		if d == 0 {
			order = append(order, i)
		}
	}
	for k := 0; k < len(order); k++ {
		for _, s := range succs[order[k]] {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	behind := make([]machine.Time, len(g.Nodes))
	for i := range behind {
		behind[i] = math.MaxInt64
	}
	for _, i := range order {
		behind[i] = math.MinInt64
		for _, p := range preds[i] {
			if u := exec[p]; u != nil {
				behind[i] = max(behind[i], u.completedAt)
			} else {
				behind[i] = max(behind[i], behind[p])
			}
		}
	}

	var errs []string
	for vi, v := range exec {
		if v == nil || !v.sawStart || behind[vi] <= v.firstStart {
			continue
		}
		// Name the executed instance predecessors that completed too late,
		// walking through cond nodes and unexecuted instances.
		vn := g.Nodes[vi]
		seen := map[int]bool{vi: true}
		stack := append([]int(nil), preds[vi]...)
		for len(stack) > 0 {
			ui := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[ui] {
				continue
			}
			seen[ui] = true
			if u := exec[ui]; u != nil {
				if u.completedAt > v.firstStart {
					errs = append(errs, fmt.Sprintf(
						"precedence violated: %s completed at %d after %s started at %d",
						keyOf(g.Nodes[ui]), u.completedAt, keyOf(vn), v.firstStart))
				}
				continue // constraints beyond an executed pred are transitive
			}
			// Condition node or unexecuted instance: project through.
			stack = append(stack, preds[ui]...)
		}
	}
	sort.Strings(errs)
	return joinErrs(errs)
}

func joinErrs(errs []string) error {
	if len(errs) == 0 {
		return nil
	}
	const max = 12
	if len(errs) > max {
		errs = append(errs[:max], fmt.Sprintf("... and %d more", len(errs)-max))
	}
	return fmt.Errorf("trace: %s", strings.Join(errs, "\n"))
}
