package trace

import (
	"fmt"
	"strings"

	"repro/internal/descr"
	"repro/internal/machine"
)

// span is one iteration's occupancy of a processor.
type span struct {
	proc     int
	loop     int32
	from, to machine.Time
}

// spans pairs each processor's iteration starts and ends (a processor
// executes one iteration at a time, so the last start is the one an end
// closes), for processors below procs, in end order, and returns them
// with the log's makespan: its latest event time.
func (l *Log) spans(procs int) ([]span, machine.Time) {
	var out []span
	var makespan machine.Time
	start := map[int32]machine.Time{}
	for _, e := range l.Events() {
		makespan = max(makespan, e.At)
		switch e.Kind {
		case EvIterStart:
			start[e.Proc] = e.At
		case EvIterEnd:
			if s, ok := start[e.Proc]; ok && int(e.Proc) < procs {
				out = append(out, span{int(e.Proc), e.Loop, s, e.At})
				delete(start, e.Proc)
			}
		}
	}
	return out, makespan
}

// Gantt renders a per-processor execution timeline from the log: one row
// per processor, width columns covering [0, makespan]. Each column shows
// the first letter of the label of the innermost parallel loop whose
// iteration occupied that processor (the most recent one to start within
// the column), or '.' when idle. Useful for eyeballing load balance and
// pipeline shapes in examples and the CLI.
func (l *Log) Gantt(prog *descr.Program, procs, width int) string {
	if width < 1 {
		width = 64
	}
	spans, makespan := l.spans(procs)
	makespan = max(makespan, 1)
	rows := make([][]byte, procs)
	for p := range rows {
		rows[p] = []byte(strings.Repeat(".", width))
	}
	col := func(t machine.Time) int {
		return min(int(int64(width)*t/(makespan+1)), width-1)
	}
	for _, s := range spans {
		mark := byte('?')
		if label := prog.Leaf(int(s.loop)).Node.Label; label != "" {
			mark = label[0]
		}
		for c := col(s.from); c <= col(s.to); c++ {
			rows[s.proc][c] = mark
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "time 0..%d, %d columns\n", makespan, width)
	for p := 0; p < procs; p++ {
		fmt.Fprintf(&sb, "P%-2d |%s|\n", p, rows[p])
	}
	return sb.String()
}

// Occupancy returns, per processor, the fraction of [0, makespan] spent
// inside iteration bodies according to the log.
func (l *Log) Occupancy(procs int) []float64 {
	spans, makespan := l.spans(procs)
	busy := make([]machine.Time, procs)
	for _, s := range spans {
		busy[s.proc] += s.to - s.from
	}
	out := make([]float64, procs)
	if makespan == 0 {
		return out
	}
	for p := range out {
		out[p] = float64(busy[p]) / float64(makespan)
	}
	return out
}
