package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/trace"
	"repro/internal/vmachine"
)

func TestGanttRendersOccupiedColumns(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("X", loopir.Const(8), func(e loopir.Env, iv loopir.IVec, j int64) {
			e.Work(100)
		})
	})
	std, _ := nest.Standardize()
	prog, err := descr.Compile(std)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	if _, err := core.Run(prog, core.Config{
		Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 2}),
		Sink:   log,
	}); err != nil {
		t.Fatal(err)
	}
	g := log.Gantt(prog, 4, 40)
	if !strings.Contains(g, "P0 ") || !strings.Contains(g, "P3 ") {
		t.Fatalf("gantt missing processor rows:\n%s", g)
	}
	if !strings.Contains(g, "X") {
		t.Fatalf("gantt has no occupied columns:\n%s", g)
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 5 { // header + 4 processors
		t.Fatalf("gantt has %d lines:\n%s", len(lines), g)
	}
}

func TestGanttEmptyLog(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("X", loopir.Const(1), func(e loopir.Env, iv loopir.IVec, j int64) {})
	})
	std, _ := nest.Standardize()
	prog, _ := descr.Compile(std)
	g := trace.New().Gantt(prog, 2, 10)
	if !strings.Contains(g, "..........") {
		t.Errorf("empty log should render idle rows:\n%s", g)
	}
}

func TestWriteJSONL(t *testing.T) {
	log := trace.New()
	for _, e := range []trace.Event{
		{Kind: trace.EvActivated, Loop: 2, IVec: loopir.IVec{1}, A: 4, At: 5},
		{Kind: trace.EvIterStart, Loop: 2, IVec: loopir.IVec{1}, A: 1, At: 6},
		{Kind: trace.EvIterEnd, Loop: 2, IVec: loopir.IVec{1}, A: 1, At: 9},
		{Kind: trace.EvCompleted, Loop: 2, IVec: loopir.IVec{1}, At: 9},
	} {
		log.Record(e)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL lines = %d:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "activated" || first["loop"] != float64(2) {
		t.Errorf("first event = %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["kind"] != "iter-start" || second["at"] != float64(6) {
		t.Errorf("second event = %v", second)
	}
}

func TestOccupancy(t *testing.T) {
	log := trace.New()
	// P0 busy [0,50] of makespan 100; P1 busy [0,100].
	for _, e := range []trace.Event{
		{Kind: trace.EvIterStart, Loop: 1, A: 1, At: 0},
		{Kind: trace.EvIterEnd, Loop: 1, A: 1, At: 50},
		{Kind: trace.EvIterStart, Loop: 1, A: 2, Proc: 1, At: 0},
		{Kind: trace.EvIterEnd, Loop: 1, A: 2, Proc: 1, At: 100},
	} {
		log.Record(e)
	}
	occ := log.Occupancy(2)
	if occ[0] != 0.5 || occ[1] != 1.0 {
		t.Errorf("occupancy = %v, want [0.5 1]", occ)
	}
	if got := trace.New().Occupancy(2); got[0] != 0 || got[1] != 0 {
		t.Errorf("empty occupancy = %v", got)
	}
}
