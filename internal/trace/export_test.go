package trace_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/trace"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// exportLog runs a small nest on the deterministic virtual machine with
// a recording Log. The virtual engine makes the event stream (order,
// times, processors) bit-identical on every run, which is what lets the
// JSONL format be golden-filed at all.
func exportLog(t *testing.T) *trace.Log {
	t.Helper()
	std, err := workload.Triangular(4, 10).Standardize()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := descr.Compile(std)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New()
	if _, err := core.Run(prog, core.Config{
		Engine: vmachine.New(vmachine.Config{P: 2, AccessCost: 10}),
		Sink:   log,
	}); err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Fatal("run recorded no events")
	}
	return log
}

func TestExportRoundTrip(t *testing.T) {
	log := exportLog(t)
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, got := log.Events(), back.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Kind != w.Kind || g.Loop != w.Loop || g.A != w.A ||
			g.Proc != w.Proc || g.At != w.At || g.Seq != w.Seq {
			t.Fatalf("event %d: got %+v, want %+v", i, g, w)
		}
		// omitempty drops empty index vectors; nil and empty are the
		// same instance identity.
		if len(w.IVec) != len(g.IVec) {
			t.Fatalf("event %d ivec: got %v, want %v", i, g.IVec, w.IVec)
		}
		for k := range w.IVec {
			if w.IVec[k] != g.IVec[k] {
				t.Fatalf("event %d ivec: got %v, want %v", i, g.IVec, w.IVec)
			}
		}
	}
}

// TestExportGolden pins the JSONL wire format: field names, event kind
// spellings and line ordering. Regenerate with `go test -run Golden
// -update ./internal/trace` after a deliberate format change.
func TestExportGolden(t *testing.T) {
	log := exportLog(t)
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "export.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("export format drifted from golden file (run with -update after a deliberate change)\ngot:\n%s\nwant:\n%s",
			firstLines(buf.String(), 5), firstLines(string(want), 5))
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := trace.ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("malformed JSON not rejected")
	}
	if _, err := trace.ReadJSONL(strings.NewReader(`{"kind":"warp-drive","loop":1,"proc":0,"at":0,"seq":1}` + "\n")); err == nil {
		t.Fatal("unknown event kind not rejected")
	}
	l, err := trace.ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || l.Len() != 0 {
		t.Fatalf("blank lines: %v, %d events", err, l.Len())
	}
}

// TestReadJSONLContinuesSequence checks an imported log can keep
// recording: new events must extend, not collide with, the imported
// sequence numbers.
func TestReadJSONLContinuesSequence(t *testing.T) {
	var buf bytes.Buffer
	src := trace.New()
	src.Record(trace.Event{Kind: trace.EvIterStart, Loop: 1, IVec: loopir.IVec{2}, A: 3, At: 100})
	src.Record(trace.Event{Kind: trace.EvIterEnd, Loop: 1, IVec: loopir.IVec{2}, A: 3, At: 110})
	if err := src.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back.Record(trace.Event{Kind: trace.EvCompleted, Loop: 1, IVec: loopir.IVec{2}, At: 120})
	evs := back.Events()
	if len(evs) != 3 || evs[2].Seq != 3 {
		t.Fatalf("sequence not continued: %+v", evs)
	}
}
