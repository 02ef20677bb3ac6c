package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestDOTOutput(t *testing.T) {
	for _, w := range workload.Builtins {
		wl := w.Name
		var buf bytes.Buffer
		if err := run([]string{"-workload", wl, "-n", "3"}, &buf); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		out := buf.String()
		// A single-leaf workload is one node; the nests have edges.
		leaf := strings.Count(out, "[shape=") == 1
		if !strings.HasPrefix(out, "digraph macrodataflow") || strings.Contains(out, "->") == leaf {
			t.Errorf("%s output not DOT:\n%s", wl, out)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "nope"}, &buf); err == nil {
		t.Error("unknown workload accepted")
	}
}
