package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's report body")

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"F1", "F8", "E1", "E11"} {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("list missing %s", id)
		}
	}
}

func TestSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "f3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "coalesced") || !strings.Contains(buf.String(), "check [PASS]") {
		t.Errorf("F3 output:\n%s", buf.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "Z9"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestReportIsByteStable pins EXPERIMENTS.md's "verbatim output"
// contract: the full report equals the committed body (the fenced block
// after that phrase) byte for byte. A formatted function value prints its
// address (0x…), which moves from build to build, so none may appear.
// Rewrite the body with `go test -run TestReportIsByteStable ./cmd/experiments -update`.
func TestReportIsByteStable(t *testing.T) {
	const path, anchor, fence = "../../EXPERIMENTS.md", "verbatim output", "```\n"
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "0x") {
			t.Errorf("report prints an address: %q", line)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	_, rest, ok1 := strings.Cut(doc, anchor)
	_, rest, ok2 := strings.Cut(rest, fence)
	body, _, ok3 := strings.Cut(rest, fence)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("%s has no fenced block after %q", path, anchor)
	}
	if body == out.String() {
		return
	}
	if !*update {
		got, want := strings.Split(out.String(), "\n"), strings.Split(body, "\n")
		n := 0
		for n < len(got)-1 && n < len(want)-1 && got[n] == want[n] {
			n++
		}
		t.Fatalf("%s report body is stale (rerun with -update); first difference, report line %d:\n got %q\nwant %q",
			path, n+1, got[n], want[n])
	}
	i := len(doc) - len(rest)
	if err := os.WriteFile(path, []byte(doc[:i]+out.String()+doc[i+len(body):]), 0o644); err != nil {
		t.Fatal(err)
	}
}
