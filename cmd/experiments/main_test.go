package main

import (
	"bytes"
	"strings"
	"testing"
)

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

// TestReportIsByteStable pins what EXPERIMENTS.md's "verbatim output"
// contract rests on: the full report is the same bytes from every build
// and every run. A formatted function value prints its address (0x…),
// which moves from build to build; two runs catch anything else that does
// not repeat.
func TestReportIsByteStable(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(nil, &first); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(first.String(), "\n") {
		if strings.Contains(line, "0x") {
			t.Errorf("report prints an address: %q", line)
		}
	}
	if err := run(nil, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two runs of the full report differ")
	}
}
