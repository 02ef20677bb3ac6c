package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestRelErr(t *testing.T) {
	if RelErr(11, 10) != 0.1 {
		t.Error("RelErr(11,10) != 0.1")
	}
	if RelErr(0, 0) != 0 {
		t.Error("RelErr(0,0) != 0")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) not +Inf")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Utilization vs k", "k", "eta", "note")
	tb.Add(1, 0.51234, "base")
	tb.Add(16, 0.98765, "best")
	out := tb.String()
	for _, want := range []string{"## Utilization vs k", "k", "eta", "0.5123", "0.9877", "best", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	// Columns align: header row and data rows have consistent prefixes.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}
