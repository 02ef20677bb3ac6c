package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestAllIDsUniqueAndOrdered(t *testing.T) {
	ids := IDs()
	want := []string{"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestByID(t *testing.T) {
	if e, ok := ByID("e3"); !ok || e.ID != "E3" {
		t.Errorf("ByID(e3) = %v %v", e.ID, ok)
	}
	if _, ok := ByID("Z9"); ok {
		t.Error("ByID(Z9) found")
	}
}

// TestEveryExperimentPasses runs each experiment and requires every shape
// check to pass — this is the repository's statement that the paper's
// qualitative results reproduce.
func TestEveryExperimentPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are full runs; skipped in -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			v, err := e.Run(&buf)
			if err != nil {
				t.Fatalf("%s error: %v\noutput:\n%s", e.ID, err, buf.String())
			}
			for _, c := range v.Checks {
				if !c.OK {
					t.Errorf("%s check %q failed: %s", e.ID, c.Name, c.Note)
				}
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full report; skipped in -short")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	out := buf.String()
	for _, id := range IDs() {
		if !strings.Contains(out, id+" — ") {
			t.Errorf("report missing section %s", id)
		}
	}
	if strings.Contains(out, "[FAIL]") {
		t.Error("report contains failed checks")
	}
}

func TestVerdictHelpers(t *testing.T) {
	var v Verdict
	v.check("a", true, "fine")
	v.check("b", false, "broken %d", 7)
	if v.OK() {
		t.Error("OK with a failure")
	}
	f := v.Failures()
	if len(f) != 1 || f[0].Name != "b" || f[0].Note != "broken 7" {
		t.Errorf("failures = %+v", f)
	}
	var buf bytes.Buffer
	v.Write(&buf)
	if !strings.Contains(buf.String(), "[FAIL] b") {
		t.Errorf("verdict rendering:\n%s", buf.String())
	}
}

func TestRealEngineSmoke(t *testing.T) {
	if err := realEngineSmoke(); err != nil {
		t.Fatal(err)
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)
