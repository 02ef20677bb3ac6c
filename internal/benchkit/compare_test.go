package benchkit

import (
	"strings"
	"testing"
)

// mkFile builds a minimal valid result file with one scenario holding
// the given gated metric.
func mkFile(metric string, m Metric) *File {
	return &File{
		SchemaVersion: SchemaVersion,
		Env:           CaptureEnv(),
		Scenarios: []ScenarioResult{{
			Name: "w/ss/virtual", Workload: "w", Scheme: "ss", Pool: "per-loop",
			Engine: "virtual", Procs: 8, Deterministic: true,
			Metrics: map[string]Metric{metric: m},
		}},
	}
}

func gated(median, spread float64, better string) Metric {
	return Metric{
		Unit: "vtime", Better: better, Gate: true,
		Summary: Summary{N: 5, Median: median, Min: median - spread, Mean: median,
			MAD: spread, CILo: median - spread, CIHi: median + spread},
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	f := mkFile("makespan", gated(1000, 0, BetterLess))
	c, err := Compare(f, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Regressions()); n != 0 {
		t.Fatalf("identical files produced %d regressions", n)
	}
}

func TestCompareDoubleSlowdownFails(t *testing.T) {
	old := mkFile("makespan", gated(1000, 0, BetterLess))
	slow := mkFile("makespan", gated(2000, 0, BetterLess))
	c, err := Compare(old, slow, 0)
	if err != nil {
		t.Fatal(err)
	}
	regs := c.Regressions()
	if len(regs) != 1 {
		t.Fatalf("2x slowdown produced %d regressions, want 1", len(regs))
	}
	if regs[0].Ratio != 2 {
		t.Fatalf("ratio = %g, want 2", regs[0].Ratio)
	}
}

func TestCompareBetterMoreDirection(t *testing.T) {
	old := mkFile("utilization", gated(0.9, 0, BetterMore))
	worse := mkFile("utilization", gated(0.4, 0, BetterMore))
	improved := mkFile("utilization", gated(0.95, 0, BetterMore))
	if c, _ := Compare(old, worse, 0); len(c.Regressions()) != 1 {
		t.Fatal("utilization drop not flagged")
	}
	if c, _ := Compare(old, improved, 0); len(c.Regressions()) != 0 {
		t.Fatal("utilization gain flagged as regression")
	}
}

func TestCompareNoiseOverlapSuppresses(t *testing.T) {
	// 30% slower, but both intervals are wide and overlap: the movement
	// is inside measured noise, so it must not gate.
	old := mkFile("wall_ns", gated(1000, 400, BetterLess))
	noisy := mkFile("wall_ns", gated(1300, 400, BetterLess))
	c, err := Compare(old, noisy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Regressions()) != 0 {
		t.Fatal("overlapping confidence intervals must suppress the regression")
	}
}

func TestCompareBelowThresholdSuppresses(t *testing.T) {
	old := mkFile("makespan", gated(1000, 0, BetterLess))
	slight := mkFile("makespan", gated(1050, 0, BetterLess))
	c, err := Compare(old, slight, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Regressions()) != 0 {
		t.Fatal("5% movement must pass a 10% threshold")
	}
}

func TestCompareUngatedNeverRegresses(t *testing.T) {
	m := gated(100, 0, BetterLess)
	m.Gate = false
	old := mkFile("allocs", m)
	worse := mkFile("allocs", gatedClone(m, 10000))
	c, err := Compare(old, worse, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Regressions()) != 0 {
		t.Fatal("non-gated metric must not gate")
	}
}

func gatedClone(m Metric, median float64) Metric {
	m.Median, m.Min, m.Mean, m.CILo, m.CIHi = median, median, median, median, median
	return m
}

func TestCompareMissingScenariosReported(t *testing.T) {
	old := mkFile("makespan", gated(1000, 0, BetterLess))
	other := mkFile("makespan", gated(1000, 0, BetterLess))
	other.Scenarios[0].Name = "renamed/ss/virtual"
	c, err := Compare(old, other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.MissingOld) != 1 || len(c.MissingNew) != 1 {
		t.Fatalf("missing lists: old=%v new=%v", c.MissingOld, c.MissingNew)
	}
	var sb strings.Builder
	c.WriteTable(&sb)
	if !strings.Contains(sb.String(), "renamed/ss/virtual") {
		t.Fatalf("table does not report the mismatch:\n%s", sb.String())
	}
}

func TestCompareRejectsBadSchema(t *testing.T) {
	f := mkFile("makespan", gated(1000, 0, BetterLess))
	bad := mkFile("makespan", gated(1000, 0, BetterLess))
	bad.SchemaVersion = 99
	if _, err := Compare(f, bad, 0); err == nil {
		t.Fatal("schema-version mismatch not rejected")
	}
}

func TestWriteTableMarksRegression(t *testing.T) {
	old := mkFile("makespan", gated(1000, 0, BetterLess))
	slow := mkFile("makespan", gated(2000, 0, BetterLess))
	c, err := Compare(old, slow, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	c.WriteTable(&sb)
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Fatalf("table missing REGRESSION marker:\n%s", sb.String())
	}
}

func TestBitIdentical(t *testing.T) {
	old := mkFile("makespan", gated(1000, 0, BetterLess))
	same := mkFile("makespan", gated(1000, 0, BetterLess))
	if viol := BitIdentical(old, same); len(viol) != 0 {
		t.Fatalf("identical deterministic files flagged: %v", viol)
	}

	// A 1-unit makespan drift on a deterministic scenario is a violation
	// even though the gate's threshold would pass it.
	drift := mkFile("makespan", gated(1001, 0, BetterLess))
	viol := BitIdentical(old, drift)
	if len(viol) != 1 || !strings.Contains(viol[0], "makespan") {
		t.Fatalf("1-unit deterministic drift not flagged: %v", viol)
	}

	// Host-side metrics are exempt: wall clock may move freely.
	oldWall := mkFile("wall_ns", gated(1000, 0, BetterLess))
	newWall := mkFile("wall_ns", gated(9999, 0, BetterLess))
	if viol := BitIdentical(oldWall, newWall); len(viol) != 0 {
		t.Fatalf("host-side wall_ns flagged for bit-identity: %v", viol)
	}

	// Non-deterministic (adaptive) scenarios are exempt.
	oldAuto := mkFile("makespan", gated(1000, 0, BetterLess))
	newAuto := mkFile("makespan", gated(2000, 0, BetterLess))
	oldAuto.Scenarios[0].Deterministic = false
	newAuto.Scenarios[0].Deterministic = false
	if viol := BitIdentical(oldAuto, newAuto); len(viol) != 0 {
		t.Fatalf("adaptive scenario flagged for bit-identity: %v", viol)
	}
}
