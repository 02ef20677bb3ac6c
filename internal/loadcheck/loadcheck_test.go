package loadcheck

import (
	"context"
	"testing"
	"time"
)

// TestCases runs every registered workload check against its goals.
// This is the CI surface: make verify-gates runs this suite under
// -race -shuffle=on.
func TestCases(t *testing.T) {
	for _, c := range Cases {
		t.Run(c.Name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			rep, err := Run(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s@%s: %d submitted, %d completed, %d shed, %.1f runs/s, %d B/run, %d B/run retained, iters %v",
				rep.Case, rep.Class, rep.Submitted, rep.Completed, rep.Shed,
				rep.Throughput, rep.BytesPerRun, rep.RetainedBytesPerRun, rep.TenantIters)
			for _, v := range rep.Check(c.Goals) {
				t.Error(v)
			}
			if rep.Completed+rep.Shed != rep.Submitted {
				t.Errorf("accounting: %d completed + %d shed != %d submitted",
					rep.Completed, rep.Shed, rep.Submitted)
			}
		})
	}
}

// TestUnknownClass pins the harness's own validation.
func TestUnknownClass(t *testing.T) {
	_, err := Run(context.Background(), Case{Name: "x", Class: "mainframe"})
	if err == nil {
		t.Fatal("unknown machine class accepted")
	}
}
