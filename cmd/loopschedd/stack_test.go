package main

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/runner"
)

// TestZeroTripChainIsServed submits the zero-trip program — a serial
// loop of 2×10⁵ iterations around a doall of none — under a 64 MB stack
// limit. A recursive ENTER/EXIT overflows the stack there, a fatal error
// that kills the daemon; with ENTER and EXIT one loop the run reaches a
// terminal state and the daemon goes on serving.
func TestZeroTripChainIsServed(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	s, _ := newTestServer(t, serverConfig{})
	for _, body := range []string{
		`{"program": "serial K = 1..200000 { doall Z = 1..0 { work 1 } }", "options": {"procs": 4}}`,
		`{"program": "doall I = 1..8 { work 5 }", "options": {"procs": 2}}`,
	} {
		run, _ := s.rn.Get(submitInProcess(t, s, body))
		select {
		case <-run.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: no terminal state within 60s", body)
		}
		if st := run.State(); st != runner.StateDone {
			_, err := run.Result()
			t.Fatalf("%s: state %v (%v), want done", body, st, err)
		}
	}
}
