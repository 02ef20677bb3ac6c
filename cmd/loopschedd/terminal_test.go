package main

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// A terminal run is an outcome record: the runner has let go of its
// executor (DESIGN §16, "What a terminal run holds"). The tests here pin
// that the API over such a run answers exactly as it did when the
// executor was still attached.

// TestTerminalRunAPI: on a finished run a pause request is still 409, a
// cancel still 202 with the terminal state, and the progress stream still
// one final line — byte for byte the line recorded before terminal runs
// released their executor (testdata/terminal_progress.golden, wall-clock
// elapsed_ns zeroed).
func TestTerminalRunAPI(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	id := submitInProcess(t, s, `{"program": "doall I = 1..2 { doall A = 1..16 { work 20 } }\ndoall B = 1..8 { work 50 }", "label": "golden", "options": {"procs": 4, "scheme": "gss"}}`)
	drainServer(t, s)

	resp, payload := postJSON(t, ts.URL+"/v1/runs/"+id+"/checkpoint", "")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("checkpoint of a done run: status %d (%v), want 409", resp.StatusCode, payload)
	}
	resp, payload = postJSON(t, ts.URL+"/v1/runs/"+id+"/cancel", "")
	if resp.StatusCode != http.StatusAccepted || payload["state"] != "done" {
		t.Errorf("cancel of a done run: status %d, state %v; want 202, done", resp.StatusCode, payload["state"])
	}

	stream, err := http.Get(ts.URL + "/v1/runs/" + id + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(stream.Body)
	stream.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/terminal_progress.golden")
	if err != nil {
		t.Fatal(err)
	}
	got = regexp.MustCompile(`"elapsed_ns":\d+`).ReplaceAll(got, []byte(`"elapsed_ns":0`))
	if string(got) != string(want) {
		t.Errorf("progress stream of a done run\n got %s\nwant %s", got, want)
	}
}

// TestWatchdogCancelledRunKeepsDiagnostic: a run the watchdog declared
// stuck and cancelled still shows the diagnostic — executor dump and
// flight tail, captured while the executor was there — once it is
// terminal.
func TestWatchdogCancelledRunKeepsDiagnostic(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{Watchdog: 50 * time.Millisecond, WatchdogCancel: true})
	// real-spin burns ~1ns per work unit: each iteration pins the
	// heartbeat far past the watchdog interval.
	resp, payload := postJSON(t, ts.URL+"/v1/runs",
		`{"program": "doall I = 1..6 { work 300000000 }", "options": {"procs": 2, "engine": "real-spin"}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d (%v)", resp.StatusCode, payload)
	}
	id := payload["id"].(string)
	var status struct {
		State string `json:"state"`
		Stuck string `json:"stuck"`
	}
	for deadline := time.Now().Add(30 * time.Second); status.State != "cancelled"; {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never cancelled the run: %+v", status)
		}
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/runs/"+id, &status)
	}
	for _, want := range []string{"stuck: heartbeat pinned", "flight recorder:"} {
		if !strings.Contains(status.Stuck, want) {
			t.Errorf("terminal status lost the stuck diagnostic (missing %q):\n%s", want, status.Stuck)
		}
	}
}
