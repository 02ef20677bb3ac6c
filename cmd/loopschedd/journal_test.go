package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/journal"
)

// mustAppend journals one record through the package's own writer, the
// way a live daemon would have.
func mustAppend(t *testing.T, w *journal.Writer, kind journal.Kind, id string, payload any) {
	t.Helper()
	var data []byte
	if payload != nil {
		var err error
		data, err = json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(kind, id, data); err != nil {
		t.Fatal(err)
	}
}

// seedJournal writes a journal as a daemon killed mid-run would have
// left it: one completed run, one running, one with a submission that no
// longer compiles, one still queued — plus a torn half-record at the
// tail from the crash itself.
func seedJournal(t *testing.T, path, program string) {
	t.Helper()
	w, err := journal.Open(path, journal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	sub := journalSubmit{Program: program, Options: runOptions{Options: repro.Options{Procs: 2, Scheme: "gss"}}}
	mustAppend(t, w, kindSubmit, "run-0001", sub)
	mustAppend(t, w, kindStart, "run-0001", nil)
	mustAppend(t, w, kindTerminal, "run-0001", journalTerminal{State: "done"})
	mustAppend(t, w, kindSubmit, "run-0002", sub)
	mustAppend(t, w, kindStart, "run-0002", nil)
	mustAppend(t, w, kindSubmit, "run-0003", journalSubmit{Program: "doall I = "})
	mustAppend(t, w, kindSubmit, "run-0004", sub)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{journal.Version, 1, 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayRequeuesUnfinishedRuns is the crash-recovery
// acceptance test: a daemon booted on the journal of a killed
// predecessor re-queues exactly the runs without a terminal record,
// under their original IDs, and journals their completions so a third
// boot replays nothing.
func TestJournalReplayRequeuesUnfinishedRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	seedJournal(t, path, "doall I = 1..40 { work 20 }")

	s, ts := newTestServer(t, serverConfig{JournalPath: path})
	if _, ok := s.rn.Get("run-0001"); ok {
		t.Error("completed run-0001 was re-queued")
	}
	if _, ok := s.rn.Get("run-0003"); ok {
		t.Error("unparseable run-0003 was re-queued")
	}
	for _, id := range []string{"run-0002", "run-0004"} {
		run, ok := s.rn.Get(id)
		if !ok {
			t.Fatalf("run %s was not replayed", id)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := run.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("replayed run %s: %v", id, err)
		}
		if res.Stats.Iterations != 40 {
			t.Errorf("replayed run %s iterations = %d, want 40", id, res.Stats.Iterations)
		}
	}

	// A fresh submission must not collide with the replayed IDs.
	resp, payload := postJSON(t, ts.URL+"/v1/runs", `{"program": "doall I = 1..4 { work 5 }"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d (%v)", resp.StatusCode, payload)
	}
	if id := payload["id"].(string); id != "run-0005" {
		t.Errorf("fresh ID after replay = %q, want run-0005", id)
	}

	// Close flushes the terminal records; a daemon booted on the same
	// journal afterwards has nothing left to replay.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s.close(ctx)
	cancel()
	s2, err := newServer(serverConfig{MaxConcurrent: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.close(ctx)
	}()
	if runs := s2.rn.Runs(); len(runs) != 0 {
		ids := make([]string, len(runs))
		for i, r := range runs {
			ids[i] = r.ID()
		}
		t.Errorf("second boot replayed %v, want nothing", ids)
	}
}

// TestJournalReplayRespectsMaxConcurrent: replayed runs go through the
// same admission queue as fresh ones — with one worker slot, the second
// replayed run may only start after the first is terminal.
func TestJournalReplayRespectsMaxConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	w, err := journal.Open(path, journal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	sub := journalSubmit{Program: "doall I = 1..100000 { work 50 }", Options: runOptions{Options: repro.Options{Procs: 2}}}
	mustAppend(t, w, kindSubmit, "run-0001", sub)
	mustAppend(t, w, kindSubmit, "run-0002", sub)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := newServer(serverConfig{MaxConcurrent: 1, SampleInterval: 5 * time.Millisecond, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.close(ctx)
	}()
	r1, ok1 := s.rn.Get("run-0001")
	r2, ok2 := s.rn.Get("run-0002")
	if !ok1 || !ok2 {
		t.Fatalf("replayed runs missing: %v %v", ok1, ok2)
	}
	select {
	case <-r2.Started():
	case <-time.After(30 * time.Second):
		t.Fatal("second replayed run never started")
	}
	select {
	case <-r1.Done():
	default:
		t.Error("run-0002 started while run-0001 still held the only worker slot")
	}
}

// TestJournalDrainFlushesAndLeaksNoGoroutines: a graceful drain writes
// every terminal record before close returns, and nothing that delivered
// them is left running.
func TestJournalDrainFlushesAndLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	path := filepath.Join(t.TempDir(), "runs.journal")
	s, ts := newTestServer(t, serverConfig{JournalPath: path})

	ids := make([]string, 3)
	for i := range ids {
		resp, payload := postJSON(t, ts.URL+"/v1/runs",
			`{"program": "doall I = 1..30 { work 10 }", "options": {"procs": 2}}`)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit status = %d (%v)", resp.StatusCode, payload)
		}
		ids[i] = payload["id"].(string)
	}
	for _, id := range ids {
		run, ok := s.rn.Get(id)
		if !ok {
			t.Fatalf("run %s missing", id)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := run.Wait(ctx); err != nil {
			t.Fatalf("run %s: %v", id, err)
		}
		cancel()
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s.close(ctx)
	cancel()

	recs, err := journal.ReadFile(path)
	if err != nil {
		t.Fatalf("journal damaged after clean drain: %v", err)
	}
	last := map[string]journal.Kind{}
	for _, rec := range recs {
		last[rec.ID] = rec.Kind
	}
	for _, id := range ids {
		if last[id] != kindTerminal {
			t.Errorf("run %s's last journal record is kind %d, want terminal", id, last[id])
		}
	}

	// The event pump and the runner's workers must all be gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCheckpointResumeOverHTTP drives the wire-level cycle: submit with
// a deterministic checkpoint trigger, read the snapshot out of the run
// status, resubmit it under options.resume, and get the full result.
func TestCheckpointResumeOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	const program = "doall I = 1..24 { work 50 }"
	resp, payload := postJSON(t, ts.URL+"/v1/runs", fmt.Sprintf(
		`{"program": %q, "options": {"procs": 4, "scheme": "gss", "checkpoint_after": 5}}`, program))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d (%v)", resp.StatusCode, payload)
	}
	id := payload["id"].(string)

	var status struct {
		State      string          `json:"state"`
		Checkpoint json.RawMessage `json:"checkpoint"`
	}
	deadline := time.After(30 * time.Second)
	for status.State != "checkpointed" {
		select {
		case <-deadline:
			t.Fatalf("run never checkpointed: %+v", status)
		case <-time.After(5 * time.Millisecond):
		}
		getJSON(t, ts.URL+"/v1/runs/"+id, &status)
	}
	if len(status.Checkpoint) == 0 {
		t.Fatal("checkpointed status carries no checkpoint")
	}

	resp, payload = postJSON(t, ts.URL+"/v1/runs", fmt.Sprintf(
		`{"program": %q, "options": {"procs": 4, "scheme": "gss", "resume": %s}}`,
		program, status.Checkpoint))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("resume submit status = %d (%v)", resp.StatusCode, payload)
	}
	rid := payload["id"].(string)
	var final struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Stats struct {
				Iterations int64 `json:"Iterations"`
			} `json:"stats"`
		} `json:"result"`
	}
	deadline = time.After(30 * time.Second)
	for final.State != "done" {
		select {
		case <-deadline:
			t.Fatalf("resumed run never finished: %+v", final)
		case <-time.After(5 * time.Millisecond):
		}
		getJSON(t, ts.URL+"/v1/runs/"+rid, &final)
		if final.State == "failed" {
			t.Fatalf("resumed run failed: %s", final.Error)
		}
	}
	if final.Result == nil || final.Result.Stats.Iterations != 24 {
		t.Errorf("resumed run result = %+v, want all 24 iterations", final.Result)
	}
}

// TestResumeVersion1CheckpointOverHTTP submits a checkpoint in snapshot
// format version 1: the strict submit decoder accepts its "bars" key, and
// the run, whose barrier counts restore derives, completes.
func TestResumeVersion1CheckpointOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	program, err := os.ReadFile("../../testdata/checkpoint_v1.loop")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := os.ReadFile("../../testdata/checkpoint_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	resp, payload := postJSON(t, ts.URL+"/v1/runs", fmt.Sprintf(
		`{"program": %q, "options": {"procs": 4, "resume": %s}}`, program, ck))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("resume submit status = %d (%v)", resp.StatusCode, payload)
	}
	var final struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Stats struct {
				Iterations int64 `json:"Iterations"`
			} `json:"stats"`
		} `json:"result"`
	}
	deadline := time.After(30 * time.Second)
	for final.State != "done" {
		select {
		case <-deadline:
			t.Fatalf("resumed run never finished: %+v", final)
		case <-time.After(5 * time.Millisecond):
		}
		getJSON(t, ts.URL+"/v1/runs/"+payload["id"].(string), &final)
		if final.State == "failed" {
			t.Fatalf("resumed run failed: %s", final.Error)
		}
	}
	if final.Result == nil || final.Result.Stats.Iterations != 128 {
		t.Errorf("resumed run result = %+v, want all 128 iterations", final.Result)
	}
}

// TestCheckpointEndpoint covers the live-request path: POST
// /v1/runs/{id}/checkpoint pauses a long checkpointable run, plus the
// 404 and 409 error contracts.
func TestCheckpointEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, payload := postJSON(t, ts.URL+"/v1/runs",
		`{"program": "doall I = 1..1099511627776 { work 100 }", "options": {"checkpointable": true}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d (%v)", resp.StatusCode, payload)
	}
	id := payload["id"].(string)

	// The request can race the dispatch out of the queue; retry on 409.
	deadline := time.After(30 * time.Second)
	for {
		cresp, cpayload := postJSON(t, ts.URL+"/v1/runs/"+id+"/checkpoint", "")
		if cresp.StatusCode == http.StatusAccepted {
			break
		}
		if cresp.StatusCode != http.StatusConflict {
			t.Fatalf("checkpoint status = %d (%v)", cresp.StatusCode, cpayload)
		}
		select {
		case <-deadline:
			t.Fatal("checkpoint request never accepted")
		case <-time.After(5 * time.Millisecond):
		}
	}

	var status struct {
		State      string          `json:"state"`
		Checkpoint json.RawMessage `json:"checkpoint"`
	}
	deadline = time.After(30 * time.Second)
	for status.State != "checkpointed" {
		select {
		case <-deadline:
			t.Fatalf("run never paused: %+v", status)
		case <-time.After(5 * time.Millisecond):
		}
		getJSON(t, ts.URL+"/v1/runs/"+id, &status)
	}
	if len(status.Checkpoint) == 0 || !strings.Contains(string(status.Checkpoint), "snapshot") {
		t.Errorf("paused run carries no snapshot: %s", status.Checkpoint)
	}

	if cresp, _ := postJSON(t, ts.URL+"/v1/runs/nope/checkpoint", ""); cresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run checkpoint status = %d, want 404", cresp.StatusCode)
	}
	// A run submitted without the option rejects the request.
	resp, payload = postJSON(t, ts.URL+"/v1/runs", `{"program": "doall I = 1..4 { work 5 }"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("plain submit status = %d (%v)", resp.StatusCode, payload)
	}
	pid := payload["id"].(string)
	if cresp, _ := postJSON(t, ts.URL+"/v1/runs/"+pid+"/checkpoint", ""); cresp.StatusCode != http.StatusConflict {
		t.Errorf("plain run checkpoint status = %d, want 409", cresp.StatusCode)
	}
}

// TestStuckDiagnosticIncludesFlightTail: when the watchdog declares a
// run stuck, the diagnostic surfaced in the run's status must end with
// the flight recorder's tail — the last scheduler events before the
// stall.
func TestStuckDiagnosticIncludesFlightTail(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{Watchdog: 50 * time.Millisecond})
	// real-spin burns ~1ns per work unit, so each iteration pins the
	// heartbeat for ~0.3s — far past the watchdog interval.
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
	deadline := time.After(30 * time.Second)
	for status.Stuck == "" {
		select {
		case <-deadline:
			t.Fatalf("watchdog never declared the run stuck: %+v", status)
		case <-time.After(5 * time.Millisecond):
		}
		getJSON(t, ts.URL+"/v1/runs/"+id, &status)
	}
	for _, want := range []string{"flight recorder:", "claim"} {
		if !strings.Contains(status.Stuck, want) {
			t.Errorf("stuck diagnostic missing %q:\n%s", want, status.Stuck)
		}
	}
}
