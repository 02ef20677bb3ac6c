package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/journal"
)

// TestWireOptionsGolden pins the "options" object — now the
// repro.Options table plus the daemon's two — to the 21 + 2 names and
// JSON kinds the hand-copied runOptions struct had at the parent commit:
// the client API, the journal and the intra-cluster forward all carry it.
func TestWireOptionsGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wire_options.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got, names []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(runOptions{})) {
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" || name == "-" {
			continue
		}
		if opts != "omitempty" {
			t.Errorf("%s is not omitempty", name)
		}
		kind := map[reflect.Kind]string{
			reflect.Int: "number", reflect.Int64: "number", reflect.Bool: "bool",
			reflect.String: "string", reflect.Pointer: "object",
		}[f.Type.Kind()]
		got, names = append(got, name+" "+kind), append(names, name)
	}
	if !slices.Equal(optionNames(), names) {
		t.Errorf("optionNames() = %q, want %q", optionNames(), names)
	}
	slices.Sort(got)
	if want := strings.Split(strings.TrimSpace(string(golden)), "\n"); !slices.Equal(got, want) {
		t.Errorf("wire options:\n got %q\nwant %q", got, want)
	}
}

// TestWireOptionsRoundTrip: a fully-populated options object survives
// marshal → unmarshal unchanged, which is what lets the journal record
// and the cluster forward re-send what the client sent.
func TestWireOptionsRoundTrip(t *testing.T) {
	var want runOptions
	for _, f := range reflect.VisibleFields(reflect.TypeOf(want)) {
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "" || name == "-" {
			continue
		}
		switch v := reflect.ValueOf(&want).Elem().FieldByIndex(f.Index); v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString("x")
		case reflect.Pointer:
			v.Set(reflect.ValueOf(&repro.Checkpoint{Program: "fp"}))
		}
	}
	wire, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var asMap map[string]any
	if err := json.Unmarshal(wire, &asMap); err != nil || len(asMap) != 23 {
		t.Errorf("populated options marshal to %d keys (%v), want 23: %s", len(asMap), err, wire)
	}
	var got runOptions
	if err := json.Unmarshal(wire, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the options:\n got %+v\nwant %+v", got, want)
	}
}

// TestUnknownOptionRejectedWithNames: a mistyped option name is a 400
// that lists the names, not a run with defaults.
func TestUnknownOptionRejectedWithNames(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{})
	resp, payload := postJSON(t, ts.URL+"/v1/runs",
		`{"program": "doall I = 1..4 { work 5 }", "options": {"acess_cost": 5}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%v)", resp.StatusCode, payload)
	}
	if msg, _ := payload["error"].(string); !strings.Contains(msg, `unknown field "acess_cost"`) {
		t.Errorf("error = %q", msg)
	}
	valid, _ := payload["valid"].([]any)
	if len(valid) != 23 || !slices.Contains(valid, any("access_cost")) || !slices.Contains(valid, any("checkpoint_every")) {
		t.Errorf("valid = %v, want the 23 option names", valid)
	}
	if n := len(s.rn.Runs()); n != 0 {
		t.Errorf("%d run(s) were submitted", n)
	}
}

// TestReplayToleratesUnknownOption: the strict decoder is for clients;
// a journal written by a daemon that knew an option this one does not
// must still replay.
func TestReplayToleratesUnknownOption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	w, err := journal.Open(path, journal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, kindSubmit, "run-0001", json.RawMessage(
		`{"program":"doall I = 1..40 { work 20 }","options":{"procs":2,"retired_option":9}}`))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, serverConfig{JournalPath: path})
	run, ok := s.rn.Get("run-0001")
	if !ok {
		t.Fatal("run-0001 was not replayed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if res, err := run.Wait(ctx); err != nil || res.Procs != 2 {
		t.Errorf("replayed run = %+v, %v; want P=2", res, err)
	}
}
