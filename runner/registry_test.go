package runner

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestRecordRidesToSubmittedEvent: Submission.Record reaches the
// consumer on the run's Submitted event, on no other event, and the
// handle does not keep it.
func TestRecordRidesToSubmittedEvent(t *testing.T) {
	var mu sync.Mutex
	got := map[EventKind]any{}
	rn := New(Config{OnEvent: func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		got[ev.Kind] = ev.Record
	}})
	defer rn.Close()
	run, err := rn.Submit(Submission{Program: finiteProgram(t, 50), Record: "the wire request"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := rn.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[EventSubmitted] != "the wire request" {
		t.Errorf("Submitted carried %v", got[EventSubmitted])
	}
	if got[EventStarted] != nil || got[EventTerminal] != nil {
		t.Errorf("later events carried a record: %v", got)
	}
	if run.record != nil {
		t.Error("the handle still references the record")
	}
}

// TestRegistryAdmitsOnSubmitted: the Runner's registry is the manager's,
// but a run joins it only once its Submitted event was consumed — a Get
// by a caller-chosen ID while the submission is still in flight misses,
// exactly as when the Runner kept its own map.
func TestRegistryAdmitsOnSubmitted(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	rn := New(Config{MaxConcurrent: 2, OnEvent: func(ev Event) {
		if ev.Kind == EventStarted && ev.Run.ID() == "run-0001" {
			close(entered)
			<-release
		}
	}})
	defer rn.Close()
	if _, err := rn.Submit(Submission{Program: finiteProgram(t, 50)}); err != nil {
		t.Fatal(err)
	}
	<-entered // the stream is stalled inside run-0001's Started event

	submitted := make(chan *Run)
	go func() {
		r, err := rn.Submit(Submission{Program: finiteProgram(t, 50), ID: "placed-0002"})
		if err != nil {
			t.Error(err)
		}
		submitted <- r
	}()
	for {
		if _, ok := rn.mgr.Get("placed-0002"); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if r, ok := rn.Get("placed-0002"); ok || r != nil {
		t.Error("Get found a run whose Submitted event is still queued")
	}
	if n := len(rn.Runs()); n != 1 {
		t.Errorf("Runs lists %d run(s) mid-submission, want 1", n)
	}
	close(release)
	r := <-submitted
	if got, ok := rn.Get("placed-0002"); !ok || got != r {
		t.Errorf("Get after Submit = %v, %v; want the submitted handle", got, ok)
	}
	if n := len(rn.Runs()); n != 2 {
		t.Errorf("Runs lists %d run(s), want 2", n)
	}
}
