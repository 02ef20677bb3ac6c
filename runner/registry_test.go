package runner

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestRecordRidesToSubmittedEvent: Submission.Record reaches the
// consumer on the run's Submitted event and on no other event (the run
// has no field that could keep it).
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
}

// TestRegistryAdmitsAtSubmit: there is one registry, and a run joins it in
// the step that takes its ID — Get, Runs and the duplicate check agree
// even while the run's Submitted event is still waiting behind a slow
// consumer.
func TestRegistryAdmitsAtSubmit(t *testing.T) {
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
	var placed *Run
	for placed == nil {
		time.Sleep(time.Millisecond)
		placed, _ = rn.Get("placed-0002")
	}
	if p := placed.Progress(); p.ID != "placed-0002" {
		t.Errorf("a handle found mid-submission reports %+v", p)
	}
	if n := len(rn.Runs()); n != 2 {
		t.Errorf("Runs lists %d run(s) mid-submission, want 2", n)
	}
	if _, err := rn.Submit(Submission{Program: finiteProgram(t, 50), ID: "placed-0002"}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("second submission of the ID mid-submission: %v, want ErrDuplicateID", err)
	}
	select {
	case <-submitted:
		t.Fatal("Submit returned before its Submitted event was delivered")
	default:
	}
	close(release)
	if r := <-submitted; r != placed {
		t.Errorf("Submit returned %v, Get had found %v", r, placed)
	}
}
