package main

import (
	"context"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/journal"
)

// statusOf answers one request with its status code.
func statusOf(t *testing.T, method, url string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// runRoutes is every /v1/runs/{id} route, as method and path suffix.
var runRoutes = []struct{ method, suffix string }{
	{http.MethodGet, ""},
	{http.MethodGet, "/progress"},
	{http.MethodPost, "/cancel"},
	{http.MethodPost, "/checkpoint"},
}

// TestReleasedRunAnswersGone pins the retention contract on every run
// route: a run the daemon released answers 410 Gone, an ID it never
// held 404, and the listing holds only what is retained.
func TestReleasedRunAnswersGone(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{RetainRuns: 1})
	var ids []string
	for i := 0; i < 2; i++ {
		id := submitInProcess(t, s, `{"program": "doall I = 1..40 { work 5 }"}`)
		run, _ := s.rn.Get(id)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := run.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		ids = append(ids, id)
	}
	if got := statusOf(t, http.MethodGet, ts.URL+"/v1/runs/"+ids[1]); got != http.StatusOK {
		t.Errorf("GET of the retained %s: %d, want 200", ids[1], got)
	}
	for _, c := range []struct {
		id   string
		want int
	}{{ids[0], http.StatusGone}, {"run-0099", http.StatusNotFound}, {"n1-run-0001", http.StatusNotFound}} {
		for _, rt := range runRoutes {
			if got := statusOf(t, rt.method, ts.URL+"/v1/runs/"+c.id+rt.suffix); got != c.want {
				t.Errorf("%s /v1/runs/%s%s: %d, want %d", rt.method, c.id, rt.suffix, got, c.want)
			}
		}
	}
	var list []map[string]any
	getJSON(t, ts.URL+"/v1/runs", &list)
	if len(list) != 1 || list[0]["id"] != ids[1] {
		t.Errorf("GET /v1/runs = %v, want only %s", list, ids[1])
	}
}

// TestReplayKeepsIDsTaken reboots on a journal of three finished runs:
// nothing replays, yet numbering continues past them, and their IDs
// answer 410 rather than 404.
func TestReplayKeepsIDsTaken(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	w, err := journal.Open(path, journal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	sub := journalSubmit{Program: "doall I = 1..8 { work 5 }", Options: runOptions{Options: repro.Options{Procs: 2}}}
	for _, id := range []string{"run-0001", "run-0002", "run-0003"} {
		mustAppend(t, w, kindSubmit, id, sub)
		mustAppend(t, w, kindStart, id, nil)
		mustAppend(t, w, kindTerminal, id, journalTerminal{State: "done"})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, serverConfig{JournalPath: path})
	if n := len(s.rn.Runs()); n != 0 {
		t.Fatalf("%d run(s) replayed from a journal of finished ones", n)
	}
	if id := submitInProcess(t, s, `{"program": "doall I = 1..8 { work 5 }"}`); id != "run-0004" {
		t.Errorf("first ID after the reboot = %s, want run-0004", id)
	}
	if got := statusOf(t, http.MethodGet, ts.URL+"/v1/runs/run-0002"); got != http.StatusGone {
		t.Errorf("pre-reboot finished run-0002: %d, want 410", got)
	}
	if got := statusOf(t, http.MethodGet, ts.URL+"/v1/runs/run-0009"); got != http.StatusNotFound {
		t.Errorf("never-held run-0009: %d, want 404", got)
	}
}

// TestReplayDroppedRunAnswersNotFound reboots on a journal whose last
// pending run no longer fits the queue: replay drops it, so the reborn
// daemon never held it and answers 404 for it, not 410 — a placer would
// read 410 as "ended" and never re-run it — yet numbering still passes
// it, while the run that ended before the reboot answers 410. A run the
// node placed on a peer, which ended there, was never held here: 404.
func TestReplayDroppedRunAnswersNotFound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	w, err := journal.Open(path, journal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	sub := journalSubmit{Program: "doall I = 1..1099511627776 { work 1 }", Options: runOptions{Options: repro.Options{Procs: 1}}}
	mustAppend(t, w, kindSubmit, "run-0001", sub)
	mustAppend(t, w, kindTerminal, "run-0001", journalTerminal{State: "done"})
	for _, id := range []string{"run-0002", "run-0003", "run-0004"} {
		mustAppend(t, w, kindSubmit, id, sub)
	}
	// A run this node placed on a peer, which ended there: never held here.
	mustAppend(t, w, kindPlace, "n2-run-0badc0de-0001", journalPlace{Node: "n2", Sub: sub})
	mustAppend(t, w, kindTerminal, "n2-run-0badc0de-0001", journalTerminal{State: "done"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// One worker and a one-run queue: run-0002 runs, run-0003 waits and
	// run-0004 is dropped.
	s, ts := newTestServer(t, serverConfig{JournalPath: path, MaxConcurrent: 1, QueueLimit: 1})
	for id, want := range map[string]int{
		"run-0001": http.StatusGone, "run-0002": http.StatusOK,
		"run-0003": http.StatusOK, "run-0004": http.StatusNotFound,
		"n2-run-0badc0de-0001": http.StatusNotFound,
	} {
		if got := statusOf(t, http.MethodGet, ts.URL+"/v1/runs/"+id); got != want {
			t.Errorf("GET %s after replay: %d, want %d", id, got, want)
		}
	}
	// Free the queue: a cancelled queued run holds its slot until the
	// dispatcher pops it, so stop the running one too.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, r := range s.rn.Runs() {
		r.Cancel()
		r.Wait(ctx)
	}
	if id := submitInProcess(t, s, `{"program": "doall I = 1..8 { work 5 }"}`); id != "run-0005" {
		t.Errorf("first ID after the reboot = %s, want run-0005 (past the dropped run-0004)", id)
	}
}

// TestClusterLostPlacementFailsOver restarts a placement's owner without
// its journal, then lands a newer placement from the same placer on the
// reborn owner before the tracker looks at the older one. The reborn
// owner never held the older ID, so it answers 404 however high the
// placer's numbering has gone there, and the older run fails over: it is
// lost, not released, and no terminal record closes it.
func TestClusterLostPlacementFailsOver(t *testing.T) {
	tc := startCluster(t, 2, t.TempDir(), nil, 0)
	placer := tc.srvs[1].cluster
	owner, _ := placer.peerNamed("n1")
	req := submitRequest{Program: "doall I = 1..1099511627776 { work 1 }", Options: runOptions{Options: repro.Options{Procs: 1}}}
	place := func() string {
		req.ID = placer.placementID("n1")
		if _, err := placer.client.Do(placer.ctx, owner, http.MethodPost, "/v1/runs", req, nil); err != nil {
			t.Fatalf("placing %s on n1: %v", req.ID, err)
		}
		return req.ID
	}
	older := place()
	stopped, stop := context.WithCancel(context.Background())
	stop()
	tc.srvs[0].close(stopped)
	reborn, err := newServer(serverConfig{
		MaxConcurrent:  2,
		SampleInterval: 5 * time.Millisecond,
		JournalPath:    filepath.Join(t.TempDir(), "n1.journal"),
		Cluster:        tc.srvs[0].cfg.Cluster,
	})
	if err != nil {
		t.Fatalf("owner restart: %v", err)
	}
	tc.srvs[0] = reborn
	tc.handlers[0].Store(reborn)
	newer := place()
	defer func() {
		for _, s := range tc.srvs {
			for _, r := range s.rn.Runs() {
				r.Cancel()
			}
		}
	}()
	// Only now does the placer track the older run.
	placer.adopt(&placement{id: older, node: "n1", sub: *req.record("")})
	deadline := time.Now().Add(30 * time.Second)
	for {
		placer.mu.Lock()
		_, open := placer.placements[older]
		placer.mu.Unlock()
		if !open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the lost placement stayed open")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Failed over onto the placer, or onto the reborn owner: either way
	// it runs again.
	home := tc.srvs[1].rn
	if _, ok := home.Get(older); !ok {
		home = reborn.rn
	}
	if run, ok := home.Get(older); !ok || run.State().Terminal() {
		t.Errorf("%s closed without failing over", older)
	}
	for _, k := range journalKinds(t, tc.srvs[1].cfg.JournalPath)[older] {
		if k == kindTerminal {
			t.Errorf("the placer journaled %s as ended; it was lost and must fail over", older)
		}
	}
	if run, ok := reborn.rn.Get(newer); !ok || run.State().Terminal() {
		t.Errorf("the newer placement %s: held %v, want it running on the reborn owner", newer, ok)
	}
}

// TestClusterReleasedPlacementCloses has the owner answer 410 to the
// placer's tracker: the run ended and its outcome was released between
// two polls. The placement closes with a terminal journal record and
// nothing fails over — the run is over, not lost.
func TestClusterReleasedPlacementCloses(t *testing.T) {
	dir := t.TempDir()
	tc := startCluster(t, 2, dir, nil, 0)
	release := tc.ballast(1)
	resp, payload := postJSON(t, tc.url(1)+"/v1/runs",
		`{"program": "doall I = 1..1099511627776 { work 1 }", "options": {"procs": 2}}`)
	release()
	id, _ := payload["id"].(string)
	if resp.StatusCode != http.StatusCreated || !strings.HasPrefix(id, "n1-") {
		t.Fatalf("submit via n2: %d, id %q; want a placement on n1", resp.StatusCode, id)
	}
	tc.intercept(0, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
		if r.Method == http.MethodGet && r.URL.Path == "/v1/runs/"+id {
			http.Error(w, `{"error":"runner: run released"}`, http.StatusGone)
			return
		}
		next.ServeHTTP(w, r)
	})
	placer := tc.srvs[1].cluster
	deadline := time.Now().Add(30 * time.Second)
	for {
		placer.mu.Lock()
		open := len(placer.placements)
		placer.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the placement stayed open after the owner answered 410")
		}
		time.Sleep(5 * time.Millisecond)
	}
	kinds := journalKinds(t, filepath.Join(dir, "n2.journal"))[id]
	if want := []journal.Kind{kindPlace, kindTerminal}; len(kinds) != 2 || kinds[0] != want[0] || kinds[1] != want[1] {
		t.Errorf("placer journaled %v for %s, want place then terminal (no failover re-place)", kinds, id)
	}
	if _, ok := tc.srvs[1].rn.Get(id); ok {
		t.Error("the placer restored the released run locally")
	}
	if got := statusOf(t, http.MethodGet, tc.url(1)+"/v1/runs/"+id); got != http.StatusGone {
		t.Errorf("GET via the placer: %d, want the owner's 410 relayed", got)
	}
	tc.intercept(0, nil)
	if run, ok := tc.srvs[0].rn.Get(id); !ok || run.State().Terminal() {
		t.Errorf("the owner's run: held %v; want it still running, untouched", ok)
	} else {
		run.Cancel()
	}
}
