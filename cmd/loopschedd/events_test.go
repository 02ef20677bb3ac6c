package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/lang"
)

// submitInProcess POSTs a submission straight into the handler (no
// listener, so no connection goroutines) and returns the run ID.
func submitInProcess(t *testing.T, s *server, body string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit status = %d: %s", rec.Code, rec.Body)
	}
	var st runStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// journalKinds reads the journal back and groups the record kinds by run
// ID, in file order.
func journalKinds(t *testing.T, path string) map[string][]journal.Kind {
	t.Helper()
	recs, err := journal.ReadFile(path)
	if err != nil {
		t.Fatalf("journal damaged: %v", err)
	}
	kinds := map[string][]journal.Kind{}
	for _, rec := range recs {
		kinds[rec.ID] = append(kinds[rec.ID], rec.Kind)
	}
	return kinds
}

func drainServer(t *testing.T, s *server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.rn.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestQueuedRunsHoldNoGoroutines pins the cost model: with the journal
// on, 500 runs queued behind one blocker cost a constant number of
// goroutines, not a journal watcher and a metrics folder each.
func TestQueuedRunsHoldNoGoroutines(t *testing.T) {
	s, err := newServer(serverConfig{
		MaxConcurrent: 1,
		JournalPath:   filepath.Join(t.TempDir(), "runs.journal"),
		JournalSync:   journal.SyncNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.rn.Close() // the blocker never finishes on its own
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.close(ctx)
	}()
	blocker := submitInProcess(t, s, `{"program": "doall I = 1..1099511627776 { work 50 }", "options": {"procs": 2}}`)
	run, _ := s.rn.Get(blocker)
	<-run.Started()
	before := runtime.NumGoroutine()
	const queued = 500
	for i := 0; i < queued; i++ {
		submitInProcess(t, s, `{"program": "doall I = 1..8 { work 5 }", "options": {"procs": 2}}`)
	}
	if st := s.rn.Stats(); st.QueueDepth != queued {
		t.Fatalf("queue depth = %d, want %d", st.QueueDepth, queued)
	}
	if grew := runtime.NumGoroutine() - before; grew > 8 {
		t.Errorf("%d queued runs grew the process by %d goroutines; want a small constant", queued, grew)
	}
}

// TestJournalExactlyThreeRecordsPerRun pins the start-record race shut:
// a sub-millisecond run on the virtual engine journals exactly submit,
// start, terminal — in that order — on every one of 200 repetitions.
func TestJournalExactlyThreeRecordsPerRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	s, _ := newTestServer(t, serverConfig{JournalPath: path, JournalSync: journal.SyncNone})
	const reps = 200
	ids := make([]string, reps)
	for i := range ids {
		ids[i] = submitInProcess(t, s, `{"program": "doall I = 1..4 { work 1 }", "options": {"procs": 2}}`)
	}
	drainServer(t, s)
	kinds := journalKinds(t, path)
	want := []journal.Kind{kindSubmit, kindStart, kindTerminal}
	for _, id := range ids {
		if got := kinds[id]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("run %s journaled kinds %v, want %v", id, got, want)
		}
	}
}

// TestJournalChainedRunRecords: a CheckpointEvery run journals submit,
// start, one snapshot per parked restore point, terminal — and nothing
// else. The snapshots are restore points of a live run: once the chain is
// done neither its terminal record nor its status carries one.
func TestJournalChainedRunRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	s, ts := newTestServer(t, serverConfig{JournalPath: path, JournalSync: journal.SyncNone})
	id := submitInProcess(t, s,
		`{"program": "doall I = 1..64 { work 20 }", "options": {"procs": 2, "scheme": "ss", "checkpoint_every": 8}}`)
	drainServer(t, s)
	run, _ := s.rn.Get(id)
	n := int(run.Snapshots())
	if n == 0 {
		t.Fatal("chain parked no snapshots")
	}
	want := []journal.Kind{kindSubmit, kindStart}
	for i := 0; i < n; i++ {
		want = append(want, kindSnapshot)
	}
	want = append(want, kindTerminal)
	if got := journalKinds(t, path)[id]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("chained run journaled kinds %v, want %v (Snapshots() = %d)", got, want, n)
	}
	recs, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var term, status map[string]any
	if err := json.Unmarshal(recs[len(recs)-1].Data, &term); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/v1/runs/"+id, &status)
	for name, got := range map[string]map[string]any{"terminal record": term, "status": status} {
		if _, ok := got["checkpoint"]; ok || got["state"] != "done" {
			t.Errorf("%s of a done chain = %v, want state done and no checkpoint", name, got)
		}
	}
}

// TestParentJournalReplays boots on a journal the parent commit's daemon
// wrote before a kill -9 (testdata/parent_pr12.journal: run-0001 done,
// run-0002 in flight with two chain snapshots, run-0003 still queued)
// and pins what the replay makes of it: the same runs the parent would
// re-queue, resumed from the same snapshot, with the old bytes left
// untouched and no submit record written twice.
func TestParentJournalReplays(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "parent_pr12.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "runs.journal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	before := journalKinds(t, path)
	s, _ := newTestServer(t, serverConfig{MaxConcurrent: 1, JournalPath: path})
	if _, ok := s.rn.Get("run-0001"); ok {
		t.Error("finished run-0001 was re-queued")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for id, iterations := range map[string]int64{"run-0002": 300000, "run-0003": 64} {
		run, ok := s.rn.Get(id)
		if !ok {
			t.Fatalf("%s was not replayed", id)
		}
		res, err := run.Wait(ctx)
		if err != nil {
			t.Fatalf("replayed %s: %v", id, err)
		}
		if res.Stats.Iterations != iterations {
			t.Errorf("replayed %s finished with %d iterations, want %d", id, res.Stats.Iterations, iterations)
		}
	}
	if id := submitInProcess(t, s, `{"program": "doall I = 1..4 { work 5 }"}`); id != "run-0004" {
		t.Errorf("fresh ID after replay = %q, want run-0004", id)
	}
	drainServer(t, s)

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, golden) {
		t.Fatal("replay rewrote the journal it booted on")
	}
	kinds := journalKinds(t, path)
	// run-0002 resumed from its second snapshot: it keeps its one submit
	// and first start, adds the restart's start, the remaining chain
	// snapshots and the terminal. run-0003 never started before the kill.
	for _, id := range []string{"run-0002", "run-0003"} {
		added := kinds[id][len(before[id]):]
		if len(added) < 2 || added[0] != kindStart || added[len(added)-1] != kindTerminal {
			t.Errorf("%s: replay appended kinds %v, want start … terminal", id, added)
		}
		for _, k := range added {
			if k == kindSubmit {
				t.Errorf("%s: replay journaled its submit record again (%v)", id, added)
			}
		}
	}
	if run, _ := s.rn.Get("run-0002"); run != nil {
		if got, want := len(kinds["run-0002"])-len(before["run-0002"]), int(run.Snapshots())+2; got != want {
			t.Errorf("run-0002: replay appended %d records, want start + %d snapshots + terminal", got, run.Snapshots())
		}
	}
}

// TestProxiedProgressDoesNotStallAnInterval: with a sample interval of
// seconds, a short run streamed through a node that does not own it ends
// in a small fraction of the interval — the proxy re-polls on a short
// escalating delay instead of sleeping a whole interval after a first
// look that caught the run still live.
func TestProxiedProgressDoesNotStallAnInterval(t *testing.T) {
	const interval = 2 * time.Second
	tc := startClusterSampling(t, 2, t.TempDir(), nil, 0, interval)
	for i := 0; i < 20; i++ {
		resp, payload := postJSON(t, tc.url(1)+"/v1/runs",
			`{"program": "doall I = 1..64 { work 10 }", "options": {"procs": 4}}`)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit: %d %v", resp.StatusCode, payload)
		}
		id, _ := payload["id"].(string)
		via := 1 // stream through whichever node does not own the run
		if strings.HasPrefix(id, "n2-") {
			via = 0
		}
		began := time.Now()
		sresp, err := http.Get(tc.url(via) + "/v1/runs/" + id + "/progress")
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(sresp.Body)
		sresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(began); took > interval/4 {
			t.Fatalf("op %d: proxied stream took %v with a %v sample interval", i, took, interval)
		}
		if !strings.Contains(body.String(), `"done"`) {
			t.Fatalf("op %d: stream ended without a terminal snapshot: %s", i, body.String())
		}
	}
}

// TestFailoverRacesSnapshotUpdate runs noteSnapshot and failover on one
// placement at once: both touch p.node and p.ckpt, and everything
// failover reads of them must be read under c.mu (run under -race).
func TestFailoverRacesSnapshotUpdate(t *testing.T) {
	hs := httptest.NewServer(http.NotFoundHandler())
	defer hs.Close()
	peers, err := cluster.ParsePeers("n1=" + hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, serverConfig{
		Cluster: clusterOptions{Node: "n1", Peers: peers, Secret: testClusterSecret, ProbeInterval: time.Hour},
	})
	c := s.cluster
	// Two real restore points of the placed program, so that whichever one
	// failover picks up restores cleanly.
	const program = "doall I = 1..64 { work 5 }"
	nest, err := lang.Parse(program)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := repro.Compile(nest)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [2]*repro.Checkpoint
	for i := range snaps {
		_, err := prog.Run(repro.Options{Procs: 2, Scheme: "ss", CheckpointAfter: int64(2 + i)})
		var cke *repro.CheckpointedError
		if !errors.As(err, &cke) {
			t.Fatalf("capturing restore point %d: %v", i, err)
		}
		snaps[i] = cke.Checkpoint
	}
	for i := 0; i < 20; i++ {
		p := &placement{
			id:   fmt.Sprintf("n9-run-feedface-%04d", i),
			node: "n9",
			sub:  journalSubmit{Program: program, Options: runOptions{Options: repro.Options{Procs: 2, Scheme: "ss"}}},
		}
		c.adopt(p)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c.noteSnapshot(p, snaps[j%2])
			}
		}()
		c.failover(p)
		wg.Wait()
	}
	drainServer(t, s)
}
