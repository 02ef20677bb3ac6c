package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/lang"
)

// testClusterSecret is the shared intra-cluster credential every test
// node carries.
const testClusterSecret = "test-cluster-secret"

// testCluster is N in-process loopschedd nodes serving one API: each
// node is a full server behind an httptest listener, with the peer set
// wired through real HTTP — the same transport production uses, so
// killing a listener is a faithful node death.
type testCluster struct {
	t          *testing.T
	names      []string
	srvs       []*server
	https      []*httptest.Server
	handlers   []*atomic.Pointer[server]
	intercepts []*atomic.Value // per node: testIntercept wrapping the server
}

// testIntercept lets a test sit between the wire and one node's server
// — e.g. to lose a response after the server processed the request.
type testIntercept func(w http.ResponseWriter, r *http.Request, next http.Handler)

// intercept installs f in front of node i (nil restores pass-through).
func (tc *testCluster) intercept(i int, f testIntercept) {
	tc.intercepts[i].Store(f)
}

// startCluster boots n nodes named n1..nN. Each node journals into
// dir; faults (may be nil) seeds the shared network-fault injector.
func startCluster(t *testing.T, n int, dir string, faults *cluster.NetInjector, every int64) *testCluster {
	t.Helper()
	return startClusterSampling(t, n, dir, faults, every, 5*time.Millisecond)
}

// startClusterSampling is startCluster with a chosen -sample interval.
func startClusterSampling(t *testing.T, n int, dir string, faults *cluster.NetInjector, every int64, sample time.Duration) *testCluster {
	t.Helper()
	return startClusterProbing(t, n, dir, faults, every, sample, 25*time.Millisecond)
}

// startClusterProbing is startClusterSampling with a chosen
// -probe-interval.
func startClusterProbing(t *testing.T, n int, dir string, faults *cluster.NetInjector, every int64, sample, probe time.Duration) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	// Listeners first (URLs must exist before the servers do), each
	// delegating to whatever server is currently installed — which also
	// lets a "rebooted" node swap a fresh server in behind its address.
	var peerSpecs []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i+1)
		tc.names = append(tc.names, name)
		ptr := &atomic.Pointer[server]{}
		tc.handlers = append(tc.handlers, ptr)
		icept := &atomic.Value{}
		icept.Store(testIntercept(nil))
		tc.intercepts = append(tc.intercepts, icept)
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s := ptr.Load()
			if s == nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			if f, _ := icept.Load().(testIntercept); f != nil {
				f(w, r, s)
				return
			}
			s.ServeHTTP(w, r)
		}))
		tc.https = append(tc.https, hs)
		peerSpecs = append(peerSpecs, name+"="+hs.URL)
	}
	peers, err := cluster.ParsePeers(strings.Join(peerSpecs, ","))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s, err := newServer(serverConfig{
			MaxConcurrent:  2,
			SampleInterval: sample,
			JournalPath:    filepath.Join(dir, tc.names[i]+".journal"),
			Cluster: clusterOptions{
				Node:            tc.names[i],
				Peers:           peers,
				Secret:          testClusterSecret,
				ProbeInterval:   probe,
				RPCTimeout:      2 * time.Second,
				DeadAfter:       3,
				CheckpointEvery: every,
				Faults:          faults,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.srvs = append(tc.srvs, s)
		tc.handlers[i].Store(s)
	}
	// Nothing is placed on a peer before it has answered a probe, so a
	// test that expects remote placement waits for the fact first.
	awaitPlaceable(t, tc.srvs, time.Now().Add(30*time.Second))
	t.Cleanup(func() {
		// Servers first: each close stops that node's prober before any
		// listener drops, so teardown never masquerades as node death.
		for i := range tc.srvs {
			if tc.https[i] == nil {
				continue // kill stopped it
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			tc.srvs[i].close(ctx)
			cancel()
		}
		for _, hs := range tc.https {
			if hs != nil {
				hs.Close()
			}
		}
	})
	return tc
}

func (tc *testCluster) url(i int) string { return tc.https[i].URL }

// awaitPlaceable blocks until each of srvs holds every one of them
// placeable, and fails the test if that has not happened by deadline.
func awaitPlaceable(t *testing.T, srvs []*server, deadline time.Time) {
	t.Helper()
	for _, s := range srvs {
		for placeableNodes(s) != len(srvs) {
			if time.Now().After(deadline) {
				t.Fatalf("%s holds %d of %d nodes placeable: %+v",
					s.cluster.self.Name, placeableNodes(s), len(srvs), s.cluster.mem.Nodes())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func placeableNodes(s *server) int {
	n := 0
	for _, row := range s.cluster.mem.Nodes() {
		if row.Placeable() {
			n++
		}
	}
	return n
}

// kill is node death: the listener drops with every in-flight
// connection, so peers see transport failures, not clean errors, and
// the node stops as a killed process does — its prober, its tracker
// and its runs, with no drain window. A node left running behind a
// closed listener would keep burning the CPU its peers answer probes
// on, and a starved answer reads as silence.
func (tc *testCluster) kill(i int) {
	tc.https[i].CloseClientConnections()
	tc.https[i].Close()
	tc.https[i] = nil
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tc.srvs[i].close(ctx)
}

// pollStatus fetches one run's status via node i until cond says stop.
func (tc *testCluster) pollStatus(i int, id string, timeout time.Duration, cond func(map[string]any) bool) map[string]any {
	tc.t.Helper()
	deadline := time.After(timeout)
	for {
		var st map[string]any
		resp, err := http.Get(tc.url(i) + "/v1/runs/" + id)
		if err == nil {
			err = jsonDecode(resp, &st)
		}
		if err == nil && cond(st) {
			return st
		}
		select {
		case <-deadline:
			tc.t.Fatalf("run %s: condition not reached in %v (last status %v, err %v)", id, timeout, st, err)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// awaitJournaledSnapshot blocks until node i's journal holds a restore
// point for run id — for a placer, the moment a failover of the run
// stops meaning a restart from scratch.
func (tc *testCluster) awaitJournaledSnapshot(i int, id string) {
	tc.t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		recs, _ := journal.ReadFile(tc.srvs[i].cfg.JournalPath)
		for _, rec := range recs {
			if rec.Kind == kindSnapshot && rec.ID == id {
				return
			}
		}
		select {
		case <-deadline:
			tc.t.Fatalf("node %s never journaled a snapshot of run %s", tc.names[i], id)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// ballast makes node i strictly busier than its idle peers: it submits
// an endless run there, which stays local — a node keeps a run unless a
// peer is strictly lighter — so the node's next submission is forwarded
// to its lightest peer, the lower name among ties. It first waits until
// every peer is placeable again: a false suspicion while the test was
// busy elsewhere (a reference run starves the probes) would keep the
// forward home. The returned release cancels the ballast and waits until
// it has left the node's load: until it is terminal — cancelled, or
// checkpointed when the cancel lands on a periodic snapshot's pause.
func (tc *testCluster) ballast(i int) (release func()) {
	tc.t.Helper()
	awaitPlaceable(tc.t, tc.srvs, time.Now().Add(30*time.Second))
	resp, payload := postJSON(tc.t, tc.url(i)+"/v1/runs",
		`{"program": "doall I = 1..1099511627776 { work 50 }", "options": {"procs": 1}}`)
	id, _ := payload["id"].(string)
	if resp.StatusCode != http.StatusCreated || !strings.HasPrefix(id, tc.names[i]+"-") {
		tc.t.Fatalf("ballast via %s: status %d, payload %v; want a run it keeps", tc.names[i], resp.StatusCode, payload)
	}
	return func() {
		tc.t.Helper()
		cresp, err := http.Post(tc.url(i)+"/v1/runs/"+id+"/cancel", "application/json", nil)
		if err != nil {
			tc.t.Fatal(err)
		}
		cresp.Body.Close()
		tc.pollStatus(i, id, 30*time.Second, func(st map[string]any) bool {
			state, _ := st["state"].(string)
			return terminalState(state)
		})
	}
}

func jsonDecode(resp *http.Response, into *map[string]any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// referenceStats runs the program uninterrupted on a local engine —
// the totals a clustered run must land on bit-exactly.
func referenceStats(t *testing.T, program string, opts repro.Options) *repro.Result {
	t.Helper()
	nest, err := lang.Parse(program)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := repro.Compile(nest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterPlacementAndProxy: any node accepts a submit, a busier
// placer forwards it to its lightest peer, and every other node can
// answer polls, progress streams and cancels for the run by ID.
func TestClusterPlacementAndProxy(t *testing.T) {
	tc := startCluster(t, 3, t.TempDir(), nil, 0)

	// With ballast on n2, n1 and n3 tie below it and the tie breaks by
	// name: a submit via n2 lands on n1, and the response carries n1's
	// run ID. The later submits, ballast gone, stay on n2.
	release := tc.ballast(1)
	resp, payload := postJSON(t, tc.url(1)+"/v1/runs",
		`{"program": "doall I = 1..400 { work 20 }", "options": {"procs": 4, "scheme": "gss"}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit via n2: status %d, payload %v", resp.StatusCode, payload)
	}
	id, _ := payload["id"].(string)
	if !strings.HasPrefix(id, "n1-") {
		t.Fatalf("run placed as %q, want an n1-prefixed ID (least-loaded tie breaks by name)", id)
	}
	release()

	// Every node answers a poll for it: the owner directly, the placer
	// from its placement table, the third node by ID prefix.
	for i := range tc.srvs {
		tc.pollStatus(i, id, 30*time.Second, func(st map[string]any) bool {
			return st["state"] == "done"
		})
	}

	// The result proxies intact.
	st := tc.pollStatus(2, id, 10*time.Second, func(st map[string]any) bool {
		return st["result"] != nil
	})
	res := st["result"].(map[string]any)
	stats := res["stats"].(map[string]any)
	if got := stats["Iterations"].(float64); got != 400 {
		t.Errorf("proxied result reports %v iterations, want 400", got)
	}

	// Progress streams proxy too: a fresh run watched through n3.
	_, payload = postJSON(t, tc.url(1)+"/v1/runs",
		`{"program": "doall I = 1..400 { work 20 }", "options": {"procs": 4}}`)
	id2, _ := payload["id"].(string)
	if id2 == "" {
		t.Fatal("second submit returned no ID")
	}
	sresp, err := http.Get(tc.url(2) + "/v1/runs/" + id2 + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sc := bufio.NewScanner(sresp.Body)
	lines := 0
	last := ""
	for sc.Scan() {
		lines++
		last = sc.Text()
	}
	if lines == 0 || !strings.Contains(last, `"done"`) {
		t.Errorf("proxied progress stream: %d lines, last %q (want a terminal snapshot)", lines, last)
	}

	// Cancel proxies: a long run cancelled through a non-owner.
	_, payload = postJSON(t, tc.url(1)+"/v1/runs",
		`{"program": "doall I = 1..2000000 { work 50 }", "options": {"procs": 4, "scheme": "ss"}}`)
	id3, _ := payload["id"].(string)
	creq, _ := http.NewRequest(http.MethodPost, tc.url(2)+"/v1/runs/"+id3+"/cancel", nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("proxied cancel: status %d", cresp.StatusCode)
	}
	tc.pollStatus(2, id3, 30*time.Second, func(st map[string]any) bool {
		return st["state"] == "cancelled"
	})

	// The cluster endpoint sees all three nodes alive.
	var info struct {
		Self  string `json:"self"`
		Nodes []struct {
			State string `json:"state"`
		} `json:"nodes"`
	}
	getJSON(t, tc.url(1)+"/v1/cluster", &info)
	if info.Self != "n2" || len(info.Nodes) != 3 {
		t.Fatalf("cluster info = %+v", info)
	}
	for _, n := range info.Nodes {
		if n.State != "alive" {
			t.Errorf("node state %q, want alive", n.State)
		}
	}

	// Finished placements leave the placer's table (it would otherwise
	// grow without bound, each entry holding a full submission), so the
	// count drains to zero once every placed run is terminal.
	deadline := time.After(30 * time.Second)
	for {
		var pinfo struct {
			Placements int `json:"placements"`
		}
		getJSON(t, tc.url(1)+"/v1/cluster", &pinfo)
		if pinfo.Placements == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("placer still tracks %d placement(s) after all runs finished", pinfo.Placements)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestClusterProxiedProgressSkipsMissedPolls: while the owner's status
// GETs fail for a window mid-stream, a progress stream proxied through
// another node re-polls without writing anything, so every line the
// client reads is a real snapshot of the run.
func TestClusterProxiedProgressSkipsMissedPolls(t *testing.T) {
	tc := startCluster(t, 2, t.TempDir(), nil, 0)

	// Submitted on n1 with both nodes idle, the run stays on n1 and is
	// not a placement: only the proxied stream polls its status.
	_, payload := postJSON(t, tc.url(0)+"/v1/runs",
		`{"program": "doall I = 1..1099511627776 { work 1 }", "options": {"procs": 2}}`)
	id, _ := payload["id"].(string)
	if !strings.HasPrefix(id, "n1-") {
		t.Fatalf("run ID %q, want one owned by n1", id)
	}
	var failing atomic.Int64 // status GETs of the run still to fail
	tc.intercept(0, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
		if r.Method == http.MethodGet && r.URL.Path == "/v1/runs/"+id && failing.Add(-1) >= 0 {
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
			return
		}
		next.ServeHTTP(w, r)
	})

	resp, err := http.Get(tc.url(1) + "/v1/runs/" + id + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines, last := 0, ""
	for sc.Scan() {
		lines++
		var p struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil || p.ID != id || p.State == "" {
			t.Fatalf("line %d of the proxied stream is not a snapshot of %s: %s", lines, id, sc.Text())
		}
		last = p.State
		switch lines {
		case 1:
			failing.Store(3) // the next three re-polls miss
		case 2:
			// Past the window: end the run so the stream ends.
			cresp, err := http.Post(tc.url(0)+"/v1/runs/"+id+"/cancel", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			cresp.Body.Close()
		}
	}
	if failing.Load() >= 0 {
		t.Fatalf("the owner failed only %d of 3 status polls", 3-failing.Load())
	}
	if lines < 3 || last != "cancelled" {
		t.Fatalf("stream ended after %d line(s) in state %q, want a terminal cancelled snapshot", lines, last)
	}
}

// TestClusterDefaultChainSkipsUncheckpointable: a node's -checkpoint-every
// default chains only the runs that can take snapshots. A doacross program
// and a static-scheme one cannot, so they run unchained to done; with the
// default applied to them, each failed at its first leg as not
// checkpointable.
func TestClusterDefaultChainSkipsUncheckpointable(t *testing.T) {
	tc := startCluster(t, 2, t.TempDir(), nil, 20)
	for name, body := range map[string]string{
		"doacross":     `{"program": "doacross(1) W = 1..400 { await; work 1; post }", "options": {"procs": 2}}`,
		"static-block": `{"program": "doall I = 1..400 { work 1 }", "options": {"procs": 2, "scheme": "static-block"}}`,
	} {
		resp, payload := postJSON(t, tc.url(0)+"/v1/runs", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: submit: %d %v", name, resp.StatusCode, payload)
		}
		id, _ := payload["id"].(string)
		st := tc.pollStatus(0, id, 30*time.Second, func(st map[string]any) bool {
			s, _ := st["state"].(string)
			return s == "done" || s == "failed" || s == "cancelled"
		})
		if st["state"] != "done" {
			t.Errorf("%s: run ended %v (%v), want done", name, st["state"], st["error"])
		}
	}
}

// TestClusterFailoverRestore is the chaos gate: under seeded network
// faults, a run placed on a node that dies mid-run is restored on a
// survivor from its last journaled snapshot — same run ID, and final
// totals bit-identical to an uninterrupted local run.
func TestClusterFailoverRestore(t *testing.T) {
	// Seeded injector: reruns see identical drop/delay sequences.
	faults := cluster.NewNetInjector(0xC10C).
		WithRate(cluster.NetDrop, 0.02, 0).
		WithRate(cluster.NetDelay, 0.05, 2*time.Millisecond)
	tc := startCluster(t, 3, t.TempDir(), faults, 25000)

	const program = "doall I = 1..1000000 { work 50 }"
	ref := referenceStats(t, program, repro.Options{Procs: 4, Scheme: "ss"})

	// Submitted via a ballasted n2, placed on n1 (the lower name of the
	// two lighter peers).
	release := tc.ballast(1)
	resp, payload := postJSON(t, tc.url(1)+"/v1/runs",
		fmt.Sprintf(`{"program": %q, "options": {"procs": 4, "scheme": "ss"}}`, program))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d, payload %v", resp.StatusCode, payload)
	}
	id, _ := payload["id"].(string)
	if !strings.HasPrefix(id, "n1-") {
		t.Fatalf("run placed as %q, want n1-prefixed", id)
	}
	release()

	// Wait until the owner has parked at least one periodic snapshot and
	// the placer's tracker has journaled it: the restore point is then in
	// n2's placement table and journal.
	tc.pollStatus(1, id, 30*time.Second, func(st map[string]any) bool {
		return st["checkpoint"] != nil && st["state"] == "running"
	})
	tc.awaitJournaledSnapshot(1, id)

	// kill -9 the owner.
	tc.kill(0)

	// The placer declares n1 dead within DeadAfter probes and restores
	// the run — same ID — on a survivor, which finishes it.
	st := tc.pollStatus(1, id, 60*time.Second, func(st map[string]any) bool {
		return st["state"] == "done"
	})
	res, _ := st["result"].(map[string]any)
	if res == nil {
		t.Fatalf("failed-over run finished without a result: %v", st)
	}
	stats := res["stats"].(map[string]any)
	for field, want := range map[string]int64{
		"Iterations": ref.Stats.Iterations,
		"Chunks":     ref.Stats.Chunks,
		"Instances":  ref.Stats.Instances,
		"Exits":      ref.Stats.Exits,
	} {
		if got := int64(stats[field].(float64)); got != want {
			t.Errorf("failed-over run %s = %d, uninterrupted reference %d", field, got, want)
		}
	}

	// No survivor is lighter than the placer, so the run was restored
	// on n2 itself — and from there on each restore point it parked is
	// in n2's journal exactly once: as many snapshot records after the
	// re-placement as the restored run counts, and no record twice.
	if restored, ok := tc.srvs[1].rn.Get(id); ok {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := tc.srvs[1].rn.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := journal.ReadFile(tc.srvs[1].cfg.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		var sinceRestore, twice int64
		seen := map[string]bool{}
		for _, rec := range recs {
			if rec.ID != id {
				continue
			}
			switch rec.Kind {
			case kindSubmit:
				sinceRestore = 0 // the local restore's submit record
			case kindSnapshot:
				sinceRestore++
				if seen[string(rec.Data)] {
					twice++
				}
				seen[string(rec.Data)] = true
			}
		}
		if twice > 0 || sinceRestore != restored.Snapshots() {
			t.Errorf("%d snapshot records since the restore (%d of them repeats), the restored run parked %d",
				sinceRestore, twice, restored.Snapshots())
		}
	} else {
		t.Errorf("run %s was not restored on the placer", id)
	}

	// The survivors still serve: a fresh submit through n3 places and
	// completes without the dead node.
	resp, payload = postJSON(t, tc.url(2)+"/v1/runs",
		`{"program": "doall I = 1..400 { work 20 }", "options": {"procs": 4}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-failover submit: status %d, payload %v", resp.StatusCode, payload)
	}
	id2, _ := payload["id"].(string)
	if strings.HasPrefix(id2, "n1-") {
		t.Fatalf("post-failover run placed on the dead node: %q", id2)
	}
	tc.pollStatus(2, id2, 30*time.Second, func(st map[string]any) bool {
		return st["state"] == "done"
	})

	// And n2's membership records the death.
	var info struct {
		Nodes []struct {
			Peer  struct{ Name string } `json:"peer"`
			State string                `json:"state"`
		} `json:"nodes"`
	}
	getJSON(t, tc.url(1)+"/v1/cluster", &info)
	for _, n := range info.Nodes {
		if n.Peer.Name == "n1" && n.State != "dead" {
			t.Errorf("n1 state %q after kill, want dead", n.State)
		}
	}
}

// TestClusterCancelAfterFailover: once a run has failed over, its ID
// prefix names a dead node — a cancel routed through a third node
// (which never placed the run, so the prefix is its only route) must
// scatter to the new owner rather than 404 on the stale prefix.
func TestClusterCancelAfterFailover(t *testing.T) {
	tc := startCluster(t, 3, t.TempDir(), nil, 25000)

	// An endless run placed on n1 via a ballasted n2; wait for a parked
	// snapshot so the failover has a restore point.
	release := tc.ballast(1)
	resp, payload := postJSON(t, tc.url(1)+"/v1/runs",
		`{"program": "doall I = 1..1099511627776 { work 50 }", "options": {"procs": 4, "scheme": "ss"}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %v", resp.StatusCode, payload)
	}
	id, _ := payload["id"].(string)
	if !strings.HasPrefix(id, "n1-") {
		t.Fatalf("run placed as %q, want n1-prefixed", id)
	}
	release()
	tc.pollStatus(1, id, 30*time.Second, func(st map[string]any) bool {
		return st["checkpoint"] != nil && st["state"] == "running"
	})
	tc.awaitJournaledSnapshot(1, id)
	tc.kill(0)

	// The run comes back running on a survivor under the same ID (the
	// dead window answers 404, which pollStatus rides out).
	tc.pollStatus(1, id, 60*time.Second, func(st map[string]any) bool {
		return st["state"] == "running"
	})

	// Cancel through n3: its route resolves to dead n1, so the POST
	// must scatter across the survivors to reach the run.
	creq, _ := http.NewRequest(http.MethodPost, tc.url(2)+"/v1/runs/"+id+"/cancel", nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel after failover via n3: status %d, want 202", cresp.StatusCode)
	}
	tc.pollStatus(2, id, 30*time.Second, func(st map[string]any) bool {
		return st["state"] == "cancelled"
	})
}

// TestClusterFailoverForwardIsConfirmed: a failover re-placement whose
// every answer is lost after the survivor created the run must not also
// restore the run on the placer. The re-placement is the same forward a
// submission takes: an ambiguous outcome is settled by asking the
// survivor, so exactly one node executes the ID.
func TestClusterFailoverForwardIsConfirmed(t *testing.T) {
	// The failover must find n3 placeable the moment n1 is declared dead,
	// while n2 burns a core on its ballast: a probe interval with room
	// for a starved answer keeps a false suspicion of n3 out of the way.
	tc := startClusterProbing(t, 3, t.TempDir(), nil, 25000, 5*time.Millisecond, 100*time.Millisecond)

	const program = "doall I = 1..400000 { work 50 }"
	ref := referenceStats(t, program, repro.Options{Procs: 4, Scheme: "ss"})

	// Placed on n1 via a ballasted n2; wait for a journaled restore point.
	release := tc.ballast(1)
	resp, payload := postJSON(t, tc.url(1)+"/v1/runs",
		fmt.Sprintf(`{"program": %q, "options": {"procs": 4, "scheme": "ss"}}`, program))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d, payload %v", resp.StatusCode, payload)
	}
	id, _ := payload["id"].(string)
	if !strings.HasPrefix(id, "n1-") {
		t.Fatalf("run placed as %q, want n1-prefixed", id)
	}
	release()
	tc.pollStatus(1, id, 30*time.Second, func(st map[string]any) bool {
		return st["checkpoint"] != nil && st["state"] == "running"
	})
	tc.awaitJournaledSnapshot(1, id)

	// Ballast n2 again, so that when n1 dies survivor n3 is strictly
	// lighter than the placer and takes the run. n3 creates the run on
	// the first re-placement attempt, and every attempt loses its answer
	// with the connection.
	release = tc.ballast(1)
	var landed, aborted atomic.Int32
	tc.intercept(2, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
			next.ServeHTTP(w, r)
			return
		}
		if landed.Add(1) == 1 {
			next.ServeHTTP(httptest.NewRecorder(), r)
		}
		aborted.Add(1)
		panic(http.ErrAbortHandler)
	})
	tc.kill(0)

	// The failover journals where the run went, then the run is held by
	// exactly one survivor.
	deadline := time.After(30 * time.Second)
	for moved := false; !moved; {
		recs, _ := journal.ReadFile(tc.srvs[1].cfg.JournalPath)
		for _, rec := range recs {
			var pl journalPlace
			if rec.Kind == kindPlace && rec.ID == id && json.Unmarshal(rec.Data, &pl) == nil && pl.Node != "n1" {
				moved = true
			}
		}
		select {
		case <-deadline:
			t.Fatalf("the placer never re-placed run %s", id)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if aborted.Load() == 0 {
		t.Fatal("the intercept never fired: the failover did not forward to n3")
	}
	var holders []string
	for i := 1; i < 3; i++ {
		if _, ok := tc.srvs[i].rn.Get(id); ok {
			holders = append(holders, tc.names[i])
		}
	}
	if len(holders) != 1 {
		t.Fatalf("run %s held by %v after a failover whose answers were lost, want exactly one node", id, holders)
	}
	release()

	st := tc.pollStatus(1, id, 60*time.Second, func(st map[string]any) bool {
		return st["state"] == "done"
	})
	stats := st["result"].(map[string]any)["stats"].(map[string]any)
	for field, want := range map[string]int64{
		"Iterations": ref.Stats.Iterations,
		"Chunks":     ref.Stats.Chunks,
		"Instances":  ref.Stats.Instances,
		"Exits":      ref.Stats.Exits,
	} {
		if got := int64(stats[field].(float64)); got != want {
			t.Errorf("failed-over run %s = %d, uninterrupted reference %d", field, got, want)
		}
	}
}

// TestClusterDisabledSingleNode pins the off switch: without cluster
// options the daemon ignores internal headers, rejects caller-chosen
// IDs, serves /v1/cluster as 404, and assigns unprefixed IDs — the
// pre-cluster wire surface exactly.
func TestClusterDisabledSingleNode(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs",
		strings.NewReader(`{"id": "evil-run-0001", "program": "doall I = 1..10 { work 5 }", "options": {}}`))
	req.Header.Set(tenantHeader, "spoofed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("single-node daemon honored an internal submit: status %d", resp.StatusCode)
	}

	resp, payload := postJSON(t, ts.URL+"/v1/runs", `{"program": "doall I = 1..10 { work 5 }", "options": {}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %v", resp.StatusCode, payload)
	}
	if id, _ := payload["id"].(string); !strings.HasPrefix(id, "run-") {
		t.Errorf("single-node ID %q, want the unprefixed run-NNNN form", id)
	}

	cresp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/cluster on a single node: status %d, want 404", cresp.StatusCode)
	}
}

// TestHealthzJSON pins the /healthz body: a component map for
// operators on top of the bare status-code liveness contract (200
// serving, 503 when journal appends are failing).
func TestHealthzJSON(t *testing.T) {
	var health struct {
		OK         bool `json:"ok"`
		Components map[string]struct {
			OK     bool   `json:"ok"`
			Detail string `json:"detail"`
		} `json:"components"`
	}

	// Single node, no journal: everything healthy, optional subsystems
	// report "disabled".
	s, ts := newTestServer(t, serverConfig{JournalPath: filepath.Join(t.TempDir(), "j")})
	resp := getJSON(t, ts.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK || !health.OK {
		t.Fatalf("healthz = %d, body %+v", resp.StatusCode, health)
	}
	for _, comp := range []string{"scheduler", "journal", "watchdog", "cluster"} {
		if _, ok := health.Components[comp]; !ok {
			t.Errorf("healthz body missing component %q", comp)
		}
	}
	if d := health.Components["cluster"].Detail; d != "disabled" {
		t.Errorf("single-node cluster detail %q, want disabled", d)
	}
	if !health.Components["journal"].OK {
		t.Errorf("healthy journal reported not ok")
	}

	// A failing journal is the one condition that fails liveness: new
	// submissions would not survive a crash.
	s.jerr.Store(&journalErr{err: errors.New("disk full")})
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable || health.OK {
		t.Fatalf("failing journal: healthz = %d, ok=%v", hresp.StatusCode, health.OK)
	}
	if jc := health.Components["journal"]; jc.OK || !strings.Contains(jc.Detail, "disk full") {
		t.Errorf("journal component = %+v, want the append error surfaced", jc)
	}

	// Clustered: the cluster component counts live nodes.
	tc := startCluster(t, 3, t.TempDir(), nil, 0)
	getJSON(t, tc.url(0)+"/healthz", &health)
	if d := health.Components["cluster"].Detail; d != "3/3 node(s) up" {
		t.Errorf("cluster detail %q, want \"3/3 node(s) up\"", d)
	}

	// Three nodes, one peer answering and one that never does: only
	// answering nodes are up. The silent peer stays unconfirmed or suspect
	// — the probe interval is far longer than the test — and is not up.
	answering := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	t.Cleanup(answering.Close)
	silent := httptest.NewServer(http.NotFoundHandler())
	silent.Close() // its address refuses every probe
	peers, err := cluster.ParsePeers("n1=http://127.0.0.1:1,n2=" + answering.URL + ",n3=" + silent.URL)
	if err != nil {
		t.Fatal(err)
	}
	s3, ts3 := newTestServer(t, serverConfig{Cluster: clusterOptions{
		Node: "n1", Peers: peers, Secret: testClusterSecret,
		ProbeInterval: time.Hour, RPCTimeout: 2 * time.Second, DeadAfter: 3,
	}})
	for deadline := time.Now().Add(30 * time.Second); placeableNodes(s3) != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("n2 never answered: %+v", s3.cluster.mem.Nodes())
		}
	}
	getJSON(t, ts3.URL+"/healthz", &health)
	if d := health.Components["cluster"].Detail; d != "2/3 node(s) up" {
		t.Errorf("cluster detail %q with one silent peer, want \"2/3 node(s) up\"", d)
	}
}

// TestClusterPlacerRebootResumesWatch: a placer that reboots re-adopts
// its journaled placements — the run keeps completing (and its terminal
// is recorded) even though the placer lost all in-memory state.
func TestClusterPlacerRebootResumesWatch(t *testing.T) {
	dir := t.TempDir()
	tc := startCluster(t, 2, dir, nil, 25000)

	// Ballast makes n2 the busier node, so a submit via n2 places
	// remotely, on n1.
	release := tc.ballast(1)
	resp, payload := postJSON(t, tc.url(1)+"/v1/runs",
		`{"program": "doall I = 1..600000 { work 50 }", "options": {"procs": 4, "scheme": "ss"}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %v", resp.StatusCode, payload)
	}
	id, _ := payload["id"].(string)
	if !strings.HasPrefix(id, "n1-") {
		t.Fatalf("run placed as %q, want n1-prefixed", id)
	}
	release()
	tc.pollStatus(1, id, 30*time.Second, func(st map[string]any) bool {
		return st["state"] == "running"
	})

	// Reboot the placer: tear down its server (drain cancels nothing —
	// the run lives on n1) and boot a fresh one from the same journal
	// behind the same URL.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	tc.srvs[1].close(ctx)
	cancel()
	reborn, err := newServer(serverConfig{
		MaxConcurrent:  2,
		SampleInterval: 5 * time.Millisecond,
		JournalPath:    filepath.Join(dir, "n2.journal"),
		Cluster:        tc.srvs[1].cfg.Cluster,
	})
	if err != nil {
		t.Fatalf("placer reboot: %v", err)
	}
	tc.srvs[1] = reborn
	tc.handlers[1].Store(reborn)

	// The reborn placer still proxies the run by its journaled
	// placement and sees it finish.
	tc.pollStatus(1, id, 60*time.Second, func(st map[string]any) bool {
		return st["state"] == "done"
	})
}

// TestClusterSpoofedInternalRejected pins the intra-cluster auth
// boundary: peers and clients share one listener, so the internal-call
// headers grant nothing without the cluster's shared secret — a client
// that knows the header names can neither mint run IDs nor impersonate
// a tenant.
func TestClusterSpoofedInternalRejected(t *testing.T) {
	tc := startCluster(t, 2, t.TempDir(), nil, 0)

	// A spoofed internal submit with a caller-chosen ID is treated as an
	// ordinary client request: IDs are server-assigned, 400.
	req, _ := http.NewRequest(http.MethodPost, tc.url(0)+"/v1/runs",
		strings.NewReader(`{"id": "n1-run-6666", "program": "doall I = 1..10 { work 5 }", "options": {}}`))
	req.Header.Set(tenantHeader, "spoofed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spoofed internal submit: status %d, want 400", resp.StatusCode)
	}

	// The tenant header is ignored without the secret and honored with it.
	treq, _ := http.NewRequest(http.MethodPost, "/v1/runs", nil)
	treq.Header.Set(tenantHeader, "spoofed")
	if tenant, _ := tc.srvs[0].resolveTenant(treq); tenant == "spoofed" {
		t.Fatal("tenant header honored without the cluster secret")
	}
	treq.Header.Set(cluster.AuthHeader, testClusterSecret)
	if tenant, err := tc.srvs[0].resolveTenant(treq); err != nil || tenant != "spoofed" {
		t.Fatalf("authenticated internal call resolved tenant %q (err %v), want the forwarded tenant", tenant, err)
	}
	treq.Header.Set(cluster.AuthHeader, "wrong-secret")
	if tenant, _ := tc.srvs[0].resolveTenant(treq); tenant == "spoofed" {
		t.Fatal("tenant header honored with a wrong cluster secret")
	}
}

// TestClusterSecretRequired: clustering refuses to start without the
// shared secret — a secretless cluster would leave the internal-call
// headers client-spoofable.
func TestClusterSecretRequired(t *testing.T) {
	peers, err := cluster.ParsePeers("n1=http://localhost:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(serverConfig{
		Cluster: clusterOptions{Node: "n1", Peers: peers},
	}); err == nil || !strings.Contains(err.Error(), "secret") {
		t.Fatalf("secretless cluster config accepted (err %v)", err)
	}
	// The flag path enforces it too, and threads the value through.
	if err := run([]string{"-node", "n1", "-peers", "n1=http://localhost:1"}, io.Discard); err == nil {
		t.Fatal("run accepted -peers without a secret")
	}
	cfg := serverConfig{Cluster: clusterOptions{Node: "n1", PeerList: "n1=http://localhost:1", Secret: "s3cr3t"}}
	if err := cfg.resolve(); err != nil || cfg.Cluster.Secret != "s3cr3t" {
		t.Fatalf("resolve with secret: opts %+v, err %v", cfg.Cluster, err)
	}
}

// TestClusterPlacementRetryIsIdempotent pins the forward-retry
// protocol: the placer mints the run ID and resends it on every
// attempt, so an attempt whose response is lost after the owner
// already created the run dedupes (409 → confirmed placed) instead of
// executing the program twice.
func TestClusterPlacementRetryIsIdempotent(t *testing.T) {
	tc := startCluster(t, 2, t.TempDir(), nil, 0)

	// Sabotage the owner: the first placement forward is processed, but
	// its response is replaced with a 500 — the "owner created the run,
	// placer saw a failure" window the retry must survive.
	var sabotaged atomic.Bool
	tc.intercept(0, func(w http.ResponseWriter, r *http.Request, next http.Handler) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" &&
			sabotaged.CompareAndSwap(false, true) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			http.Error(w, "injected: response lost", http.StatusInternalServerError)
			return
		}
		next.ServeHTTP(w, r)
	})

	// Ballast on n2 makes the submit via n2 a forward to n1.
	release := tc.ballast(1)
	resp, payload := postJSON(t, tc.url(1)+"/v1/runs",
		`{"program": "doall I = 1..400 { work 20 }", "options": {"procs": 4}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit through lossy forward: status %d, payload %v", resp.StatusCode, payload)
	}
	if !sabotaged.Load() {
		t.Fatal("the intercept never fired: the forward was not exercised")
	}
	id, _ := payload["id"].(string)
	if !strings.HasPrefix(id, "n1-") {
		t.Fatalf("run placed as %q, want n1-prefixed", id)
	}
	release()
	tc.pollStatus(0, id, 30*time.Second, func(st map[string]any) bool {
		return st["state"] == "done"
	})

	// Exactly one run exists on the owner: the retried forward deduped
	// instead of creating a second execution.
	var runs []map[string]any
	getJSON(t, tc.url(0)+"/v1/runs", &runs)
	if len(runs) != 1 {
		t.Fatalf("owner hosts %d runs after a retried forward, want 1 (%v)", len(runs), runs)
	}
}

// TestClusterColdStart boots three nodes one after another on real
// sockets with the default probe settings, the way three daemons start:
// listener, server, serve. While a peer's listener is down its probes
// are refused; every node must still hold all three placeable well
// inside one probe interval of the last listener coming up — membership
// converges on the hellos, not on the ticker — and must hold no peer
// placeable before that peer has answered.
func TestClusterColdStart(t *testing.T) {
	const interval = 500 * time.Millisecond // the -probe-interval default
	names := []string{"n1", "n2", "n3"}
	addrs := make([]string, len(names))
	specs := make([]string, len(names))
	for i, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		specs[i] = name + "=http://" + addrs[i]
		ln.Close() // the address is only reserved: nothing listens until the node boots
	}
	var srvs []*server
	var lastListener time.Time
	for i, name := range names {
		ln, err := net.Listen("tcp", addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		lastListener = time.Now()
		s, err := newServer(serverConfig{MaxConcurrent: 2, Cluster: clusterOptions{
			Node: name, PeerList: strings.Join(specs, ","), Secret: testClusterSecret,
		}})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: s}
		go hs.Serve(ln)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.close(ctx)
			hs.Close()
		})
		srvs = append(srvs, s)
		for _, row := range s.cluster.mem.Nodes() {
			if row.Placeable() && !row.Self && row.SinceAnswerMS < 0 {
				t.Fatalf("%s holds %s placeable before it ever answered: %+v", name, row.Peer.Name, row)
			}
		}
		// A daemon's launcher waits for /readyz before starting the next.
		resp, err := http.Get("http://" + addrs[i] + "/readyz")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /readyz: %v %v", name, resp, err)
		}
		resp.Body.Close()
	}
	awaitPlaceable(t, srvs, lastListener.Add(interval/2))
	// /v1/cluster says how each row is known, not only what it says.
	var info struct {
		Nodes []struct {
			Self  bool   `json:"self"`
			Since *int64 `json:"since_answer_ms"`
		} `json:"nodes"`
	}
	getJSON(t, "http://"+addrs[0]+"/v1/cluster", &info)
	for _, n := range info.Nodes {
		if !n.Self && (n.Since == nil || *n.Since < 0 || *n.Since > interval.Milliseconds()) {
			t.Errorf("/v1/cluster peer row: since_answer_ms %v; want an answer inside the last interval", n.Since)
		}
	}
	var sb strings.Builder
	srvs[0].reg.WriteProm(&sb)
	if !strings.Contains(sb.String(), `loopschedd_cluster_peer_state{peer="n3"} 1`) ||
		strings.Contains(sb.String(), `loopschedd_cluster_probes_counted_total{outcome="silent"}`) {
		t.Errorf("n1's /metrics after a rolling start should show n3 alive and no counted miss:\n%s", sb.String())
	}
}
