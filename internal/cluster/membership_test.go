package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

const (
	testSecret = "membership-test-secret"
	// testInterval is fake time, so it costs nothing to make it long —
	// long enough that a probe's deadline, which the client takes from
	// the real clock, cannot expire inside a test. It puts the first
	// re-probe of the backoff one fake second after a miss.
	testInterval = 64 * time.Second
)

// fakeWorld is the deterministic world the membership tests run in: the
// clock the Memberships read and the network they probe through, in one
// value so that it can tell when every probe goroutine is parked — on a
// timer or in a peer that hangs — and only then let time move.
type fakeWorld struct {
	t *testing.T

	mu       sync.Mutex
	cond     *sync.Cond
	now      time.Time
	seq      int
	timers   map[*fakeTimer]struct{}
	watchers int // probe goroutines of the started memberships
	hung     int // of them, blocked inside a hanging node
	nodes    map[string]*fakeNode
	stuck    bool // settle's real-time guard fired
}

type fakeTimer struct {
	when time.Time
	seq  int
	ch   chan time.Time
}

type nodeMode int

const (
	nodeDown     nodeMode = iota // refuses connections
	nodeUp                       // 200
	nodeDraining                 // 503 + draining header
	nodeUnready                  // 503, not draining
	nodeHang                     // swallows the request until its context ends
)

// fakeNode is one address on the fake network.
type fakeNode struct {
	name string
	mode nodeMode
	load int
	// probes counts the requests that reached for this node, by sender.
	probes map[string]int
	// mem, when set, is the Membership living at this address: requests
	// the node answers are offered to it as hellos (see pump).
	mem   *Membership
	reg   *obs.Registry
	inbox []*http.Request
	died  []time.Time // fake times of mem's OnDead calls
}

func newFakeWorld(t *testing.T, names ...string) *fakeWorld {
	w := &fakeWorld{
		t:      t,
		now:    time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		timers: map[*fakeTimer]struct{}{},
		nodes:  map[string]*fakeNode{},
	}
	w.cond = sync.NewCond(&w.mu)
	for _, name := range names {
		w.nodes[name] = &fakeNode{name: name, probes: map[string]int{}}
	}
	return w
}

func (w *fakeWorld) peers() []Peer {
	var ps []Peer
	for name := range w.nodes {
		ps = append(ps, Peer{Name: name, URL: "http://" + name})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}

func (w *fakeWorld) Now() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.now
}

func (w *fakeWorld) NewTimer(d time.Duration) (<-chan time.Time, func() bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	ft := &fakeTimer{when: w.now.Add(d), seq: w.seq, ch: make(chan time.Time, 1)}
	if d <= 0 {
		ft.ch <- w.now
		return ft.ch, func() bool { return false }
	}
	w.timers[ft] = struct{}{}
	w.cond.Broadcast()
	return ft.ch, func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		_, armed := w.timers[ft]
		delete(w.timers, ft)
		w.cond.Broadcast()
		return armed
	}
}

// RoundTrip is the fake network.
func (w *fakeWorld) RoundTrip(req *http.Request) (*http.Response, error) {
	w.mu.Lock()
	n := w.nodes[req.URL.Host]
	n.probes[req.Header.Get(NodeHeader)]++
	w.cond.Broadcast()
	switch n.mode {
	case nodeDown:
		w.mu.Unlock()
		return nil, errors.New("fake: connection refused")
	case nodeHang:
		w.hung++
		w.cond.Broadcast()
		w.mu.Unlock()
		<-req.Context().Done()
		w.mu.Lock()
		w.hung--
		w.mu.Unlock()
		return nil, req.Context().Err()
	}
	defer w.mu.Unlock()
	n.inbox = append(n.inbox, req)
	resp := &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{LoadHeader: {fmt.Sprint(n.load)}},
		Body:       io.NopCloser(strings.NewReader("ready\n")),
		Request:    req,
	}
	switch n.mode {
	case nodeDraining:
		resp.StatusCode = http.StatusServiceUnavailable
		resp.Header.Set(DrainingHeader, "1")
	case nodeUnready:
		resp.StatusCode = http.StatusServiceUnavailable
	}
	return resp, nil
}

// join puts a Membership for name on the network and returns it
// unstarted. Its client's deadline reads the real clock, so it is set
// out of any test's reach.
func (w *fakeWorld) join(name string) *Membership {
	w.t.Helper()
	n := w.nodes[name]
	n.reg = obs.NewRegistry()
	m, err := NewMembership(MembershipConfig{
		Self:  name,
		Peers: w.peers(),
		Client: NewClient(ClientConfig{
			Node: name, Secret: testSecret, Transport: w,
			Timeout: time.Hour,
		}),
		Interval: testInterval,
		OnDead: func(Peer) {
			at := w.Now()
			w.mu.Lock()
			n.died = append(n.died, at)
			w.mu.Unlock()
		},
		LocalLoad: func() int { return n.load },
		Metrics:   n.reg,
		Now:       w.Now,
		NewTimer:  w.NewTimer,
	})
	if err != nil {
		w.t.Fatalf("NewMembership(%s): %v", name, err)
	}
	n.mem = m
	return m
}

// boot is a node coming up: its listener first, then its probes; the
// world then runs until nothing is left to happen at this instant.
func (w *fakeWorld) boot(name string) *Membership {
	w.t.Helper()
	m := w.nodes[name].mem
	if m == nil {
		m = w.join(name)
	}
	w.mu.Lock()
	w.nodes[name].mode = nodeUp
	w.watchers += len(m.rows)
	w.mu.Unlock()
	m.Start()
	w.t.Cleanup(func() { w.shut(m) })
	w.pump()
	return m
}

func (w *fakeWorld) shut(m *Membership) {
	m.mu.Lock()
	running := m.cancel != nil
	m.mu.Unlock()
	if !running {
		return
	}
	m.Close()
	w.mu.Lock()
	w.watchers -= len(m.rows)
	w.mu.Unlock()
}

func (w *fakeWorld) set(name string, mode nodeMode) {
	w.mu.Lock()
	w.nodes[name].mode = mode
	w.mu.Unlock()
}

// settle blocks until every probe goroutine is parked.
func (w *fakeWorld) settle() {
	w.t.Helper()
	guard := time.AfterFunc(30*time.Second, func() {
		w.mu.Lock()
		w.stuck = true
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	defer guard.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.timers)+w.hung != w.watchers {
		if w.stuck {
			w.t.Fatalf("fake world never settled: %d timers + %d hung of %d probe goroutines",
				len(w.timers), w.hung, w.watchers)
		}
		w.cond.Wait()
	}
}

// hello offers req to to's Membership the way the daemon's ServeHTTP
// would and, when it asks for a probe, waits for that probe to have
// left. Called only on a settled world, so the probe that leaves is the
// one this hello asked for.
func (w *fakeWorld) hello(to string, req *http.Request) bool {
	w.t.Helper()
	from := req.Header.Get(NodeHeader)
	w.mu.Lock()
	n := w.nodes[to]
	sender := w.nodes[from]
	before := 0
	if sender != nil {
		before = sender.probes[to]
	}
	w.mu.Unlock()
	if !n.mem.Hello(req) {
		return false
	}
	w.mu.Lock()
	for sender.probes[to] == before {
		w.cond.Wait()
	}
	w.mu.Unlock()
	w.settle()
	return true
}

// helloFrom builds the request a call from node `from` would arrive as.
func helloFrom(from, secret string) *http.Request {
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	if secret != "" {
		req.Header.Set(AuthHeader, secret)
	}
	req.Header.Set(NodeHeader, from)
	return req
}

// pump runs the world until nothing more happens without time moving:
// everything parked and every answered request offered as a hello, in
// (receiver, sender) order so that the outcome does not depend on which
// goroutine ran first.
func (w *fakeWorld) pump() {
	w.t.Helper()
	for {
		w.settle()
		type delivery struct {
			to  string
			req *http.Request
		}
		var ds []delivery
		w.mu.Lock()
		for _, n := range w.nodes {
			if n.mem != nil {
				for _, req := range n.inbox {
					ds = append(ds, delivery{n.name, req})
				}
			}
			n.inbox = nil
		}
		w.mu.Unlock()
		if len(ds) == 0 {
			return
		}
		sort.SliceStable(ds, func(i, j int) bool {
			if ds[i].to != ds[j].to {
				return ds[i].to < ds[j].to
			}
			return ds[i].req.Header.Get(NodeHeader) < ds[j].req.Header.Get(NodeHeader)
		})
		for _, d := range ds {
			w.hello(d.to, d.req)
		}
	}
}

// advance moves fake time forward by d, firing the timers that come due
// one at a time, each only once the world has settled after the last.
func (w *fakeWorld) advance(d time.Duration) {
	w.t.Helper()
	w.mu.Lock()
	target := w.now.Add(d)
	w.mu.Unlock()
	for {
		w.pump()
		w.mu.Lock()
		var next *fakeTimer
		for ft := range w.timers {
			if ft.when.After(target) {
				continue
			}
			if next == nil || ft.when.Before(next.when) || (ft.when.Equal(next.when) && ft.seq < next.seq) {
				next = ft
			}
		}
		if next == nil {
			w.now = target
			w.mu.Unlock()
			return
		}
		w.now = next.when
		delete(w.timers, next)
		next.ch <- w.now
		w.mu.Unlock()
	}
}

// sent is how many requests from has sent to.
func (w *fakeWorld) sent(from, to string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nodes[to].probes[from]
}

func (w *fakeWorld) traffic() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := 0
	for _, n := range w.nodes {
		for _, c := range n.probes {
			total += c
		}
	}
	return total
}

func (w *fakeWorld) deaths(name string) []time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]time.Time(nil), w.nodes[name].died...)
}

// countedSilent is how many counted probes of name's Membership met
// silence — the only events that may demote a peer.
func (w *fakeWorld) countedSilent(name string) int64 {
	return w.nodes[name].reg.CounterVec("loopschedd_cluster_probes_counted_total", "", "outcome").Values()["silent"]
}

func mustRow(t *testing.T, m *Membership, name string) NodeInfo {
	t.Helper()
	row, ok := m.Node(name)
	if !ok {
		t.Fatalf("%s has no row for %s", m.Self().Name, name)
	}
	return row
}

// TestMembershipScenarios drives the membership contract on the fake
// clock and network: no sleeps, no sockets, every outcome exact.
func TestMembershipScenarios(t *testing.T) {
	const I = testInterval
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"cold start converges one round trip after the last listener", func(t *testing.T) {
			w := newFakeWorld(t, "n1", "n2", "n3")
			ms := map[string]*Membership{}
			ms["n1"] = w.boot("n1")
			if row := mustRow(t, ms["n1"], "n2"); row.State != NodeUnconfirmed || row.Placeable() {
				t.Fatalf("n2 before it ever answered: %+v, want unconfirmed and not placeable", row)
			}
			w.advance(2500 * time.Millisecond)
			ms["n2"] = w.boot("n2")
			w.advance(2500 * time.Millisecond)
			before := w.traffic()
			ms["n3"] = w.boot("n3")
			// No time has passed since n3's listener came up.
			for name, m := range ms {
				for _, row := range m.Nodes() {
					if !row.Placeable() {
						t.Errorf("%s sees %s as %+v right after the last boot, want placeable", name, row.Peer.Name, row)
					}
				}
				if n := w.countedSilent(name); n != 0 {
					t.Errorf("%s counted %d silent probe(s) during a rolling start, want 0", name, n)
				}
			}
			// n3 probed two peers, and each probed it back once.
			if got := w.traffic() - before; got != 4 {
				t.Errorf("the last boot cost %d round trips, want 4", got)
			}
			if total := w.traffic(); total > 16 {
				t.Errorf("rolling start cost %d round trips in all, want a handful", total)
			}
		}},
		{"silence kills after DeadAfter intervals, no sooner, once", func(t *testing.T) {
			w := newFakeWorld(t, "n1", "n2")
			w.set("n2", nodeUp)
			m := w.boot("n1")
			if row := mustRow(t, m, "n2"); row.State != NodeAlive {
				t.Fatalf("n2 after its first answer: %+v", row)
			}
			lastAnswer := w.Now()
			w.set("n2", nodeDown)
			// Just short of three intervals of silence, filled with
			// everything that is not a counted miss: the re-probe backoff
			// (every probe of it touches the network) and hellos from the
			// zombie.
			for w.Now().Before(lastAnswer.Add(3*I - time.Second)) {
				w.advance(time.Second)
				if w.Now().Sub(lastAnswer) > I {
					w.hello("n1", helloFrom("n2", testSecret))
				}
				if row := mustRow(t, m, "n2"); row.State == NodeDead {
					t.Fatalf("n2 declared dead after %v of silence (< %v)", w.Now().Sub(lastAnswer), 3*I)
				}
			}
			if sent := w.sent("n1", "n2"); sent < 100 {
				t.Fatalf("only %d probes in the window: the hellos and the backoff did not probe", sent)
			}
			if row := mustRow(t, m, "n2"); row.State != NodeSuspect || row.Failures != 2 {
				t.Fatalf("n2 just short of three intervals: %+v, want suspect with 2 counted misses", row)
			}
			if n := len(w.deaths("n1")); n != 0 {
				t.Fatalf("OnDead fired %d time(s) before DeadAfter intervals of silence", n)
			}
			w.advance(time.Second)
			died := w.deaths("n1")
			if len(died) != 1 || !died[0].Equal(lastAnswer.Add(3*I)) {
				t.Fatalf("OnDead at %v, want exactly once at last answer + %v", died, 3*I)
			}
			w.advance(5 * I)
			if n := len(w.deaths("n1")); n != 1 {
				t.Fatalf("OnDead fired %d times for one death", n)
			}
			if got := w.countedSilent("n1"); got != 3+5 {
				t.Errorf("%d counted misses, want one per interval of silence (8)", got)
			}
		}},
		{"silent peer is re-probed on a capped doubling backoff, uncounted", func(t *testing.T) {
			w := newFakeWorld(t, "n1", "n2")
			m := w.boot("n1")
			began := w.Now()
			// Probes leave at 0, then 1, 2, 4 … seconds after each miss,
			// until the gap would pass the counted probe's slot.
			for _, step := range []struct {
				at    time.Duration
				sent  int
				state NodeState
			}{
				{500 * time.Millisecond, 1, NodeUnconfirmed},
				{1 * time.Second, 2, NodeUnconfirmed},
				{3 * time.Second, 3, NodeUnconfirmed},
				{7 * time.Second, 4, NodeUnconfirmed},
				{63 * time.Second, 7, NodeUnconfirmed},
				{I, 8, NodeSuspect}, // the first counted probe
				{2*I - time.Second, 8, NodeSuspect},
				{2 * I, 9, NodeSuspect},
			} {
				w.advance(began.Add(step.at).Sub(w.Now()))
				if got, row := w.sent("n1", "n2"), mustRow(t, m, "n2"); got != step.sent || row.State != step.state {
					t.Fatalf("%v after boot: %d probe(s) sent, n2 %v; want %d, %v", step.at, got, row.State, step.sent, step.state)
				}
			}
			if got := w.countedSilent("n1"); got != 2 {
				t.Fatalf("%d counted misses in two intervals of silence, want 2", got)
			}
			// A listener that comes up between ticks is found by the backoff.
			w2 := newFakeWorld(t, "n1", "n2")
			m = w2.boot("n1")
			w2.advance(2500 * time.Millisecond)
			w2.set("n2", nodeUp)
			w2.advance(500 * time.Millisecond)
			if row := mustRow(t, m, "n2"); !row.Placeable() || w2.countedSilent("n1") != 0 {
				t.Fatalf("n2 half a second after coming up, with no hello: %+v", row)
			}
		}},
		{"hello from a suspect peer makes it alive at once", func(t *testing.T) {
			w := newFakeWorld(t, "n1", "n2")
			w.set("n2", nodeUp)
			m := w.boot("n1")
			w.set("n2", nodeDown)
			w.advance(I + I/2)
			if row := mustRow(t, m, "n2"); row.State != NodeSuspect {
				t.Fatalf("n2 after one counted miss: %+v, want suspect", row)
			}
			w.set("n2", nodeUp)
			at, sent := w.Now(), w.sent("n1", "n2")
			if !w.hello("n1", helloFrom("n2", testSecret)) {
				t.Fatal("an authenticated hello from a suspect peer asked for no probe")
			}
			if row := mustRow(t, m, "n2"); !row.Placeable() || !w.Now().Equal(at) || w.sent("n1", "n2") != sent+1 {
				t.Fatalf("after the hello: %+v at +%v after %d probe(s); want placeable at once after one", row, w.Now().Sub(at), w.sent("n1", "n2")-sent)
			}
			// Confirmed peers' hellos are not news.
			if w.hello("n1", helloFrom("n2", testSecret)) {
				t.Error("a hello from an alive, ready peer asked for a probe")
			}
		}},
		{"forged hello triggers nothing", func(t *testing.T) {
			w := newFakeWorld(t, "n1", "n2")
			m := w.boot("n1")
			sent := w.sent("n1", "n2")
			for _, req := range []*http.Request{
				helloFrom("n2", "wrong-secret"),
				helloFrom("n2", ""),
				helloFrom("n9", testSecret), // right secret, no such peer
			} {
				if w.hello("n1", req) {
					t.Errorf("hello %v asked for a probe", req.Header)
				}
			}
			w.settle()
			if got := w.sent("n1", "n2"); got != sent {
				t.Errorf("%d probe(s) left after forged hellos", got-sent)
			}
			if row := mustRow(t, m, "n2"); row.State != NodeUnconfirmed {
				t.Errorf("n2 after forged hellos: %+v", row)
			}
		}},
		{"503 is alive, not ready, never counted", func(t *testing.T) {
			w := newFakeWorld(t, "n1", "n2")
			w.set("n2", nodeDraining)
			m := w.boot("n1")
			w.advance(10 * I)
			row := mustRow(t, m, "n2")
			if row.State != NodeAlive || row.Ready || !row.Draining || row.Placeable() || row.Failures != 0 {
				t.Fatalf("draining peer: %+v, want alive, draining, not placeable, no misses", row)
			}
			if n := w.countedSilent("n1"); n != 0 || len(w.deaths("n1")) != 0 {
				t.Fatalf("draining peer cost %d counted miss(es), %d death(s)", n, len(w.deaths("n1")))
			}
		}},
		{"restarted peer is alive one round trip after its hello", func(t *testing.T) {
			w := newFakeWorld(t, "n1", "n2")
			w.set("n2", nodeUp)
			m := w.boot("n1")
			w.set("n2", nodeDown)
			w.advance(4 * I)
			if row := mustRow(t, m, "n2"); row.State != NodeDead {
				t.Fatalf("n2 after four intervals of silence: %+v, want dead", row)
			}
			w.set("n2", nodeUp)
			at := w.Now()
			w.hello("n1", helloFrom("n2", testSecret))
			row := mustRow(t, m, "n2")
			if !row.Placeable() || !w.Now().Equal(at) {
				t.Fatalf("restarted peer after its hello: %+v at +%v, want placeable at once", row, w.Now().Sub(at))
			}
			// The data path is open again with the row.
			if _, err := m.cfg.Client.Do(context.Background(), row.Peer, http.MethodGet, "/readyz", nil, nil); err != nil {
				t.Fatalf("data call after the revival: %v", err)
			}
		}},
		{"hung peer does not delay another's death", func(t *testing.T) {
			w := newFakeWorld(t, "n1", "n2", "n3")
			w.set("n2", nodeHang)
			w.set("n3", nodeUp)
			m := w.boot("n1")
			lastAnswer := w.Now()
			w.set("n3", nodeDown)
			w.advance(4 * I)
			died := w.deaths("n1")
			if len(died) != 1 || died[0].After(lastAnswer.Add(3*I+I)) {
				t.Fatalf("n3's death reported at %v with n2 hanging, want once by last answer + %v", died, 4*I)
			}
			if row := mustRow(t, m, "n2"); row.State != NodeUnconfirmed {
				t.Errorf("hung peer: %+v", row)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// Close must not wait out a probe to a black-holed peer: it cancels the
// probe and returns once the probe goroutines have gone.
func TestMembershipCloseCancelsProbeInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	w := newFakeWorld(t, "n1", "n2", "n3")
	w.set("n2", nodeHang)
	w.set("n3", nodeHang)
	m := w.boot("n1")
	began := time.Now()
	w.shut(m)
	if took := time.Since(began); took > 5*time.Second {
		t.Fatalf("Close took %v with probes in flight to hung peers", took)
	}
	w.mu.Lock()
	hung := w.hung
	w.mu.Unlock()
	if hung != 0 {
		t.Fatalf("%d probe(s) still in flight after Close", hung)
	}
	// A probe goroutine that has returned may still be on its way out;
	// give the stragglers a deadline, not a count of yields.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after Close, %d before Start", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	if row := mustRow(t, m, "n2"); row.State != NodeUnconfirmed || row.Failures != 0 {
		t.Errorf("a probe cut short by Close was folded as a miss: %+v", row)
	}
}

func TestMembershipTracksLoadAndReadiness(t *testing.T) {
	w := newFakeWorld(t, "n1", "n2")
	w.set("n2", nodeUp)
	w.nodes["n2"].load = 5
	m := w.boot("n1")
	row := mustRow(t, m, "n2")
	if row.State != NodeAlive || !row.Ready || row.Load != 5 || row.SinceAnswerMS != 0 {
		t.Fatalf("n2 row after a healthy probe: %+v", row)
	}
	if !row.Placeable() {
		t.Fatal("healthy peer not placeable")
	}
	w.advance(testInterval / 2)
	if want := (testInterval / 2).Milliseconds(); mustRow(t, m, "n2").SinceAnswerMS != want {
		t.Errorf("since_answer_ms = %d half an interval after the answer, want %d", mustRow(t, m, "n2").SinceAnswerMS, want)
	}
}

// A draining peer answers 503: alive (no failover) but not placeable.
func TestMembershipDrainingIsAliveNotPlaceable(t *testing.T) {
	w := newFakeWorld(t, "n1", "n2")
	w.set("n2", nodeDraining)
	m := w.boot("n1")
	w.advance(5 * testInterval)
	row := mustRow(t, m, "n2")
	if row.State != NodeAlive || !row.Draining || row.Placeable() {
		t.Fatalf("draining peer row: %+v; want alive, draining, not placeable", row)
	}
	if len(w.deaths("n1")) != 0 {
		t.Fatal("draining peer triggered OnDead")
	}
}

// Silence demotes alive → suspect → dead, OnDead fires exactly once on
// the transition, and a revived peer is promoted straight back.
func TestMembershipDeathAndRevival(t *testing.T) {
	w := newFakeWorld(t, "n1", "n2")
	w.set("n2", nodeUp)
	m := w.boot("n1")
	w.set("n2", nodeDown) // kill -9
	w.advance(testInterval)
	if row := mustRow(t, m, "n2"); row.State != NodeSuspect {
		t.Fatalf("after 1 counted miss: %v, want suspect", row.State)
	}
	w.advance(2 * testInterval)
	if row := mustRow(t, m, "n2"); row.State != NodeDead {
		t.Fatalf("after 3 counted misses: %v, want dead", row.State)
	}
	if n := len(w.deaths("n1")); n != 1 {
		t.Fatalf("OnDead fired %d times, want 1", n)
	}
	w.advance(testInterval) // still dead: no second callback
	if n := len(w.deaths("n1")); n != 1 {
		t.Fatalf("OnDead re-fired for an already-dead peer")
	}
	w.set("n2", nodeUp)
	w.advance(testInterval)
	if row := mustRow(t, m, "n2"); row.State != NodeAlive || !row.Placeable() {
		t.Fatalf("revived peer row: %+v", row)
	}
	moves := w.nodes["n1"].reg.CounterVec("loopschedd_cluster_transitions_total", "", "to").Values()
	if moves["alive"] != 2 || moves["suspect"] != 1 || moves["dead"] != 1 {
		t.Errorf("transition counters %v, want alive 2, suspect 1, dead 1", moves)
	}
}

// LeastLoaded keeps a run on the placer unless a placeable peer is
// strictly lighter, and then picks the lightest such peer, the lower
// name among ties.
func TestMembershipLeastLoaded(t *testing.T) {
	w := newFakeWorld(t, "n1", "n2", "n3")
	w.set("n2", nodeUp)
	w.set("n3", nodeUp)
	w.nodes["n2"].load = 2
	w.nodes["n3"].load = 9
	w.nodes["n1"].load = 4
	m := w.join("n1")
	// Before any peer has answered, only self is placeable.
	if best, ok := m.LeastLoaded(); !ok || best.Peer.Name != "n1" {
		t.Fatalf("LeastLoaded before the first answer = %+v ok=%v, want self", best, ok)
	}
	w.boot("n1")
	best, ok := m.LeastLoaded()
	if !ok || best.Peer.Name != "n2" {
		t.Fatalf("LeastLoaded = %+v ok=%v, want n2", best, ok)
	}
	w.nodes["n1"].load = 1
	if best, _ = m.LeastLoaded(); best.Peer.Name != "n1" {
		t.Fatalf("LeastLoaded = %s, want self once lightest", best.Peer.Name)
	}
	// A tie stays on self: n1 at 2 vs n2 at 2.
	w.nodes["n1"].load = 2
	if best, _ = m.LeastLoaded(); best.Peer.Name != "n1" {
		t.Fatalf("tie at load 2 broke to %s, want n1", best.Peer.Name)
	}

	// Each row boots placer on a fresh world where every peer is up
	// unless modes says otherwise, runs then, and asks LeastLoaded.
	for _, row := range []struct {
		name   string
		placer string
		loads  map[string]int
		modes  map[string]nodeMode
		then   func(w *fakeWorld, m *Membership)
		want   string
	}{
		{name: "tie with a lower name stays on self", placer: "n2",
			want: "n2"},
		{name: "a strictly lighter peer", placer: "n1",
			loads: map[string]int{"n1": 3, "n2": 2, "n3": 1}, want: "n3"},
		{name: "two peers tied below self: the lower name", placer: "n3",
			loads: map[string]int{"n1": 1, "n2": 1, "n3": 2}, want: "n1"},
		{name: "a draining peer is never picked", placer: "n1",
			loads: map[string]int{"n1": 5, "n3": 5},
			modes: map[string]nodeMode{"n2": nodeDraining}, want: "n1"},
		{name: "a not-ready peer is never picked", placer: "n1",
			loads: map[string]int{"n1": 5, "n3": 5},
			modes: map[string]nodeMode{"n2": nodeUnready}, want: "n1"},
		{name: "a suspect peer is never picked", placer: "n1",
			loads: map[string]int{"n1": 5, "n3": 5},
			then: func(w *fakeWorld, m *Membership) {
				w.set("n2", nodeDown)
				w.advance(testInterval)
				if row := mustRow(w.t, m, "n2"); row.State != NodeSuspect || row.Load != 0 {
					w.t.Fatalf("n2 row after one counted miss: %+v, want suspect at load 0", row)
				}
			}, want: "n1"},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := newFakeWorld(t, "n1", "n2", "n3")
			for name, n := range w.nodes {
				n.load = row.loads[name]
				if name != row.placer {
					w.set(name, nodeUp)
				}
			}
			for name, mode := range row.modes {
				w.set(name, mode)
			}
			m := w.boot(row.placer)
			for name := range row.modes {
				if got := mustRow(t, m, name); got.State != NodeAlive {
					t.Fatalf("%s row: %+v, want alive (answering, but not placeable)", name, got)
				}
			}
			if row.then != nil {
				row.then(w, m)
			}
			if best, ok := m.LeastLoaded(); !ok || best.Peer.Name != row.want {
				t.Fatalf("LeastLoaded on %s = %+v ok=%v, want %s (rows %+v)",
					row.placer, best, ok, row.want, m.Nodes())
			}
		})
	}
}

// On the real clock and a real socket: the loop probes at Start and the
// series show up in the registry's exposition.
func TestMembershipProbeLoop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(LoadHeader, "3")
		w.Write([]byte("ready\n"))
	}))
	defer ts.Close()
	reg := obs.NewRegistry()
	m, err := NewMembership(MembershipConfig{
		Self:     "n1",
		Peers:    []Peer{{Name: "n1", URL: "http://self"}, {Name: "n2", URL: ts.URL}},
		Client:   NewClient(ClientConfig{Timeout: 200 * time.Millisecond}),
		Interval: 10 * time.Millisecond,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if row, _ := m.Node("n2"); row.Load == 3 && row.Placeable() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe loop never observed the peer")
		}
		time.Sleep(time.Millisecond)
	}
	var sb strings.Builder
	reg.WriteProm(&sb)
	for _, want := range []string{
		`loopschedd_cluster_peer_state{peer="n2"} 1`,
		`loopschedd_cluster_probes_uncounted_total{outcome="ok"} `,
		`loopschedd_cluster_transitions_total{to="alive"} 1`,
		"loopschedd_cluster_converged_seconds ",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, sb.String())
		}
	}
	if strings.Contains(sb.String(), "loopschedd_cluster_converged_seconds 0\n") {
		t.Error("converged_seconds still 0 with every peer alive")
	}
}

func TestMembershipValidation(t *testing.T) {
	c := NewClient(ClientConfig{})
	if _, err := NewMembership(MembershipConfig{Self: "nx", Peers: []Peer{{Name: "n1", URL: "u"}}, Client: c}); err == nil {
		t.Fatal("self outside peer list accepted")
	}
	if _, err := NewMembership(MembershipConfig{Self: "n1", Peers: []Peer{{Name: "n1", URL: "u"}}}); err == nil {
		t.Fatal("nil client accepted")
	}
}
