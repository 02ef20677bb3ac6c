package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func fastClient(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	if cfg.Timeout == 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 4 * time.Millisecond
	}
	return NewClient(cfg)
}

func testPeer(ts *httptest.Server) Peer { return Peer{Name: "peer", URL: ts.URL} }

// deadlineCheckingTransport records whether each outgoing request's
// context carries a deadline (HTTP does not propagate deadlines to the
// server, so the transport layer is where the contract is observable).
type deadlineCheckingTransport struct {
	saw chan bool
}

func (tr *deadlineCheckingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	_, ok := req.Context().Deadline()
	tr.saw <- ok
	return http.DefaultTransport.RoundTrip(req)
}

// Every attempt must carry a context deadline — the per-attempt
// timeout, not just whatever the caller supplied.
func TestClientSetsPerAttemptDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	tr := &deadlineCheckingTransport{saw: make(chan bool, 1)}
	c := fastClient(t, ClientConfig{Transport: tr})
	// Note: no deadline on the caller's context — the client must add one.
	if _, err := c.Do(context.Background(), testPeer(ts), http.MethodGet, "/", nil, nil); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !<-tr.saw {
		t.Fatal("request left the client without a context deadline")
	}
}

// A peer that hangs must cost at most the per-attempt timeout per
// attempt, not hang the caller.
func TestClientTimesOutHungPeer(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	c := fastClient(t, ClientConfig{Timeout: 30 * time.Millisecond, Attempts: 2})
	start := time.Now()
	_, err := c.Do(context.Background(), testPeer(ts), http.MethodGet, "/", nil, nil)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("hung-peer call took %v; per-attempt deadline not applied", el)
	}
}

// Transient 5xx responses are retried; the call succeeds once the peer
// recovers within the attempt budget.
func TestClientRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "wedged", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()
	c := fastClient(t, ClientConfig{Attempts: 3})
	var out struct {
		OK bool `json:"ok"`
	}
	if _, err := c.Do(context.Background(), testPeer(ts), http.MethodGet, "/", nil, &out); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !out.OK || calls.Load() != 3 {
		t.Fatalf("ok=%v calls=%d; want recovery on third attempt", out.OK, calls.Load())
	}
}

// 4xx means the request itself is wrong: exactly one attempt, and the
// response comes back alongside the typed error.
func TestClient4xxNoRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no such run", http.StatusNotFound)
	}))
	defer ts.Close()
	c := fastClient(t, ClientConfig{Attempts: 5})
	resp, err := c.Do(context.Background(), testPeer(ts), http.MethodGet, "/", nil, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("want StatusError 404, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried: %d calls", calls.Load())
	}
	if resp == nil || resp.Status != http.StatusNotFound {
		t.Fatalf("response not returned with 4xx error: %+v", resp)
	}
}

// Repeated transport failures open the peer's breaker; further calls
// shed with ErrPeerDown without touching the network, and the circuit
// recovers through a half-open probe once the peer is back.
func TestClientBreakerShedsAndRecovers(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	url := ts.URL
	ts.Close() // peer starts dead
	c := fastClient(t, ClientConfig{
		Timeout: 50 * time.Millisecond, Attempts: 3,
		BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond,
	})
	peer := Peer{Name: "dead", URL: url}
	if _, err := c.Do(context.Background(), peer, http.MethodGet, "/", nil, nil); err == nil {
		t.Fatal("call to dead peer succeeded")
	}
	if st := c.Breaker("dead").State(); st != BreakerOpen {
		t.Fatalf("breaker %v after 3 transport failures, want open", st)
	}
	if _, err := c.Do(context.Background(), peer, http.MethodGet, "/", nil, nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("open breaker returned %v, want ErrPeerDown", err)
	}
	// Revive the peer on the same address via a manual listener? Simpler:
	// new server, retarget the peer URL — the breaker is keyed by name.
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer ts2.Close()
	peer.URL = ts2.URL
	time.Sleep(25 * time.Millisecond) // cooldown expires
	if _, err := c.Do(context.Background(), peer, http.MethodGet, "/", nil, nil); err != nil {
		t.Fatalf("half-open probe against revived peer: %v", err)
	}
	if st := c.Breaker("dead").State(); st != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
}

// A 503-answering peer is reachable: the call fails with a typed
// status error, but the breaker must stay closed — tripping it would
// escalate "draining" into "dead".
func TestClient503DoesNotOpenBreaker(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(LoadHeader, "7")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := fastClient(t, ClientConfig{Attempts: 2, BreakerThreshold: 1})
	resp, err := c.Do(context.Background(), testPeer(ts), http.MethodGet, "/readyz", nil, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("want StatusError 503, got %v", err)
	}
	if resp == nil || resp.Header.Get(LoadHeader) != "7" {
		t.Fatalf("503 response (with headers) not returned: %+v", resp)
	}
	if st := c.Breaker("peer").State(); st != BreakerClosed {
		t.Fatalf("breaker %v after 503s, want closed", st)
	}
}

// Injected faults: NetError and NetDrop fail attempts, NetDelay stalls
// them; with p=1 on errors every attempt fails and the budget runs out.
func TestClientInjectedFaults(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c := fastClient(t, ClientConfig{
		Attempts: 3,
		Faults:   NewNetInjector(1).WithRate(NetError, 1, 0),
	})
	_, err := c.Do(context.Background(), testPeer(ts), http.MethodGet, "/", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("want injected fault error, got %v", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("injected errors still reached the server %d times", calls.Load())
	}

	// A pure delay injector perturbs timing but not outcome.
	cd := fastClient(t, ClientConfig{
		Attempts: 2,
		Faults:   NewNetInjector(1).WithRate(NetDelay, 1, 2*time.Millisecond),
	})
	if _, err := cd.Do(context.Background(), testPeer(ts), http.MethodGet, "/", nil, nil); err != nil {
		t.Fatalf("delayed call failed: %v", err)
	}
}

// The same seed must produce the same pass/fail outcome sequence across
// two identical clients — end-to-end determinism through the RPC path.
func TestClientFaultDeterminism(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	run := func() []bool {
		c := fastClient(t, ClientConfig{
			Attempts:         1,    // one attempt per call: outcomes map 1:1 to decisions
			BreakerThreshold: 1000, // keep the breaker out of the outcome sequence
			Faults:           NewNetInjector(77).WithRate(NetDrop, 0.3, 0),
		})
		var out []bool
		for i := 0; i < 100; i++ {
			_, err := c.Do(context.Background(), testPeer(ts), http.MethodGet, "/", nil, nil)
			out = append(out, err == nil)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged between identically-seeded clients", i)
		}
	}
}

// TestClientBackoffCancelDoesNotLeakProbe: when the context dies during
// the inter-attempt backoff, the retry loop's advisory breaker check
// must not consume a half-open probe slot — a leaked probe would pin
// the breaker half-open forever and permanently shed the peer.
func TestClientBackoffCancelDoesNotLeakProbe(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // dead peer: every attempt is a transport failure

	c := fastClient(t, ClientConfig{
		Timeout:          50 * time.Millisecond,
		Attempts:         3,
		Backoff:          200 * time.Millisecond,
		MaxBackoff:       200 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Nanosecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	// First attempt fails (breaker opens), then the context dies in the
	// 200ms backoff; the loop re-checks the breaker on the way out.
	if _, err := c.Do(ctx, testPeer(ts), http.MethodGet, "/readyz", nil, nil); err == nil {
		t.Fatal("Do against a dead peer succeeded")
	}
	// The cooldown (1ns) has long expired: the probe slot must still be
	// available to the next real call.
	if !c.Breaker(testPeer(ts).Name).Allow() {
		t.Fatal("half-open probe leaked: the breaker permanently sheds the peer")
	}
	c.Breaker(testPeer(ts).Name).Report(false)
}

// A probe is one attempt that an open breaker does not shed — it is how
// the circuit learns the peer is back — and whose answer closes it.
func TestClientProbeBypassesAndFeedsBreaker(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := fastClient(t, ClientConfig{Attempts: 3, BreakerThreshold: 2, BreakerCooldown: time.Hour})
	dead := Peer{Name: "peer", URL: "http://127.0.0.1:1"}
	for i := 0; i < 2; i++ {
		if resp := c.Probe(context.Background(), dead); resp != nil {
			t.Fatalf("probe of a closed port answered %+v", resp)
		}
	}
	if st := c.Breaker("peer").State(); st != BreakerOpen {
		t.Fatalf("breaker %v after two silent probes at threshold 2, want open", st)
	}
	if _, err := c.Do(context.Background(), testPeer(ts), http.MethodGet, "/", nil, nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("data call through an open breaker: %v, want ErrPeerDown", err)
	}
	// The peer is back (same name, live address): one probe, one attempt
	// even on a 503, and the data path is open at once.
	resp := c.Probe(context.Background(), testPeer(ts))
	if resp == nil || resp.Status != http.StatusServiceUnavailable || calls.Load() != 1 {
		t.Fatalf("probe through an open breaker: %+v after %d request(s), want the 503 after one", resp, calls.Load())
	}
	if st := c.Breaker("peer").State(); st != BreakerClosed {
		t.Fatalf("breaker %v after an answered probe, want closed", st)
	}
	// A probe its caller cancels says nothing about the peer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		c.Probe(ctx, dead)
	}
	if st := c.Breaker("peer").State(); st != BreakerClosed {
		t.Fatalf("breaker %v after cancelled probes, want closed", st)
	}
}

// Every call carries the sender's name and the shared secret, and Sender
// accepts exactly the calls that carry the secret.
func TestClientStampsAndAuthenticatesSender(t *testing.T) {
	c := fastClient(t, ClientConfig{Node: "n2", Secret: "s3cret"})
	seen := make(chan *http.Request, 2) // one probe, one data call
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Clone(context.Background())
	}))
	defer ts.Close()
	c.Probe(context.Background(), testPeer(ts))
	if _, err := c.DoHeader(context.Background(), testPeer(ts), http.MethodGet, "/x", http.Header{"X-Extra": {"1"}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		r := <-seen
		if node, ok := c.Sender(r); !ok || node != "n2" {
			t.Errorf("Sender(%s) = %q, %v; want n2, true", r.URL.Path, node, ok)
		}
	}
	forged := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	forged.Header.Set(NodeHeader, "n2")
	if _, ok := c.Sender(forged); ok {
		t.Error("a request without the secret authenticated")
	}
	forged.Header.Set(AuthHeader, "guess")
	if _, ok := c.Sender(forged); ok {
		t.Error("a request with a wrong secret authenticated")
	}
	forged.Header.Set(AuthHeader, "")
	if _, ok := NewClient(ClientConfig{}).Sender(forged); ok {
		t.Error("a client without a secret authenticated an empty credential")
	}
}
