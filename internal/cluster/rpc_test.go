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

// A 503-answering peer is reachable: the call fails with a typed
// status error, and the response comes back with its headers.
func TestClient503IsAnAnswer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(LoadHeader, "7")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := fastClient(t, ClientConfig{Attempts: 2})
	resp, err := c.Do(context.Background(), testPeer(ts), http.MethodGet, "/readyz", nil, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("want StatusError 503, got %v", err)
	}
	if resp == nil || resp.Header.Get(LoadHeader) != "7" {
		t.Fatalf("503 response (with headers) not returned: %+v", resp)
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
			Attempts: 1, // one attempt per call: outcomes map 1:1 to decisions
			Faults:   NewNetInjector(77).WithRate(NetDrop, 0.3, 0),
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

// A probe is one attempt: silence is nil, and any answer — a 503 too —
// comes back after a single request.
func TestClientProbeIsOneAttempt(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := fastClient(t, ClientConfig{Attempts: 3})
	dead := Peer{Name: "peer", URL: "http://127.0.0.1:1"}
	for i := 0; i < 2; i++ {
		if resp := c.Probe(context.Background(), dead); resp != nil {
			t.Fatalf("probe of a closed port answered %+v", resp)
		}
	}
	// The peer is back (same name, live address): one probe, one attempt
	// even on a 503.
	resp := c.Probe(context.Background(), testPeer(ts))
	if resp == nil || resp.Status != http.StatusServiceUnavailable || calls.Load() != 1 {
		t.Fatalf("probe of a live peer: %+v after %d request(s), want the 503 after one", resp, calls.Load())
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
