package cluster

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"
)

// Wire headers every intra-cluster call carries. Peers and clients share
// one listener, so a call is a peer's only when AuthHeader holds the
// cluster's shared secret; NodeHeader names the sender beside it.
const (
	AuthHeader = "X-Loopschedd-Cluster-Auth"
	NodeHeader = "X-Loopschedd-Node"
)

// errInjected tags failures manufactured by the NetInjector so tests can
// tell them from genuine transport errors.
var errInjected = errors.New("cluster: injected network fault")

// StatusError is a non-2xx HTTP response from a live peer. 4xx statuses
// are returned immediately (the request is wrong; retrying cannot fix
// it), 5xx statuses after the retry budget is exhausted.
type StatusError struct {
	Peer   string
	Status int
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: %s returned %d: %s", e.Peer, e.Status, e.Body)
}

// ClientConfig configures the hardened RPC client. Zero values pick the
// documented defaults.
type ClientConfig struct {
	// Node and Secret are this node's name and the cluster's shared
	// secret: every outbound call is stamped with both, and Sender
	// checks inbound calls against the secret. An empty Secret stamps
	// nothing and authenticates nobody.
	Node, Secret string
	// Timeout bounds each attempt; every request carries a context
	// deadline of at most this (default 2s).
	Timeout time.Duration
	// Attempts is the per-call attempt budget (default 3).
	Attempts int
	// Backoff is the base retry delay; attempt n sleeps roughly
	// Backoff·2ⁿ with uniform jitter in the upper half, capped at
	// MaxBackoff (defaults 25ms / 1s). Jitter prevents synchronized
	// retry waves against a recovering peer.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Transport, if non-nil, replaces http.DefaultTransport.
	Transport http.RoundTripper
	// Faults, if non-nil, injects deterministic drops, delays and errors
	// into every call (see NetInjector). Drops surface as immediate
	// deadline-style failures — the packet's timeout has "already
	// elapsed" — so seeded chaos tests stay fast.
	Faults *NetInjector
}

// Client is the hardened intra-cluster RPC client: every call has a
// per-attempt context deadline and a bounded retry budget with
// exponential backoff and jitter. Whether a peer may be called at all is
// not its question — Membership's dead verdict answers that. Safe for
// concurrent use.
type Client struct {
	cfg ClientConfig
	hc  *http.Client
}

// Response is a successful call's metadata and body.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// NewClient returns a Client with the given configuration.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = time.Second
	}
	tr := cfg.Transport
	if tr == nil {
		tr = http.DefaultTransport
	}
	return &Client{cfg: cfg, hc: &http.Client{Transport: tr}}
}

// Sender authenticates an inbound request as an intra-cluster call: ok
// when it carries the cluster's secret, node the name the sender gave
// (a claim — any holder of the secret can make it).
func (c *Client) Sender(r *http.Request) (node string, ok bool) {
	if c.cfg.Secret == "" ||
		subtle.ConstantTimeCompare([]byte(r.Header.Get(AuthHeader)), []byte(c.cfg.Secret)) != 1 {
		return "", false
	}
	return r.Header.Get(NodeHeader), true
}

// Probe is one health probe of peer: a single GET /readyz under ctx's
// deadline (and the per-attempt one), never retried — retrying a probe
// only delays the next one. Any HTTP answer, a draining 503 included,
// is a Response; nil is transport silence, or ctx ending first.
func (c *Client) Probe(ctx context.Context, peer Peer) *Response {
	resp, _ := c.attempt(ctx, peer, http.MethodGet, "/readyz", "GET /readyz", nil, nil)
	return resp
}

// Do calls method path on peer. A non-nil in is JSON-encoded as the
// request body ([]byte passes through raw); a non-nil out has the 2xx
// response body JSON-decoded into it. 4xx responses return the
// Response plus a *StatusError immediately; 5xx responses are retried
// with backoff and return the last Response plus a *StatusError when
// the budget runs out. The caller's ctx bounds the whole call; each
// attempt additionally carries the configured per-attempt deadline.
func (c *Client) Do(ctx context.Context, peer Peer, method, path string, in, out any) (*Response, error) {
	return c.DoHeader(ctx, peer, method, path, nil, in, out)
}

// DoHeader is Do with extra request headers (copied onto every
// attempt) — the daemon forwards a resolved tenant this way.
func (c *Client) DoHeader(ctx context.Context, peer Peer, method, path string, hdr http.Header, in, out any) (*Response, error) {
	var body []byte
	switch v := in.(type) {
	case nil:
	case []byte:
		body = v
	default:
		var err error
		if body, err = json.Marshal(v); err != nil {
			return nil, fmt.Errorf("cluster: encode %s %s: %w", method, path, err)
		}
	}
	op := method + " " + path
	var lastErr error
	var lastResp *Response
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt); err != nil {
				return nil, err
			}
		}
		resp, err := c.attempt(ctx, peer, method, path, op, hdr, body)
		if err != nil {
			lastErr = err
			lastResp = nil
			if ctx.Err() != nil {
				return nil, fmt.Errorf("cluster: %s %s %s: %w", peer.Name, method, path, err)
			}
			continue
		}
		switch {
		case resp.Status >= 200 && resp.Status < 300:
			if out != nil {
				if err := json.Unmarshal(resp.Body, out); err != nil {
					return nil, fmt.Errorf("cluster: decode %s %s from %s: %w", method, path, peer.Name, err)
				}
			}
			return resp, nil
		case resp.Status >= 400 && resp.Status < 500:
			// The peer judged the request itself wrong: no retry.
			return resp, &StatusError{Peer: peer.Name, Status: resp.Status, Body: string(resp.Body)}
		default:
			lastErr = &StatusError{Peer: peer.Name, Status: resp.Status, Body: string(resp.Body)}
			lastResp = resp
		}
	}
	return lastResp, fmt.Errorf("cluster: %s %s %s: attempts exhausted: %w", peer.Name, method, path, lastErr)
}

// attempt performs one fault-injected, deadline-bounded request.
func (c *Client) attempt(ctx context.Context, peer Peer, method, path, op string, hdr http.Header, body []byte) (*Response, error) {
	if f, ok := c.cfg.Faults.Decide(peer.Name, op); ok {
		switch f.Kind {
		case NetDrop:
			return nil, fmt.Errorf("%w: dropped (deadline exceeded)", errInjected)
		case NetError:
			return nil, fmt.Errorf("%w: connection reset", errInjected)
		case NetDelay:
			t := time.NewTimer(f.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, peer.URL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if c.cfg.Secret != "" {
		req.Header.Set(AuthHeader, c.cfg.Secret)
		req.Header.Set(NodeHeader, c.cfg.Node)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	return &Response{Status: resp.StatusCode, Header: resp.Header, Body: data}, nil
}

// sleep waits out attempt n's backoff: Backoff·2ⁿ⁻¹ capped at
// MaxBackoff, jittered uniformly over its upper half so synchronized
// callers spread out.
func (c *Client) sleep(ctx context.Context, attempt int) error {
	d := c.cfg.Backoff << (attempt - 1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	half := d / 2
	d = half + rand.N(half+1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
