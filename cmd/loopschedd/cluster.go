package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/runner"
)

// tenantHeader carries, on an intra-cluster submission, the tenant the
// placing node already resolved: the client authenticated once, at the
// node it reached. A call is intra-cluster when it carries the cluster's
// shared secret (cluster.AuthHeader, stamped by the RPC client on every
// call) and on nothing else: peers and clients share one listener, so a
// request without the secret is an ordinary client's, whose tenant header
// is ignored and whose caller-chosen run ID is rejected.
const tenantHeader = "X-Loopschedd-Tenant"

// clusterOptions are the daemon's cluster settings, part of the same
// table. A zero Node disables clustering entirely (single-node mode,
// bit-identical to the pre-cluster daemon); with clustering on, Node
// must appear in Peers and Secret is required — cluster and client
// traffic share a listener, and without a secret the internal-call
// headers would be client-spoofable. A zero ProbeInterval, RPCTimeout
// or DeadAfter takes the cluster package's own default.
type clusterOptions struct {
	Node            string        `flag:"node" help:"this node's name in the cluster peer set (\"\" = single-node mode)"`
	PeerList        string        `flag:"peers" help:"static cluster peer set as name=url,name=url (self included)"`
	File            string        `flag:"cluster" help:"cluster config file: {\"self\": \"n1\", \"secret\": \"...\", \"peers\": {\"n1\": \"http://...\", ...}} (alternative to -node/-peers)"`
	Secret          string        `flag:"cluster-secret" help:"shared secret authenticating intra-cluster calls (required with -peers; overrides the cluster file's)"`
	ProbeInterval   time.Duration `flag:"probe-interval" default:"500ms" help:"spacing of the cluster health probes that count toward -dead-after (each probe's deadline is at most this)"`
	RPCTimeout      time.Duration `flag:"rpc-timeout" default:"2s" help:"per-attempt deadline on intra-cluster requests"`
	DeadAfter       int           `flag:"dead-after" default:"3" help:"interval-spaced probes that met silence, in a row, before a peer is declared dead and failed over"`
	CheckpointEvery int64         `flag:"checkpoint-every" help:"default periodic-snapshot period (chunk claims) applied to clustered submissions; 0 = snapshots only when a submission asks"`

	// Peers, parsed from PeerList or File, is the full static peer set,
	// self included.
	Peers []cluster.Peer
	// Faults injects deterministic network faults into every
	// intra-cluster call — the chaos-test hook; nil in production.
	Faults *cluster.NetInjector
}

func (o clusterOptions) enabled() bool { return o.Node != "" }

// placement tracks one run this node placed on a peer: enough to proxy
// by ID, to journal restore points, and to re-place the run from its
// last snapshot if the owner dies.
type placement struct {
	id     string        // cluster-wide run ID (the owner's)
	node   string        // current owner
	sub    journalSubmit // original wire submission, for failover resubmit
	ckpt   *repro.Checkpoint
	ckptJS []byte // marshaled ckpt, to detect changes cheaply
	// inFailover serializes re-placement: OnDead and the tracker's 404
	// can both notice the same loss.
	inFailover bool
}

// clusterState composes the cluster package's membership and RPC
// client into the daemon's serving policy: placement, forwarding,
// proxying and failover.
type clusterState struct {
	s      *server
	opts   clusterOptions
	self   cluster.Peer
	client *cluster.Client
	mem    *cluster.Membership

	ctx    context.Context
	cancel context.CancelFunc

	// placeTag + placeSeq mint placement run IDs. The tag is a random
	// per-process value, so IDs this placer chooses never collide with
	// the owner's own sequence or with IDs minted before a placer
	// reboot — which is what makes resending the same ID on every
	// forward attempt a safe idempotency key.
	placeTag string
	placeSeq atomic.Uint64

	mu         sync.Mutex
	placements map[string]*placement
	// tracked is closed when the tracker loop has exited.
	tracked chan struct{}
}

func newClusterState(s *server, opts clusterOptions) (*clusterState, error) {
	client := cluster.NewClient(cluster.ClientConfig{
		Node:    opts.Node,
		Secret:  opts.Secret,
		Timeout: opts.RPCTimeout,
		Faults:  opts.Faults,
	})
	c := &clusterState{
		s:          s,
		opts:       opts,
		client:     client,
		placeTag:   fmt.Sprintf("%08x", rand.Uint32()),
		placements: map[string]*placement{},
		tracked:    make(chan struct{}),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	mem, err := cluster.NewMembership(cluster.MembershipConfig{
		Self:          opts.Node,
		Peers:         opts.Peers,
		Client:        client,
		Interval:      opts.ProbeInterval,
		DeadAfter:     opts.DeadAfter,
		OnDead:        c.onDead,
		LocalLoad:     s.load,
		LocalDraining: func() bool { return s.draining.Load() },
		Metrics:       s.reg,
	})
	if err != nil {
		return nil, err
	}
	c.mem = mem
	c.self = mem.Self()
	return c, nil
}

// start restores replayed placements and launches the membership's
// probes and the placement tracker. Nothing is placeable until a peer
// has answered; submissions that arrive before then run locally.
func (c *clusterState) start(replayed []*placement) {
	for _, p := range replayed {
		c.adopt(p)
	}
	c.mem.Start()
	go c.track()
}

// adopt registers a placement (fresh or journal-replayed) for the
// tracker. A replayed placement whose owner is already dead fails over
// when membership says so.
func (c *clusterState) adopt(p *placement) {
	c.mu.Lock()
	c.placements[p.id] = p
	c.mu.Unlock()
}

func (c *clusterState) close() {
	c.cancel()
	c.mem.Close()
	<-c.tracked
}

// tenantHdr builds the headers of an intra-cluster submission: the
// resolved tenant, when there is one.
func tenantHdr(tenant string) http.Header {
	if tenant == "" {
		return nil
	}
	return http.Header{tenantHeader: {tenant}}
}

// isInternal reports whether the request came from a cluster peer:
// clustering must be on and the request must present the cluster's
// shared secret.
func (s *server) isInternal(r *http.Request) bool {
	if s.cluster == nil {
		return false
	}
	_, ok := s.cluster.client.Sender(r)
	return ok
}

// placementID mints the run ID for a placement on target: the owner's
// name prefix (so prefix routing works unchanged), this placer's
// random per-process tag, and a sequence number. Unique across the
// owner's own IDs, other placers, and this placer's earlier lives.
func (c *clusterState) placementID(target string) string {
	return fmt.Sprintf("%s-run-%s-%04d", target, c.placeTag, c.placeSeq.Add(1))
}

// confirmPlaced asks target whether run id exists — the tiebreaker
// after an ambiguous forward outcome.
func (c *clusterState) confirmPlaced(target cluster.Peer, id string) (*cluster.Response, bool) {
	resp, err := c.client.Do(c.ctx, target, http.MethodGet, "/v1/runs/"+id, nil, nil)
	return resp, err == nil && resp.Status == http.StatusOK
}

// trySubmitRemote implements run placement: ask membership where the
// run goes (LeastLoaded — self unless a placeable peer is strictly
// lighter); if that is a peer, forward the submission there under a
// placer-minted run ID, record the placement, journal it, hand it to the
// placement tracker, and answer the client. Returns false when the run
// should execute locally instead — no peer is lighter than self, or the
// forward definitively failed (graceful degradation: a partitioned node
// still serves).
//
// The forward is idempotent: every retry attempt carries the same
// minted ID, so an attempt that times out after the owner already
// created the run makes the next attempt answer 409 — proof the run
// exists — instead of creating a second one. Only when the forward's
// outcome stays unknown (transport silence and a failed confirmation
// probe) does the placer degrade to local execution, after a
// best-effort cancel of the ID in case it did land.
func (c *clusterState) trySubmitRemote(w http.ResponseWriter, req submitRequest, tenant string) bool {
	target, ok := c.mem.LeastLoaded()
	if !ok || target.Peer.Name == c.self.Name {
		return false
	}
	req.ID = c.placementID(target.Peer.Name)
	adopt := func(body []byte) bool {
		p := &placement{id: req.ID, node: target.Peer.Name, sub: *req.record(tenant)}
		c.s.appendRecord(kindPlace, p.id, journalPlace{Node: p.node, Sub: p.sub})
		c.adopt(p)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		w.Write(body)
		return true
	}
	var st runStatus
	resp, err := c.client.DoHeader(c.ctx, target.Peer, http.MethodPost, "/v1/runs",
		tenantHdr(tenant), req, &st)
	if err == nil && resp.Status == http.StatusCreated {
		return adopt(resp.Body)
	}
	var se *cluster.StatusError
	if errors.As(err, &se) && se.Status >= 400 && se.Status < 500 {
		if se.Status == http.StatusConflict {
			// Only this placer can have minted the ID, so a duplicate means
			// an earlier attempt of this very forward landed: the run exists
			// on the owner. Answer from its live status when reachable, from
			// a minimal snapshot otherwise — the tracker takes it from here.
			if got, ok := c.confirmPlaced(target.Peer, req.ID); ok {
				return adopt(got.Body)
			}
			return adopt(fmt.Appendf(nil, "{\"id\":%q,\"state\":\"queued\"}", req.ID))
		}
		// Any other 4xx: the submission itself is bad and local submission
		// would reject it identically, so relay the owner's verdict.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(se.Status)
		w.Write(resp.Body)
		return true
	}
	// Transport failure or 5xx exhaustion: the owner may or may not have
	// created the run. Confirm before degrading to local execution.
	if got, ok := c.confirmPlaced(target.Peer, req.ID); ok {
		return adopt(got.Body)
	}
	// Placement unknown and unconfirmable. Fire a best-effort cancel so
	// that, if the submit did land, the orphan stops instead of running
	// to completion unobserved; then run locally under a fresh local ID.
	go func(p cluster.Peer, id string) {
		c.client.Do(c.ctx, p, http.MethodPost, "/v1/runs/"+id+"/cancel", nil, nil)
	}(target.Peer, req.ID)
	log.Printf("loopschedd: placement on %s failed (%v), running locally", target.Peer.Name, err)
	return false
}

// ownerOf resolves which peer serves run id: the placement table first
// (it survives failover, when the ID's prefix goes stale), then the
// ID's node prefix ("n2-run-0007" → peer n2").
func (c *clusterState) ownerOf(id string) (cluster.Peer, bool) {
	c.mu.Lock()
	p := c.placements[id]
	c.mu.Unlock()
	name := ""
	if p != nil {
		name = p.node
	} else if i := strings.LastIndex(id, "-run-"); i > 0 {
		name = id[:i]
	}
	if name == "" {
		return cluster.Peer{}, false
	}
	return c.peerNamed(name)
}

// scatter offers run id's resolved owner, then — if try declines it —
// every other live peer, to try, until one call reports success; so
// routing survives stale prefixes and mid-failover windows.
func (c *clusterState) scatter(id string, try func(cluster.Peer) bool) bool {
	tried := map[string]bool{c.self.Name: true}
	if owner, ok := c.ownerOf(id); ok {
		tried[owner.Name] = true
		if try(owner) {
			return true
		}
	}
	for _, n := range c.mem.Nodes() {
		if !tried[n.Peer.Name] && n.State != cluster.NodeDead && try(n.Peer) {
			return true
		}
	}
	return false
}

// fetchStatus GETs a run's status from whichever node serves it.
func (c *clusterState) fetchStatus(ctx context.Context, id string) (resp *cluster.Response, ok bool) {
	ok = c.scatter(id, func(p cluster.Peer) bool {
		got, err := c.client.Do(ctx, p, http.MethodGet, "/v1/runs/"+id, nil, nil)
		resp = got
		return err == nil && got.Status == http.StatusOK
	})
	return resp, ok
}

// proxyGet serves GET /v1/runs/{id} for a run another node owns.
// Reports whether it handled the request.
func (c *clusterState) proxyGet(w http.ResponseWriter, r *http.Request, id string) bool {
	resp, ok := c.fetchStatus(r.Context(), id)
	if !ok {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp.Body)
	return true
}

// proxyPost forwards POST /v1/runs/{id}/(cancel|checkpoint) to the
// run's owner, relaying status and body. Like fetchStatus it falls
// back to scattering across live peers when the resolved owner is
// unreachable or answers 404 — after a failover the run lives on a
// survivor whose name the ID's prefix no longer matches, and only the
// node that placed the run knows which. A 404 keeps scattering (that
// node simply doesn't host the run) and is relayed if nothing better
// comes; any other answer is the owner's and is relayed as-is. Reports
// whether it handled the request.
func (c *clusterState) proxyPost(w http.ResponseWriter, r *http.Request, id, action string) bool {
	var answer *cluster.Response
	c.scatter(id, func(p cluster.Peer) bool {
		resp, err := c.client.Do(r.Context(), p, http.MethodPost, "/v1/runs/"+id+"/"+action, nil, nil)
		if err != nil && resp == nil {
			return false
		}
		answer = resp
		return resp.Status != http.StatusNotFound
	})
	if answer == nil {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(answer.Status)
	w.Write(answer.Body)
	return true
}

// proxyProgress streams NDJSON progress for a remote run by polling
// the owner's status through the hardened client — every cross-node
// request stays deadline-bounded, unlike a raw streaming proxy whose
// body read can hang on a dead peer. The stream ends at the first
// terminal snapshot. A run can finish within a millisecond of the first
// look, so the re-poll delay starts at a few milliseconds and doubles up
// to the server's sample interval instead of sleeping a whole interval
// before the second look.
func (c *clusterState) proxyProgress(w http.ResponseWriter, r *http.Request, id string) bool {
	resp, ok := c.fetchStatus(r.Context(), id)
	if !ok {
		return false
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	interval := c.s.cfg.SampleInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	delay := min(2*time.Millisecond, interval)
	for {
		var st runStatus
		if err := json.Unmarshal(resp.Body, &st); err != nil {
			return true
		}
		if enc.Encode(st.Progress) != nil {
			return true
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminalState(st.State) {
			return true
		}
		// Re-poll until the owner answers: a miss emits nothing. The owner
		// may be mid-failover; tolerate a few misses before ending the
		// stream.
		for misses := 0; ; {
			select {
			case <-r.Context().Done():
				return true
			case <-time.After(delay):
			}
			delay = min(2*delay, interval)
			if resp, ok = c.fetchStatus(r.Context(), id); ok {
				break
			}
			if misses++; misses > 5 {
				return true
			}
		}
	}
}

func terminalState(state string) bool {
	switch state {
	case runner.StateDone.String(), runner.StateFailed.String(),
		runner.StateCancelled.String(), runner.StateCheckpointed.String():
		return true
	}
	return false
}

// onDead is the membership's failover hook: every placement owned by
// the dead node is re-placed on a survivor from its last snapshot.
func (c *clusterState) onDead(p cluster.Peer) {
	log.Printf("loopschedd: cluster peer %s declared dead", p.Name)
	c.mu.Lock()
	var victims []*placement
	for _, pl := range c.placements {
		if pl.node == p.Name {
			victims = append(victims, pl)
		}
	}
	c.mu.Unlock()
	for _, pl := range victims {
		c.failover(pl)
	}
}

// failover re-places a run whose owner died: resubmit the original
// program under the same run ID — resuming from the last journaled
// snapshot when one exists, from scratch otherwise — where the submit
// placement rule puts it: on this node, unless a placeable survivor is
// strictly lighter. The run keeps its ID, so clients polling it never
// notice beyond a progress reset to the snapshot's restore point.
func (c *clusterState) failover(p *placement) {
	c.mu.Lock()
	if c.placements[p.id] != p || p.inFailover {
		c.mu.Unlock()
		return
	}
	p.inFailover = true
	defer func() {
		c.mu.Lock()
		p.inFailover = false
		c.mu.Unlock()
	}()
	req := p.sub.request(p.id, p.ckpt)
	tenant := p.sub.Tenant
	c.mu.Unlock()

	target, ok := c.mem.LeastLoaded()
	if ok && target.Peer.Name != c.self.Name {
		var st runStatus
		resp, err := c.client.DoHeader(c.ctx, target.Peer, http.MethodPost, "/v1/runs",
			tenantHdr(tenant), req, &st)
		var se *cluster.StatusError
		// 409 means the target already hosts this ID — it replayed the run
		// from its own journal, or an earlier failover attempt landed.
		// Either way the run lives there: adopt it, don't restore again.
		if (err == nil && resp.Status == http.StatusCreated) ||
			(errors.As(err, &se) && se.Status == http.StatusConflict) {
			c.mu.Lock()
			p.node = target.Peer.Name
			c.mu.Unlock()
			// p.node and p.ckpt move under c.mu (noteSnapshot, a later
			// failover); report from the values this failover used.
			c.s.appendRecord(kindPlace, p.id, journalPlace{Node: target.Peer.Name, Sub: p.sub})
			log.Printf("loopschedd: run %s failed over to %s%s", p.id, target.Peer.Name, restoreNote(req.Options.Resume))
			return
		}
		log.Printf("loopschedd: failover of %s to %s failed (%v), restoring locally", p.id, target.Peer.Name, err)
	}
	// Restore locally (graceful degradation: even a fully partitioned
	// node finishes the runs it placed). A duplicate means the run is
	// already here — a journal replay beat this failover to it.
	if err := c.s.submitPlaced(req, tenant); err != nil && !errors.Is(err, runner.ErrDuplicateID) {
		log.Printf("loopschedd: local failover restore of %s failed: %v", p.id, err)
		return
	}
	// The run is a local one now: its own events journal its snapshots
	// and its terminal record, so the placement has nothing left to track.
	c.mu.Lock()
	delete(c.placements, p.id)
	c.mu.Unlock()
	c.s.appendRecord(kindPlace, p.id, journalPlace{Node: c.self.Name, Sub: p.sub})
	log.Printf("loopschedd: run %s failed over to %s (self)%s", p.id, c.self.Name, restoreNote(req.Options.Resume))
}

func restoreNote(ck *repro.Checkpoint) string {
	if ck == nil {
		return " (no snapshot: restarting from scratch)"
	}
	return " (resuming from last snapshot)"
}

// track is the one placement tracker: every probe interval it polls the
// owner of each open placement once, in turn — journaling each new
// snapshot (the failover restore point), recording the terminal state,
// and failing over when a live owner turns out to have lost the run.
func (c *clusterState) track() {
	defer close(c.tracked)
	interval := c.opts.ProbeInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
		}
		c.mu.Lock()
		open := make([]*placement, 0, len(c.placements))
		for _, p := range c.placements {
			open = append(open, p)
		}
		c.mu.Unlock()
		for _, p := range open {
			if c.ctx.Err() != nil {
				return
			}
			c.pollRemote(p)
		}
	}
}

// pollRemote polls the remote owner once.
func (c *clusterState) pollRemote(p *placement) {
	c.mu.Lock()
	node := p.node
	c.mu.Unlock()
	owner, ok := c.peerNamed(node)
	if !ok {
		return
	}
	var st runStatus
	_, err := c.client.Do(c.ctx, owner, http.MethodGet, "/v1/runs/"+p.id, nil, &st)
	if err != nil {
		var se *cluster.StatusError
		if errors.As(err, &se) && se.Status == http.StatusNotFound {
			// The owner is alive but no longer knows the run: it lost its
			// state (restart without journal). Re-place from our snapshot.
			log.Printf("loopschedd: owner %s lost run %s, failing over", node, p.id)
			c.failover(p)
		}
		// Transport failures: membership declares death; OnDead handles it.
		return
	}
	if st.Checkpoint != nil {
		c.noteSnapshot(p, st.Checkpoint)
	}
	if terminalState(st.State) {
		c.finishPlacement(p, st.State)
	}
}

// noteSnapshot journals a placed run's snapshot when it changed.
func (c *clusterState) noteSnapshot(p *placement, ck *repro.Checkpoint) {
	js, err := json.Marshal(ck)
	if err != nil {
		return
	}
	c.mu.Lock()
	if bytes.Equal(js, p.ckptJS) {
		c.mu.Unlock()
		return
	}
	p.ckpt, p.ckptJS = ck, js
	c.mu.Unlock()
	c.s.appendRecord(kindSnapshot, p.id, js)
}

// finishPlacement drops a placement whose run reached a terminal state
// from the table — each entry holds the full submission plus the last
// checkpoint, so a long-lived placer would otherwise grow without bound
// — and journals the outcome so a rebooted placer does not resurrect a
// finished run. Routing for the finished run still works: the ID's node
// prefix resolves it, and the proxy paths scatter when the prefix has
// gone stale.
func (c *clusterState) finishPlacement(p *placement, state string) {
	c.mu.Lock()
	open := c.placements[p.id] == p
	delete(c.placements, p.id)
	c.mu.Unlock()
	if open {
		c.s.appendRecord(kindTerminal, p.id, journalTerminal{State: state})
	}
}

// peerNamed returns the named peer; false for self and unknown names.
func (c *clusterState) peerNamed(name string) (cluster.Peer, bool) {
	n, ok := c.mem.Node(name)
	return n.Peer, ok && !n.Self
}

// clusterInfo is the GET /v1/cluster body.
type clusterInfo struct {
	Self       string             `json:"self"`
	Nodes      []cluster.NodeInfo `json:"nodes"`
	Placements int                `json:"placements"`
}

func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, errors.New("clustering disabled"))
		return
	}
	s.cluster.mu.Lock()
	n := len(s.cluster.placements)
	s.cluster.mu.Unlock()
	writeJSON(w, clusterInfo{
		Self:       s.cluster.self.Name,
		Nodes:      s.cluster.mem.Nodes(),
		Placements: n,
	})
}
