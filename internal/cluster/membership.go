package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Wire headers the cluster layer reads off health probes. The daemon
// sets them on its /readyz responses (at every status, so a draining
// node still reports load) and on internal calls.
const (
	// LoadHeader carries a node's current load figure (active + queued
	// runs) on /readyz responses — the same figure the node's own
	// LocalLoad supplies, since placement compares the two.
	LoadHeader = "X-Loopschedd-Load"
	// DrainingHeader is "1" on /readyz responses from a node that is
	// shutting down gracefully: alive, still serving its local runs, but
	// not accepting placements.
	DrainingHeader = "X-Loopschedd-Draining"
)

// NodeState is a peer's observed liveness. A row moves on the outcome of
// this node's own probes and on nothing else: any answer makes the peer
// alive; the first counted probe met with silence makes it suspect, and
// DeadAfter of them in a row dead — from unconfirmed as from alive, so a
// peer that never comes up is failed over too.
type NodeState uint8

const (
	// NodeUnconfirmed peers have not answered a probe since this node
	// booted: nothing is known about them, so nothing is placed on them.
	NodeUnconfirmed NodeState = iota
	// NodeAlive peers answered their most recent probe.
	NodeAlive
	// NodeSuspect peers met silence on their latest counted probe: not
	// placed on, but not failed over — one dropped probe is routine under
	// injected faults.
	NodeSuspect
	// NodeDead peers met DeadAfter counted probes with silence: their
	// checkpointable runs are eligible for failover.
	NodeDead
)

var nodeStateNames = [...]string{
	NodeUnconfirmed: "unconfirmed", NodeAlive: "alive", NodeSuspect: "suspect", NodeDead: "dead",
}

func (s NodeState) String() string {
	if int(s) < len(nodeStateNames) {
		return nodeStateNames[s]
	}
	return fmt.Sprintf("NodeState(%d)", uint8(s))
}

// NodeInfo is one node's membership row: identity, observed state, and
// the load/draining figures its last answered probe reported.
type NodeInfo struct {
	Peer     Peer      `json:"peer"`
	Self     bool      `json:"self,omitempty"`
	State    NodeState `json:"-"`
	StateStr string    `json:"state"`
	Draining bool      `json:"draining,omitempty"`
	Ready    bool      `json:"ready"`
	Load     int       `json:"load"`
	Failures int       `json:"failures,omitempty"`
	// Breaker is the position of this node's circuit to the peer.
	Breaker string `json:"breaker,omitempty"`
	// SinceAnswerMS is how long ago the peer last answered a probe; -1
	// for a peer that never has.
	SinceAnswerMS int64 `json:"since_answer_ms"`
}

// Placeable reports whether new runs may be placed on the node: alive,
// ready and not draining.
func (n NodeInfo) Placeable() bool {
	return n.State == NodeAlive && n.Ready && !n.Draining
}

// MembershipConfig configures a Membership.
type MembershipConfig struct {
	// Self names this node; it must appear in Peers. Self is never
	// probed — its row comes from LocalLoad and LocalDraining.
	Self  string
	Peers []Peer
	// Client performs the probes (Client.Probe) and authenticates
	// hellos (Client.Sender).
	Client *Client
	// Interval spaces the counted probes of one peer, and bounds each
	// probe's deadline (default 500ms).
	Interval time.Duration
	// DeadAfter is the count of consecutive counted probes met with
	// silence that declares a peer dead (default 3), so a peer is declared
	// dead after DeadAfter·Interval of silence and no sooner; the first
	// such probe makes it suspect.
	DeadAfter int
	// OnDead, if non-nil, is called (from the peer's probe goroutine,
	// without locks held) each time a peer transitions into NodeDead —
	// the daemon's failover hook.
	OnDead func(Peer)
	// LocalLoad and LocalDraining supply this node's own row. Nil means
	// load 0 / not draining. LocalLoad must be the figure the node serves
	// under LoadHeader: LeastLoaded compares it with the peers'.
	LocalLoad     func() int
	LocalDraining func() bool
	// Metrics, if non-nil, is where the membership series go: probes by
	// outcome, state transitions, per-peer state and breaker gauges, and
	// the boot-to-converged time.
	Metrics *obs.Registry
	// Now and NewTimer replace the wall clock in deterministic tests
	// (nil = time.Now / time.NewTimer). NewTimer returns the channel
	// that receives once d has passed and a stop function.
	Now      func() time.Time
	NewTimer func(d time.Duration) (fired <-chan time.Time, stop func() bool)
}

// Membership tracks a static peer set's observed liveness. Each peer has
// its own probe goroutine, so a hung peer delays nobody else's row, and
// two kinds of probe:
//
//   - Counted probes are spaced Interval apart, measured from the peer's
//     last answer. Only they can demote a peer, so DeadAfter counts
//     intervals of real silence.
//   - Uncounted probes converge faster than the interval without
//     shortening it: the first probe at Start, re-probes of a peer that
//     is not alive on a doubling backoff, and one probe per Hello. Their
//     answers promote a peer; their silence changes nothing.
//
// It answers "who is alive, who is placeable, and who just died" —
// failover policy stays with the caller via OnDead.
type Membership struct {
	cfg  MembershipConfig
	self Peer
	// Probes by outcome, counted and not, and transitions by state entered.
	counted, uncounted, moves *obs.CounterVec

	mu        sync.Mutex
	rows      map[string]*memberRow
	started   time.Time
	converged time.Duration // Start → first moment every peer was alive; 0 before
	cancel    context.CancelFunc
	wg        sync.WaitGroup
}

type memberRow struct {
	peer     Peer
	state    NodeState
	draining bool
	ready    bool
	load     int
	failures int
	answered time.Time // zero: never
	breaker  *Breaker  // the client's circuit to the peer
	// kick asks the peer's goroutine for one out-of-cycle probe; its one
	// slot coalesces the hellos that arrive while a probe is in flight.
	kick chan struct{}
}

// NewMembership validates cfg and returns an unstarted Membership.
func NewMembership(cfg MembershipConfig) (*Membership, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("cluster: membership needs a Client")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.NewTimer == nil {
		cfg.NewTimer = func(d time.Duration) (<-chan time.Time, func() bool) {
			t := time.NewTimer(d)
			return t.C, t.Stop
		}
	}
	m := &Membership{cfg: cfg, rows: map[string]*memberRow{}}
	found := false
	for _, p := range cfg.Peers {
		if p.Name == cfg.Self {
			m.self = p
			found = true
			continue
		}
		m.rows[p.Name] = &memberRow{peer: p, breaker: cfg.Client.Breaker(p.Name), kick: make(chan struct{}, 1)}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list", cfg.Self)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	m.register(cfg.Metrics)
	return m, nil
}

// Self returns this node's peer entry.
func (m *Membership) Self() Peer { return m.self }

// Start launches one probe goroutine per peer; each probes at once. It
// returns without waiting for an answer. Close stops them.
func (m *Membership) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	m.started = m.cfg.Now()
	for _, r := range m.rows {
		m.wg.Add(1)
		go m.watch(ctx, r)
	}
}

// Close cancels every probe in flight and waits for the probe
// goroutines to exit.
func (m *Membership) Close() {
	m.mu.Lock()
	cancel := m.cancel
	m.cancel = nil
	m.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	m.wg.Wait()
}

// Hello is the inbound half of convergence: the daemon shows it every
// request, and an authenticated one from a peer this node does not hold
// alive and ready asks for one out-of-cycle probe of that peer. A hello
// is only a trigger — the sender's name is a claim, so the row changes
// on the probe's answer, never on the hello. A booting node's first
// probes are its hellos, which is what makes convergence one round trip
// after the last listener is up. Reports whether a probe was asked for.
func (m *Membership) Hello(req *http.Request) bool {
	name, ok := m.cfg.Client.Sender(req)
	if !ok {
		return false
	}
	m.mu.Lock()
	r := m.rows[name]
	confirmed := r == nil || (r.state == NodeAlive && r.ready)
	m.mu.Unlock()
	if confirmed {
		return false
	}
	select {
	case r.kick <- struct{}{}:
	default: // one is already pending
	}
	return true
}

// watch is one peer's probe loop.
func (m *Membership) watch(ctx context.Context, r *memberRow) {
	defer m.wg.Done()
	// The first probe is uncounted: it is this node's hello, and a peer
	// that has not booted yet has not missed anything.
	countedAt := m.cfg.Now().Add(m.cfg.Interval)
	// A peer that is not alive is re-probed this long after a miss, then
	// twice as long, up to the interval.
	firstBackoff := max(m.cfg.Interval/64, time.Millisecond)
	backoff := firstBackoff
	for {
		launched := m.cfg.Now()
		counted := !launched.Before(countedAt)
		pctx, cancel := context.WithTimeout(ctx, m.cfg.Interval)
		resp := m.cfg.Client.Probe(pctx, r.peer)
		cancel()
		if ctx.Err() != nil {
			return
		}
		if counted || resp != nil {
			countedAt = launched.Add(m.cfg.Interval)
		}
		alive, died := m.fold(r, resp, counted)
		if died && m.cfg.OnDead != nil {
			m.cfg.OnDead(r.peer)
		}
		wait := countedAt.Sub(m.cfg.Now())
		if alive {
			backoff = firstBackoff
		} else {
			wait = min(wait, backoff)
			backoff = min(2*backoff, m.cfg.Interval)
		}
		fired, stop := m.cfg.NewTimer(wait)
		select {
		case <-fired:
		case <-r.kick:
			stop()
		case <-ctx.Done():
			stop()
			return
		}
	}
}

// fold folds one probe's outcome into the peer's row, reporting whether
// the peer is alive now and whether this probe moved it into NodeDead.
func (m *Membership) fold(r *memberRow, resp *Response, counted bool) (alive, justDied bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	before := r.state
	outcome := "silent"
	switch {
	case resp != nil:
		// Any HTTP answer — including a draining 503 — proves the process
		// is up.
		r.failures = 0
		r.state = NodeAlive
		r.answered = m.cfg.Now()
		r.ready = resp.Status == http.StatusOK
		r.draining = resp.Header.Get(DrainingHeader) == "1"
		if v := resp.Header.Get(LoadHeader); v != "" {
			if n, perr := strconv.Atoi(v); perr == nil && n >= 0 {
				r.load = n
			}
		}
		outcome = "ok"
		if !r.ready {
			outcome = "not-ready"
		}
	case counted:
		r.failures++
		r.ready = false
		r.state = NodeSuspect
		if r.failures >= m.cfg.DeadAfter {
			r.state = NodeDead
		}
	}
	if counted {
		m.counted.With(outcome).Inc()
	} else {
		m.uncounted.With(outcome).Inc()
	}
	if r.state != before {
		m.moves.With(r.state.String()).Inc()
		if r.state == NodeAlive && m.converged == 0 && m.allAliveLocked() {
			m.converged = m.cfg.Now().Sub(m.started)
		}
	}
	return r.state == NodeAlive, r.state == NodeDead && before != NodeDead
}

func (m *Membership) allAliveLocked() bool {
	for _, r := range m.rows {
		if r.state != NodeAlive {
			return false
		}
	}
	return true
}

// Nodes returns every node's row — self first, peers sorted by name.
func (m *Membership) Nodes() []NodeInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeInfo, 0, len(m.rows)+1)
	out = append(out, m.selfRowLocked())
	for _, r := range m.rows {
		out = append(out, m.rowLocked(r))
	}
	sort.Slice(out[1:], func(i, j int) bool { return out[i+1].Peer.Name < out[j+1].Peer.Name })
	return out
}

func (m *Membership) rowLocked(r *memberRow) NodeInfo {
	since := int64(-1)
	if !r.answered.IsZero() {
		since = m.cfg.Now().Sub(r.answered).Milliseconds()
	}
	return NodeInfo{
		Peer: r.peer, State: r.state, StateStr: r.state.String(),
		Draining: r.draining, Ready: r.ready, Load: r.load, Failures: r.failures,
		Breaker: r.breaker.State().String(), SinceAnswerMS: since,
	}
}

func (m *Membership) selfRowLocked() NodeInfo {
	load := 0
	if m.cfg.LocalLoad != nil {
		load = m.cfg.LocalLoad()
	}
	draining := false
	if m.cfg.LocalDraining != nil {
		draining = m.cfg.LocalDraining()
	}
	return NodeInfo{
		Peer: m.self, Self: true, State: NodeAlive, StateStr: NodeAlive.String(),
		Draining: draining, Ready: !draining, Load: load,
	}
}

// LeastLoaded picks where a new run goes: self, unless a placeable peer
// is strictly lighter — then the lightest such peer, the lower name
// among ties. Work leaves the node that received it only when the load
// is uneven, so an idle cluster forwards nothing; a draining self is not
// placeable and competes as no node at all. ok is false when no node —
// including self — is placeable.
func (m *Membership) LeastLoaded() (NodeInfo, bool) {
	var best NodeInfo
	ok := false
	// Nodes lists self first and peers by name, so a strict < keeps a tie
	// on self, then on the lower name.
	for _, n := range m.Nodes() {
		if n.Placeable() && (!ok || n.Load < best.Load) {
			best, ok = n, true
		}
	}
	return best, ok
}

// Node returns the named node's row.
func (m *Membership) Node(name string) (NodeInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == m.self.Name {
		return m.selfRowLocked(), true
	}
	r := m.rows[name]
	if r == nil {
		return NodeInfo{}, false
	}
	return m.rowLocked(r), true
}

// register puts the membership's series into reg.
func (m *Membership) register(reg *obs.Registry) {
	perPeer := func(f func(*memberRow) float64) func() map[string]float64 {
		return func() map[string]float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			out := make(map[string]float64, len(m.rows))
			for name, r := range m.rows {
				out[name] = f(r)
			}
			return out
		}
	}
	reg.GaugeVec("loopschedd_cluster_peer_state",
		"Observed peer state: 0 unconfirmed, 1 alive, 2 suspect, 3 dead.", "peer",
		perPeer(func(r *memberRow) float64 { return float64(r.state) }))
	reg.GaugeVec("loopschedd_cluster_breaker_state",
		"Circuit to the peer: 0 closed, 1 open, 2 half-open.", "peer",
		perPeer(func(r *memberRow) float64 { return float64(r.breaker.State()) }))
	reg.Gauge("loopschedd_cluster_converged_seconds",
		"Seconds from membership start to the first moment every peer was alive (0 until then).",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.converged.Seconds()
		})
	m.counted = reg.CounterVec("loopschedd_cluster_probes_counted_total",
		"Interval-spaced probes, the only ones whose silence demotes a peer, by outcome.", "outcome")
	m.uncounted = reg.CounterVec("loopschedd_cluster_probes_uncounted_total",
		"Out-of-cycle probes (start, re-probe backoff, hello), by outcome.", "outcome")
	m.moves = reg.CounterVec("loopschedd_cluster_transitions_total",
		"Peer state transitions, by the state entered.", "to")
}
