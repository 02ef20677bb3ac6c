package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/runner"
)

// serverConfig is the daemon's settings table, bound by flagtab like
// repro.Options: a tagged field's tags are the only spelling of its flag,
// default and help. resolve derives the untagged fields (a config built
// in code may set them) and gives a zero MaxBodyBytes or JournalSync the
// table's default.
type serverConfig struct {
	Addr           string        `flag:"addr" default:":8080" help:"listen address"`
	MaxConcurrent  int           `flag:"max-concurrent" default:"4" help:"maximum runs executing at once"`
	QueueLimit     int           `flag:"queue-limit" default:"64" help:"maximum queued runs (0 = unbounded)"`
	RetainRuns     int           `flag:"retain-runs" default:"1024" help:"finished runs kept for lookup; past it the oldest outcome is released and its ID answers 410 Gone (0 = 1024)"`
	SampleInterval time.Duration `flag:"sample" default:"200ms" help:"progress sampling interval"`
	DefaultTimeout time.Duration `flag:"default-timeout" help:"timeout applied to runs that specify none (0 = none)"`
	MaxBodyBytes   int64         `flag:"max-body-bytes" default:"1048576" help:"maximum request body size in bytes"`
	Watchdog       time.Duration `flag:"watchdog" help:"declare a run stuck after this long without scheduling progress (0 = off)"`
	WatchdogCancel bool          `flag:"watchdog-cancel" help:"cancel runs the watchdog declares stuck"`
	DrainTimeout   time.Duration `flag:"drain-timeout" default:"10s" help:"how long shutdown waits for live runs to finish before cancelling them"`
	JournalPath    string        `flag:"journal" help:"durable run journal file; on boot, non-terminal runs are re-queued from it (\"\" = no journal)"`
	JournalSync    string        `flag:"journal-sync" default:"always" help:"journal fsync policy: always or none"`
	TenantsPath    string        `flag:"tenants" help:"tenant config file mapping API keys to tenants, weights, priorities and quotas (\"\" = single-tenant)"`
	// Cluster is the nested cluster table; its zero value is single-node
	// mode, byte-for-byte the pre-cluster daemon.
	Cluster clusterOptions

	syncPolicy journal.Sync // JournalSync, parsed
	// Tenants, loaded from TenantsPath, enables multi-tenant auth and
	// admission; nil serves everything as the anonymous tenant with no
	// authentication.
	Tenants *tenantsFile
}

// server is the HTTP front end over a runner.Runner. It is an
// http.Handler, so tests drive it through httptest without a socket.
type server struct {
	cfg      serverConfig
	rn       *runner.Runner
	reg      *obs.Registry
	mux      *http.ServeMux
	started  time.Time
	draining atomic.Bool
	// jw is the run journal (nil when journalling is off), written from
	// onEvent.
	jw *journal.Writer
	// jerr holds a *journalErr boxing the last append's outcome, for
	// /healthz's journal component.
	jerr atomic.Value
	// cluster is the membership/placement/failover layer; nil when
	// clustering is off.
	cluster *clusterState
}

func newServer(cfg serverConfig) (*server, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	idPrefix := ""
	if cfg.Cluster.enabled() {
		// Node-name-prefixed run IDs are unique cluster-wide, so any node
		// can route "n2-run-0007" without coordination.
		idPrefix = cfg.Cluster.Node + "-"
	}
	reg := obs.NewRegistry()
	s := &server{
		cfg:     cfg,
		reg:     reg,
		started: time.Now(),
		mux:     http.NewServeMux(),
	}
	s.rn = runner.New(runner.Config{
		MaxConcurrent:  cfg.MaxConcurrent,
		QueueLimit:     cfg.QueueLimit,
		Retain:         cfg.RetainRuns,
		SampleInterval: cfg.SampleInterval,
		Metrics:        reg,
		Tenants:        cfg.Tenants.tenantConfig(),
		IDPrefix:       idPrefix,
		OnEvent:        s.onEvent,
		Watchdog: runner.WatchdogConfig{
			Interval:    cfg.Watchdog,
			CancelStuck: cfg.WatchdogCancel,
			OnStuck: func(id, label, diagnostic string) {
				log.Printf("loopschedd: run %s (%q) declared stuck:\n%s", id, label, diagnostic)
			},
		},
	})
	reg.Gauge("loopschedd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/runs/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("POST /v1/runs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /v1/runs/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	var placements []*placement
	if cfg.JournalPath != "" {
		// Read what the last process left, then open for appending, then
		// replay: the replayed submissions are not journaled again, and
		// their transitions — journaled from the first event on — append
		// after everything already in the file.
		recs, err := journal.ReadFile(cfg.JournalPath)
		if err != nil {
			log.Printf("loopschedd: journal %s has damaged records (replaying the intact ones): %v", cfg.JournalPath, err)
		}
		if s.jw, err = journal.Open(cfg.JournalPath, cfg.syncPolicy); err != nil {
			s.rn.Close()
			return nil, fmt.Errorf("loopschedd: open journal: %w", err)
		}
		placements = s.replayJournal(recs)
	}
	if cfg.Cluster.enabled() {
		c, err := newClusterState(s, cfg.Cluster)
		if err != nil {
			s.rn.Close()
			return nil, fmt.Errorf("loopschedd: %w", err)
		}
		s.cluster = c
		c.start(placements)
	} else if len(placements) > 0 {
		log.Printf("loopschedd: journal has %d placement(s) but clustering is off; ignoring them", len(placements))
	}
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cluster != nil {
		// Any call from a peer is evidence it is up; membership decides
		// whether that is news worth a probe.
		s.cluster.mem.Hello(r)
	}
	s.mux.ServeHTTP(w, r)
}

// load is this node's placement load: live runs, running or queued. It
// is both the figure /readyz reports to the peers and the one the
// node's own membership row carries, so the placement rule compares
// like with like.
func (s *server) load() int {
	st := s.rn.Stats()
	return st.Running + st.QueueDepth
}

// handleReady reports readiness: 200 while serving, 503 once draining,
// so a load balancer stops routing submissions before shutdown cuts
// live runs off. The load and draining headers ride every response —
// cluster peers probe this endpoint and read placement state off it
// even when the status is 503 (a draining node is alive and still
// serving its local runs; it just takes no new placements).
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(cluster.LoadHeader, strconv.Itoa(s.load()))
	if s.draining.Load() {
		w.Header().Set(cluster.DrainingHeader, "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// healthComponent is one subsystem's row in the /healthz body.
type healthComponent struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// healthResponse is the /healthz JSON body. The HTTP status keeps the
// bare liveness contract — 200 serving, 503 when a core component
// (journal writes, the run scheduler) is failing — so probes that only
// read the status code keep working; the body is for operators.
type healthResponse struct {
	OK         bool                       `json:"ok"`
	Components map[string]healthComponent `json:"components"`
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.rn.Stats()
	resp := healthResponse{OK: true, Components: map[string]healthComponent{}}

	sched := healthComponent{OK: true}
	if s.draining.Load() {
		sched.Detail = "draining"
	}
	resp.Components["scheduler"] = sched

	jc := healthComponent{OK: true}
	if s.jw == nil {
		jc.Detail = "disabled"
	} else if je, _ := s.jerr.Load().(*journalErr); je != nil && je.err != nil {
		// A failing journal means new submissions would not survive a
		// crash: the one condition worth failing liveness over.
		jc.OK = false
		jc.Detail = je.err.Error()
		resp.OK = false
	}
	resp.Components["journal"] = jc

	wd := healthComponent{OK: true}
	if s.cfg.Watchdog <= 0 {
		wd.Detail = "disabled"
	} else if st.Stalled > 0 {
		// Stuck runs degrade the report but not liveness: the daemon
		// itself is fine and the watchdog is doing its job.
		wd.Detail = fmt.Sprintf("%d stalled run(s)", st.Stalled)
	}
	resp.Components["watchdog"] = wd

	cl := healthComponent{OK: true}
	if s.cluster == nil {
		cl.Detail = "disabled"
	} else {
		// Up means answering: an unconfirmed or suspect peer is not.
		up, nodes := 0, s.cluster.mem.Nodes()
		for _, n := range nodes {
			if n.State == cluster.NodeAlive {
				up++
			}
		}
		cl.Detail = fmt.Sprintf("%d/%d node(s) up", up, len(nodes))
	}
	resp.Components["cluster"] = cl

	if !resp.OK {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

// close drains gracefully: stop accepting submissions, give live runs
// until ctx expires to finish on their own, then cancel the stragglers
// and wait briefly for them to unwind. Drain covers the event stream, so
// every terminal record is in the journal before it is flushed and
// closed: a clean shutdown loses none.
func (s *server) close(ctx context.Context) {
	s.draining.Store(true)
	if s.cluster != nil {
		// Stop probing and placement-polling first: a node shutting
		// itself down must not fail anything over, and peers will see
		// the draining flag on /readyz while the listener stays up.
		s.cluster.close()
	}
	if err := s.rn.Drain(ctx); err != nil {
		log.Printf("loopschedd: drain window expired, cancelling remaining runs")
	}
	s.rn.Close()
	grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.rn.Drain(grace)
	if s.jw != nil {
		if err := s.jw.Close(); err != nil {
			log.Printf("loopschedd: journal close: %v", err)
		}
	}
}
