package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/runner"
)

type serverConfig struct {
	MaxConcurrent  int
	QueueLimit     int
	SampleInterval time.Duration
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request body sizes; 0 applies the 1 MiB default.
	MaxBodyBytes int64
	// Watchdog declares a run stuck after this long without scheduling
	// progress; 0 disables the watchdog.
	Watchdog time.Duration
	// WatchdogCancel cancels runs the watchdog declares stuck.
	WatchdogCancel bool
	// JournalPath is the durable run journal file; "" disables
	// journalling. On boot the journal is replayed and every run without
	// a terminal record is re-queued under its original ID.
	JournalPath string
	// JournalSync is the journal's fsync policy.
	JournalSync journal.Sync
	// Scheduler is the dispatch policy name ("" or "fifo" for strict
	// submission order, "wfq" for weighted-fair queueing across tenants).
	Scheduler string
	// Tenants enables multi-tenant auth and admission; nil serves
	// everything as the anonymous tenant with no authentication.
	Tenants *tenantsFile
	// Cluster joins this daemon to a static peer set; the zero value is
	// single-node mode, byte-for-byte the pre-cluster daemon.
	Cluster clusterOptions
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
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	// Validate the policy name here, where it arrives from a flag:
	// runner.New treats an unknown scheduler as a programming error.
	if names := runner.SchedulerNames(); cfg.Scheduler != "" && !slices.Contains(names, cfg.Scheduler) {
		return nil, fmt.Errorf("loopschedd: unknown scheduler %q (known: %s)", cfg.Scheduler, strings.Join(names, ", "))
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
		SampleInterval: cfg.SampleInterval,
		Metrics:        reg,
		Scheduler:      cfg.Scheduler,
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
		if s.jw, err = journal.Open(cfg.JournalPath, cfg.JournalSync); err != nil {
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

// handleReady reports readiness: 200 while serving, 503 once draining,
// so a load balancer stops routing submissions before shutdown cuts
// live runs off. The load and draining headers ride every response —
// cluster peers probe this endpoint and read placement state off it
// even when the status is 503 (a draining node is alive and still
// serving its local runs; it just takes no new placements).
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	st := s.rn.Stats()
	w.Header().Set(cluster.LoadHeader, strconv.Itoa(st.Running+st.QueueDepth))
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
