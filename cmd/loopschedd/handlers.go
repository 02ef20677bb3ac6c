package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/runner"
)

// Wire types.

type submitRequest struct {
	// Program is mini-language source (see internal/lang).
	Program string     `json:"program"`
	Label   string     `json:"label,omitempty"`
	Timeout string     `json:"timeout,omitempty"` // Go duration string
	Options runOptions `json:"options"`
	// ID is intra-cluster only: a failover restore re-creates the run on
	// a survivor under its original cluster-wide ID. External
	// submissions must not set it (400) — IDs are owner-assigned.
	ID string `json:"id,omitempty"`
}

// runOptions is the wire form of a run's options: the repro.Options
// table (its json tags are the wire names) plus the two settings that
// belong to the daemon rather than to one RunContext call.
type runOptions struct {
	repro.Options
	// Coalesce compiles the program with implicit loop coalescing.
	Coalesce bool `json:"coalesce,omitempty"`
	// CheckpointEvery runs the program as a chain of legs, parking a
	// durable snapshot every that-many chunk claims — the failover
	// restore points. A clustered daemon started with -checkpoint-every
	// applies that default to submissions that leave it zero.
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
}

// runStatus is a progress snapshot plus, for a finished run, the result
// — or, for a checkpointed run, the resumable checkpoint.
type runStatus struct {
	runner.Progress
	Result     *runResult        `json:"result,omitempty"`
	Checkpoint *repro.Checkpoint `json:"checkpoint,omitempty"`
}

type runResult struct {
	Makespan    int64         `json:"makespan"`
	Utilization float64       `json:"utilization"`
	Scheme      string        `json:"scheme"`
	Procs       int           `json:"procs"`
	Busy        []int64       `json:"busy"`
	Stats       core.Snapshot `json:"stats"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Valid lists acceptable values when the error is a typed option
	// error (unknown engine/pool, bad scheme) and the option names when
	// the body named a field that does not exist.
	Valid []string `json:"valid,omitempty"`
}

var errUnknownField = errors.New("unknown field")

// optionNames lists the wire names a submission's "options" accepts,
// read off the struct the decoder fills.
func optionNames() []string {
	var names []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(runOptions{})) {
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" && name != "-" {
			names = append(names, name)
		}
	}
	return names
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	tenant, err := s.resolveTenant(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	var req submitRequest
	// A mistyped option name must not run with defaults: unknown fields
	// are an error here (journal replay stays lenient — an old journal
	// must always replay).
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body over %d bytes", tooBig.Limit))
			return
		}
		// encoding/json has no typed error for this one.
		if name, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
			err = fmt.Errorf("%w %s", errUnknownField, name)
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	internal := s.isInternal(r)
	if req.ID != "" && !internal {
		writeError(w, http.StatusBadRequest, errors.New("run IDs are server-assigned"))
		return
	}
	sub, err := s.buildSubmission(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// External submissions on a clustered node go to the least-loaded
	// live node; this node runs them itself when it is that node, when
	// no peer is placeable, or when the forward fails (a partitioned
	// node degrades to serving locally rather than erroring). Internal
	// submissions are already placed — forwarding them again could
	// ping-pong.
	if !internal && s.cluster != nil && s.cluster.trySubmitRemote(w, req, tenant) {
		return
	}
	sub.ID, sub.Tenant, sub.Record = req.ID, tenant, req.record(tenant)
	run, err := s.rn.Submit(sub)
	if err != nil {
		status := statusFor(err)
		if status == http.StatusTooManyRequests {
			// The backlog drains continuously; a short pause is the right
			// client response to load shedding. The advisory delay is
			// jittered over 1..3s so a burst of shed clients does not
			// come back as one synchronized wave (the exact value is not
			// part of the API contract — only that the header is present
			// and positive).
			w.Header().Set("Retry-After", strconv.Itoa(1+rand.IntN(3)))
		}
		writeError(w, status, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, runStatus{Progress: run.Progress()})
}

// record is the journal's form of the request: what replay and failover
// re-create the submission from.
func (req submitRequest) record(tenant string) *journalSubmit {
	return &journalSubmit{
		Program: req.Program,
		Label:   req.Label,
		Tenant:  tenant,
		Timeout: req.Timeout,
		Options: req.Options,
	}
}

// submitPlaced re-creates a placed run locally under its original ID —
// the failover path's local restore.
func (s *server) submitPlaced(req submitRequest, tenant string) error {
	sub, err := s.buildSubmission(req)
	if err != nil {
		return err
	}
	sub.ID, sub.Tenant, sub.Record = req.ID, tenant, req.record(tenant)
	_, err = s.rn.Submit(sub)
	return err
}

// buildSubmission turns a wire submission into a runner submission; the
// boot-time journal replay reuses it so replayed runs go through exactly
// the fresh-request path. The tenant is not part of the wire body — the
// submit path resolves it from the request's credentials, the replay
// path restores it from the journal record.
func (s *server) buildSubmission(req submitRequest) (runner.Submission, error) {
	if req.Program == "" {
		return runner.Submission{}, errors.New("missing program")
	}
	nest, err := lang.Parse(req.Program)
	if err != nil {
		return runner.Submission{}, fmt.Errorf("parse program: %w", err)
	}
	var copts []repro.CompileOption
	if req.Options.Coalesce {
		copts = append(copts, repro.WithCoalescing())
	}
	prog, err := repro.Compile(nest, copts...)
	if err != nil {
		return runner.Submission{}, fmt.Errorf("compile program: %w", err)
	}
	timeout := s.cfg.DefaultTimeout
	if req.Timeout != "" {
		if timeout, err = time.ParseDuration(req.Timeout); err != nil {
			return runner.Submission{}, fmt.Errorf("bad timeout: %w", err)
		}
	}
	every := req.Options.CheckpointEvery
	if every < 0 {
		return runner.Submission{}, errors.New("checkpoint_every must be non-negative")
	}
	if every == 0 && s.cfg.Cluster.enabled() {
		// Clustered nodes default every run to periodic snapshots: without
		// them, failover can only restart a lost run from scratch.
		every = s.cfg.Cluster.CheckpointEvery
	}
	return runner.Submission{
		Program:         prog,
		Options:         req.Options.Options,
		Timeout:         timeout,
		Label:           req.Label,
		CheckpointEvery: every,
	}, nil
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	runs := s.rn.Runs()
	out := make([]runner.Progress, len(runs))
	for i, run := range runs {
		out[i] = run.Progress()
	}
	writeJSON(w, out)
}

// localRun resolves the request's {id} to a run on this node. When
// there is none it lets proxy answer for a run another node owns — except
// for internal requests, which never re-proxy: a forwarding loop between
// two nodes that both miss would otherwise bounce until a deadline — and
// failing that answers 404.
func (s *server) localRun(w http.ResponseWriter, r *http.Request, proxy func(id string) bool) (*runner.Run, bool) {
	id := r.PathValue("id")
	run, ok := s.rn.Get(id)
	if !ok && (s.cluster == nil || s.isInternal(r) || !proxy(id)) {
		writeError(w, http.StatusNotFound, errors.New("no such run"))
	}
	return run, ok
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	run, ok := s.localRun(w, r, func(id string) bool { return s.cluster.proxyGet(w, r, id) })
	if !ok {
		return
	}
	st := runStatus{Progress: run.Progress()}
	if res, err := run.Result(); err == nil {
		st.Result = &runResult{
			Makespan:    res.Makespan,
			Utilization: res.Utilization,
			Scheme:      res.SchemeName,
			Procs:       res.Procs,
			Busy:        res.Busy,
			Stats:       res.Stats,
		}
	}
	st.Checkpoint = run.Checkpoint()
	writeJSON(w, st)
}

// handleProgress streams NDJSON progress snapshots until the run is
// terminal or the client goes away.
func (s *server) handleProgress(w http.ResponseWriter, r *http.Request) {
	run, ok := s.localRun(w, r, func(id string) bool { return s.cluster.proxyProgress(w, r, id) })
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for p := range run.Watch(r.Context()) {
		if enc.Encode(p) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// statsResponse is the /stats body: the run-manager census plus
// per-tenant rows and service-level figures.
type statsResponse struct {
	runner.Stats
	Tenants  []runner.TenantStats `json:"tenants,omitempty"`
	UptimeNS int64                `json:"uptime_ns"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statsResponse{
		Stats:    s.rn.Stats(),
		Tenants:  s.rn.TenantStats(),
		UptimeNS: time.Since(s.started).Nanoseconds(),
	})
}

// handleMetrics renders the service registry in the Prometheus text
// exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	s.reg.WriteProm(&sb)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, sb.String())
}

// handleCheckpoint asks a running checkpointable run to pause and
// capture a snapshot. The pause completes asynchronously: poll the run
// (or its progress stream) for state "checkpointed", then read the
// checkpoint from GET /v1/runs/{id}.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	run, ok := s.localRun(w, r, func(id string) bool { return s.cluster.proxyPost(w, r, id, "checkpoint") })
	if !ok {
		return
	}
	if !run.RequestCheckpoint() {
		writeError(w, http.StatusConflict,
			errors.New("run is not checkpointable (submit with options.checkpointable) or not running"))
		return
	}
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, runStatus{Progress: run.Progress()})
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := s.localRun(w, r, func(id string) bool { return s.cluster.proxyPost(w, r, id, "cancel") })
	if !ok {
		return
	}
	run.Cancel()
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, runStatus{Progress: run.Progress()})
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, runner.ErrQueueFull),
		errors.Is(err, runner.ErrTenantQueueFull),
		errors.Is(err, runner.ErrTenantInflight):
		return http.StatusTooManyRequests
	case errors.Is(err, runner.ErrDuplicateID):
		// Only cluster-internal submissions can carry an ID, and the
		// placer mints unique ones — a duplicate is a retried forward
		// whose earlier attempt landed, so 409 tells the placer the run
		// already exists rather than 400 "bad request".
		return http.StatusConflict
	case errors.Is(err, runner.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	switch {
	case errors.Is(err, repro.ErrBadScheme):
		resp.Valid = repro.KnownSchemes()
	case errors.Is(err, repro.ErrUnknownEngine):
		resp.Valid = repro.KnownEngines()
	case errors.Is(err, repro.ErrUnknownPool):
		resp.Valid = repro.KnownPools()
	case errors.Is(err, repro.ErrBadFailure):
		resp.Valid = repro.KnownFailurePolicies()
	case errors.Is(err, errUnknownField):
		resp.Valid = optionNames()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
