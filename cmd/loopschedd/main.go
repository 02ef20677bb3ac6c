// Command loopschedd serves scheduling runs over HTTP/JSON. It accepts
// mini-language programs, compiles them, and executes them concurrently
// on a runner.Runner, exposing each run's lifecycle, streaming progress
// and final result.
//
// Endpoints:
//
//	POST /v1/runs                submit {"program": "...", "options": {...},
//	                             "timeout": "30s", "label": "..."}
//	GET  /v1/runs                list all runs (progress snapshots)
//	GET  /v1/runs/{id}           one run's status, with the result once done
//	GET  /v1/runs/{id}/progress  NDJSON stream of progress until terminal
//	POST /v1/runs/{id}/cancel    request cancellation
//	POST /v1/runs/{id}/checkpoint pause a checkpointable run; fetch the
//	                             snapshot from GET /v1/runs/{id} once its
//	                             state is "checkpointed", resume it by
//	                             submitting with options.resume
//	GET  /healthz                liveness: 200 serving, 503 when a core
//	                             component (journal appends) is failing;
//	                             the JSON body itemizes scheduler,
//	                             journal, watchdog and cluster state for
//	                             operators
//	GET  /readyz                 readiness: 503 once the server is
//	                             draining for shutdown; every response
//	                             carries the node's load (and draining
//	                             flag) in headers for cluster probes
//	GET  /v1/cluster             membership view: every node's observed
//	                             state, load and draining flag, the
//	                             breaker to it and the ms since it last
//	                             answered a probe, plus the local
//	                             placement count (404 when clustering is
//	                             off)
//	GET  /stats                  service census: queue depth, running/
//	                             done/failed/cancelled/stalled counts,
//	                             per-tenant rows, uptime
//	GET  /metrics                Prometheus text exposition: run outcome
//	                             counters, executor figures aggregated
//	                             over finished runs (iterations,
//	                             instances, searches, busy time, sync
//	                             accesses), per-tenant counters, live
//	                             queue gauges, uptime, and on a clustered
//	                             node the membership series (peer and
//	                             breaker state, probes by outcome, state
//	                             transitions, boot-to-converged seconds)
//
// With -journal FILE the daemon appends every submission and lifecycle
// transition to a durable append-only journal; on the next boot, runs
// whose last record is not terminal are re-queued under their original
// IDs. -journal-sync picks the fsync policy (always|close|none).
//
// With -tenants FILE the daemon becomes multi-tenant: the file declares
// tenants (scheduling weight, priority class, admission quotas) and the
// API keys that map to them. Submissions authenticate with
// "Authorization: Bearer KEY" or "X-API-Key: KEY"; an unknown key is
// rejected with 401, a missing key runs as the anonymous tenant (keyless
// dev mode). A submission over its tenant's quota is shed with 429 and
// a Retry-After header; the header's value is advisory — a small
// jittered delay in whole seconds (currently 1..3, so synchronized
// clients spread their retries) — and only its presence and positivity
// are API. -scheduler picks the dispatch policy: fifo (strict
// submission order, the default) or wfq (weighted-fair across tenants
// with priority preemption).
//
// With -node/-peers (or -cluster FILE) the daemon joins a static peer
// set and the nodes serve one API: any node accepts a submission,
// places it on the least-loaded live node, and proxies polls, progress
// streams and cancels for runs it does not own (run IDs are node-
// prefixed, so any node routes them without coordination). Clustering
// requires a shared secret (-cluster-secret, or "secret" in the
// cluster file): peers and clients share one listener, so intra-
// cluster calls — which may carry a resolved tenant and a caller-
// chosen run ID — authenticate with the secret, and a request missing
// it is treated as an ordinary client. Placement forwards are
// idempotent: the placing node mints the run ID and resends it on
// every retry, so a forward whose first attempt timed out after the
// owner created the run dedupes (409) instead of executing twice.
// Data
// calls between nodes go through a hardened RPC client — per-attempt
// deadlines (-rpc-timeout), bounded retries with exponential backoff
// and jitter, and a per-peer circuit breaker. Membership converges on
// evidence: a node probes every peer's /readyz the moment it boots, a
// peer that receives a call from a node it does not hold alive probes
// it straight back, and a silent peer is re-probed on a short backoff —
// so a cluster is placeable one round trip after its last listener is
// up. Death is judged on the -probe-interval grid alone: a peer is
// declared dead once -dead-after interval-spaced probes in a row have
// met silence (an HTTP answer of any status is not silence, and neither
// a shed call nor an out-of-cycle probe counts), and every run placed
// on it is then re-placed on a survivor, resuming from its last
// journaled snapshot (clustered submissions snapshot every
// -checkpoint-every chunk claims). A partitioned or draining node
// degrades gracefully: it keeps serving the runs it owns and runs new
// submissions locally instead of failing them. Pair clustering with
// -journal: placements and snapshots are journaled alongside run
// records, so a rebooted node re-adopts the runs it placed. With no
// cluster flags the daemon is byte-for-byte the single-node server.
//
// Example:
//
//	loopschedd -addr :8080 -max-concurrent 4 -scheduler wfq -tenants tenants.json &
//	curl -s localhost:8080/v1/runs -H 'Authorization: Bearer secret-1' \
//	     -d '{"program":"doall I = 1..2000 { work 100 }","options":{"procs":8,"scheme":"gss"}}'
//	curl -s localhost:8080/v1/runs/run-0001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/runner"
)

// clusterFlags folds the cluster flags into clusterOptions. -cluster
// FILE and -node/-peers are alternatives: the file carries the peer
// set (and a default self and secret), the flags carry them inline.
// No cluster flags at all is single-node mode.
func clusterFlags(node, peers, path, secret string, probe, rpcTimeout time.Duration, deadAfter int, every int64) (clusterOptions, error) {
	opts := clusterOptions{
		Node:            node,
		Secret:          secret,
		ProbeInterval:   probe,
		RPCTimeout:      rpcTimeout,
		DeadAfter:       deadAfter,
		CheckpointEvery: every,
	}
	switch {
	case path != "":
		if peers != "" {
			return clusterOptions{}, errors.New("loopschedd: -cluster and -peers are mutually exclusive")
		}
		f, ps, err := cluster.LoadFile(path)
		if err != nil {
			return clusterOptions{}, fmt.Errorf("loopschedd: %w", err)
		}
		opts.Peers = ps
		if opts.Node == "" {
			opts.Node = f.Self
		}
		if opts.Node == "" {
			return clusterOptions{}, fmt.Errorf("loopschedd: cluster config %s has no self; pass -node", path)
		}
		if opts.Secret == "" {
			opts.Secret = f.Secret
		}
	case peers != "":
		if node == "" {
			return clusterOptions{}, errors.New("loopschedd: -peers needs -node")
		}
		ps, err := cluster.ParsePeers(peers)
		if err != nil {
			return clusterOptions{}, fmt.Errorf("loopschedd: %w", err)
		}
		opts.Peers = ps
	case node != "":
		return clusterOptions{}, errors.New("loopschedd: -node needs -peers or -cluster")
	default:
		return clusterOptions{}, nil
	}
	if opts.Secret == "" {
		return clusterOptions{}, errors.New("loopschedd: clustering needs a shared secret (-cluster-secret, or \"secret\" in the cluster file): peers authenticate intra-cluster calls with it")
	}
	return opts, nil
}

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		maxConcurrent   = flag.Int("max-concurrent", 4, "maximum runs executing at once")
		queueLimit      = flag.Int("queue-limit", 64, "maximum queued runs (0 = unbounded)")
		sample          = flag.Duration("sample", 200*time.Millisecond, "progress sampling interval")
		defaultTimeout  = flag.Duration("default-timeout", 0, "timeout applied to runs that specify none (0 = none)")
		maxBodyBytes    = flag.Int64("max-body-bytes", 1<<20, "maximum request body size in bytes")
		watchdog        = flag.Duration("watchdog", 0, "declare a run stuck after this long without scheduling progress (0 = off)")
		watchdogCancel  = flag.Bool("watchdog-cancel", false, "cancel runs the watchdog declares stuck")
		drainTimeout    = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for live runs to finish before cancelling them")
		journalPath     = flag.String("journal", "", "durable run journal file; on boot, non-terminal runs are re-queued from it (\"\" = no journal)")
		journalSync     = flag.String("journal-sync", "always", "journal fsync policy: always, close or none")
		scheduler       = flag.String("scheduler", "fifo", "dispatch policy: "+strings.Join(runner.SchedulerNames(), " or "))
		tenantsPath     = flag.String("tenants", "", "tenant config file mapping API keys to tenants, weights, priorities and quotas (\"\" = single-tenant)")
		node            = flag.String("node", "", "this node's name in the cluster peer set (\"\" = single-node mode)")
		peers           = flag.String("peers", "", "static cluster peer set as name=url,name=url (self included)")
		clusterPath     = flag.String("cluster", "", "cluster config file: {\"self\": \"n1\", \"secret\": \"...\", \"peers\": {\"n1\": \"http://...\", ...}} (alternative to -node/-peers)")
		clusterSecret   = flag.String("cluster-secret", "", "shared secret authenticating intra-cluster calls (required with -peers; overrides the cluster file's)")
		probeInterval   = flag.Duration("probe-interval", 500*time.Millisecond, "spacing of the cluster health probes that count toward -dead-after (each probe's deadline is at most this)")
		rpcTimeout      = flag.Duration("rpc-timeout", 2*time.Second, "per-attempt deadline on intra-cluster requests")
		deadAfter       = flag.Int("dead-after", 3, "interval-spaced probes that met silence, in a row, before a peer is declared dead and failed over")
		checkpointEvery = flag.Int64("checkpoint-every", 0, "default periodic-snapshot period (chunk claims) applied to clustered submissions; 0 = snapshots only when a submission asks")
	)
	flag.Parse()

	clusterOpts, err := clusterFlags(*node, *peers, *clusterPath, *clusterSecret, *probeInterval, *rpcTimeout, *deadAfter, *checkpointEvery)
	if err != nil {
		log.Fatal(err)
	}

	syncPolicy, err := journal.ParseSync(*journalSync)
	if err != nil {
		log.Fatal(err)
	}
	var tenants *tenantsFile
	if *tenantsPath != "" {
		if tenants, err = loadTenants(*tenantsPath); err != nil {
			log.Fatal(err)
		}
	}
	// Listen before the server exists: a clustered node's first probes
	// are its hello, and the peers that probe straight back must find the
	// socket open (their connections wait in the backlog until Serve).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := newServer(serverConfig{
		MaxConcurrent:  *maxConcurrent,
		QueueLimit:     *queueLimit,
		SampleInterval: *sample,
		DefaultTimeout: *defaultTimeout,
		MaxBodyBytes:   *maxBodyBytes,
		Watchdog:       *watchdog,
		WatchdogCancel: *watchdogCancel,
		JournalPath:    *journalPath,
		JournalSync:    syncPolicy,
		Scheduler:      *scheduler,
		Tenants:        tenants,
		Cluster:        clusterOpts,
	})
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("loopschedd draining (up to %v)", *drainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Drain while the listener is still up so /readyz reports 503 and
		// probes can watch the drain; only then close the listener.
		srv.close(shutdownCtx)
		httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("loopschedd listening on %s (max-concurrent %d, scheduler %s)", *addr, *maxConcurrent, *scheduler)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	log.Printf("loopschedd drained, exiting")
}
