// Command loopschedd serves scheduling runs over HTTP/JSON. It accepts
// mini-language programs, compiles them, and executes them concurrently
// on a runner.Runner, exposing each run's lifecycle, streaming progress
// and final result.
//
// Endpoints:
//
//	POST /v1/runs                submit {"program": "...", "options": {...},
//	                             "timeout": "30s", "label": "..."}
//	GET  /v1/runs                list the live and retained runs (progress
//	                             snapshots)
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
//	                             state, load and draining flag and the ms
//	                             since it last answered a probe, plus the
//	                             local placement count (404 when
//	                             clustering is off)
//	GET  /stats                  service census: queue depth, running/
//	                             done/failed/cancelled/stalled counts,
//	                             per-tenant rows, uptime
//	GET  /metrics                Prometheus text exposition: run outcome
//	                             counters, executor figures aggregated
//	                             over finished runs (iterations,
//	                             instances, searches, busy time, sync
//	                             accesses), per-tenant counters, live
//	                             queue gauges, uptime, and on a clustered
//	                             node the membership series (peer state,
//	                             probes by outcome, state transitions,
//	                             boot-to-converged seconds)
//
// Every /v1/runs/{id} route answers 410 Gone for a run this node finished
// and has since released — it keeps the newest -retain-runs outcomes —
// and 404 for an ID it never held.
//
// Every setting is one tagged field of serverConfig, spelled nowhere
// else; `loopschedd -h` and the README's daemon settings table (both
// generated from the tags) list each flag with its default and help.
//
// With -tenants FILE the daemon is multi-tenant: API keys ("Authorization:
// Bearer KEY" or "X-API-Key: KEY") map to tenants with scheduling
// weights, priority classes and admission quotas; an unknown key is a
// 401, a keyless request runs as the anonymous tenant (keyless dev
// mode), and a submission over quota is shed with 429 and a Retry-After
// whose value is advisory (a jittered 1..3 s: only its presence and
// positivity are API). With
// -node/-peers or -cluster FILE the daemon joins a static peer set whose
// nodes serve one API: any node accepts a submission and runs it itself
// unless a live peer is strictly less loaded, proxies for runs it does
// not own, and re-places a dead node's runs from their last journaled
// snapshot. README.md's
// "Multi-tenant serving" and "Cluster serving" and DESIGN.md §15 hold
// the full contracts.
//
// Example:
//
//	loopschedd -addr :8080 -max-concurrent 4 -tenants tenants.json &
//	curl -s localhost:8080/v1/runs -H 'Authorization: Bearer secret-1' \
//	     -d '{"program":"doall I = 1..2000 { work 100 }","options":{"procs":8,"scheme":"gss"}}'
//	curl -s localhost:8080/v1/runs/run-0001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"reflect"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/flagtab"
	"repro/internal/journal"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run binds the settings table to args, resolves it, listens and serves
// until SIGINT or SIGTERM has drained the server. Usage and flag errors
// are written to stderr.
func run(args []string, stderr io.Writer) error {
	var cfg serverConfig
	fs := flag.NewFlagSet("loopschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flagtab.Bind(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cfg.resolve(); err != nil {
		return err
	}
	// Listen before the server exists: a clustered node's first probes
	// are its hello, and the peers that probe straight back must find the
	// socket open (their connections wait in the backlog until Serve).
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	srv, err := newServer(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("loopschedd draining (up to %v)", cfg.DrainTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
		defer cancel()
		// Drain while the listener is still up so /readyz reports 503 and
		// probes can watch the drain; only then close the listener.
		srv.close(shutdownCtx)
		httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("loopschedd listening on %s (max-concurrent %d)", cfg.Addr, cfg.MaxConcurrent)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	log.Printf("loopschedd drained, exiting")
	return nil
}

// resolve holds every relation between settings and derives the
// untagged fields from the tagged ones. newServer runs it, so the flag
// path and a config built in code share it; running it twice changes
// nothing.
func (c *serverConfig) resolve() error {
	var err error
	flagtab.Walk(c, func(name string, _ reflect.StructTag, v reflect.Value) {
		if err == nil && v.CanInt() && v.Int() < 0 {
			err = fmt.Errorf("loopschedd: -%s must not be negative (got %v)", name, v.Interface())
		}
	})
	if err != nil {
		return err
	}
	// Neither has a meaning at zero, which is what a config built in code
	// leaves them, so zero takes the table's default.
	var def serverConfig
	flagtab.Bind(flag.NewFlagSet("", flag.ContinueOnError), &def)
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = def.MaxBodyBytes
	}
	if c.JournalSync == "" {
		c.JournalSync = def.JournalSync
	}
	if c.syncPolicy, err = journal.ParseSync(c.JournalSync); err != nil {
		return err
	}
	if c.Tenants == nil && c.TenantsPath != "" {
		if c.Tenants, err = loadTenants(c.TenantsPath); err != nil {
			return err
		}
	}
	return c.Cluster.resolve()
}

// resolve derives Peers from -cluster FILE or -node/-peers, the two
// alternatives: the file carries the peer set (and a default self and
// secret), the flags carry them inline. No cluster setting at all is
// single-node mode.
func (o *clusterOptions) resolve() error {
	switch {
	case o.File != "" && o.PeerList != "":
		return errors.New("loopschedd: -cluster and -peers are mutually exclusive")
	case o.Peers != nil:
		// Resolved already, or set in code.
	case o.File != "":
		f, ps, err := cluster.LoadFile(o.File)
		if err != nil {
			return fmt.Errorf("loopschedd: %w", err)
		}
		o.Peers = ps
		if o.Node == "" {
			o.Node = f.Self
		}
		if o.Node == "" {
			return fmt.Errorf("loopschedd: cluster config %s has no self; pass -node", o.File)
		}
		if o.Secret == "" {
			o.Secret = f.Secret
		}
	case o.PeerList != "":
		if o.Node == "" {
			return errors.New("loopschedd: -peers needs -node")
		}
		ps, err := cluster.ParsePeers(o.PeerList)
		if err != nil {
			return fmt.Errorf("loopschedd: %w", err)
		}
		o.Peers = ps
	case o.Node != "":
		return errors.New("loopschedd: -node needs -peers or -cluster")
	}
	if o.enabled() && o.Secret == "" {
		return errors.New("loopschedd: clustering needs a shared secret (-cluster-secret, or \"secret\" in the cluster file): peers authenticate intra-cluster calls with it")
	}
	return nil
}
