package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/lang"
	"repro/internal/refexec"
)

//go:embed programs/*.loop
var programFS embed.FS

// programNames is the cycle of served sources: the paper's Fig. 1 nest,
// a Doacross pipeline, the cheapest possible run and a triangular nest —
// four different instance/iteration shapes, each a fraction of a
// millisecond on the virtual engine, so the serving layers dominate.
var programNames = []string{"fig1", "pipeline", "flat64", "tri16"}

const (
	serveProcs = 4 // virtual processors per served run
	opTimeout  = 10 * time.Second
)

// program is one served source with its request body and oracle count.
type program struct {
	name, src string
	body      []byte // the POST /v1/runs request
	prog      *repro.Program
	iters     int64 // leaf iterations the sequential oracle executes
}

// loadPrograms parses and compiles the served sources and runs each once
// in process with Verify, so every served answer has an oracle.
func loadPrograms() ([]program, error) {
	progs := make([]program, len(programNames))
	for i, name := range programNames {
		src, err := programFS.ReadFile("programs/" + name + ".loop")
		if err != nil {
			return nil, err
		}
		p := program{name: name, src: string(src)}
		nest, err := lang.Parse(p.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if p.prog, err = repro.Compile(nest); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ref, err := refexec.Run(p.prog.StdNest())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res, err := p.prog.Run(repro.Options{Procs: serveProcs, Verify: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if res.Stats.Iterations != ref.Iterations {
			return nil, fmt.Errorf("%s: ran %d iterations, oracle says %d", name, res.Stats.Iterations, ref.Iterations)
		}
		p.iters = ref.Iterations
		p.body, err = json.Marshal(map[string]any{
			"program": p.src,
			"options": map[string]any{"procs": serveProcs},
		})
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// runStatus is the part of a loopschedd status body an op checks.
type runStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Stats struct{ Iterations int64 }
	} `json:"result"`
}

// serve drives real loopschedd children over loopback HTTP from one
// closed-loop connection; op = one run from submit to checked result,
// unit = run.
//
// serve_durable is one daemon with a journal fsynced on every append;
// the op follows the run on its NDJSON progress stream and then fetches
// the result. serve_cluster3 is three journal-less daemons; the entry
// node round-robins n1→n2→n3 and the op polls the entry node's status
// until terminal (a proxied progress stream sleeps one -sample interval
// whenever its first fetch is not terminal; that stall is the per-layer
// metric cluster.stream_stall_share, not part of the op).
type serve struct {
	clustered bool
	sz        sizing
	order     []int // the seed's permutation of the program cycle
	dir       string
	hc        *http.Client

	bin      string
	progs    []program
	nodes    []*daemon
	journal  string
	replayMs float64

	// Counts since baseline().
	ops, forwarded, polls int
	base                  struct {
		rssKB, records, journalBytes int64
		readyzMs                     float64
	}
}

// newServe also builds loopschedd: once, before anything is timed.
func newServe(name string, seed int64, sz sizing) (*serve, error) {
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	return &serve{
		bin:       bin,
		clustered: name == "serve_cluster3",
		sz:        sz,
		order:     rng.Perm(len(programNames)),
		dir:       filepath.Join(outDir, name),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
	}, nil
}

// setUp verifies the programs in process, boots the
// system and serves checked runs through it. For serve_durable those
// runs seed the journal, the daemon is SIGTERMed, the journal it leaves
// must account for every seeded run, and the daemon is rebooted on it —
// so draining and boot replay are inside setup_s.
func (s *serve) setUp() (err error) {
	if s.progs, err = loadPrograms(); err != nil {
		return err
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	if s.clustered {
		return s.setUpCluster()
	}
	return s.setUpDurable()
}

func (s *serve) setUpDurable() error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	s.journal = filepath.Join(s.dir, "journal")
	boot := func() error {
		d, err := startDaemon(s.bin, "n1", addr, filepath.Join(s.dir, "n1.log"),
			"-journal", s.journal, "-journal-sync", "always")
		if err != nil {
			return err
		}
		s.nodes = []*daemon{d}
		return nil
	}
	if err := boot(); err != nil {
		return err
	}
	if err := s.serveChecked(s.sz.seedRuns); err != nil {
		return err
	}
	s.nodes[0].terminate(15 * time.Second)
	s.nodes = nil
	s.hc.CloseIdleConnections()
	if err := s.checkJournal(s.sz.seedRuns); err != nil {
		return err
	}
	t0 := time.Now()
	if err := boot(); err != nil {
		return err
	}
	s.replayMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	return s.serveChecked(3)
}

// checkJournal reads the journal the drained daemon left and requires a
// submit record and a terminal record saying "done" for each of the runs
// served. (A start record is not required: the daemon's watcher skips it
// when a run has finished before the watcher looks, which is why
// journal.records_per_op is a little under 3.)
func (s *serve) checkJournal(runs int) error {
	const kindSubmit, kindTerminal = 1, 3 // loopschedd's record kinds
	recs, err := journal.ReadFile(s.journal)
	if err != nil {
		return err
	}
	submits, done := 0, 0
	for _, rec := range recs {
		switch rec.Kind {
		case kindSubmit:
			submits++
		case kindTerminal:
			var term struct{ State string }
			if err := json.Unmarshal(rec.Data, &term); err != nil {
				return fmt.Errorf("journal: terminal record of %s: %w", rec.ID, err)
			}
			if term.State == "done" {
				done++
			}
		}
	}
	if submits != runs || done != runs {
		return fmt.Errorf("journal holds %d submit and %d done records after %d runs", submits, done, runs)
	}
	return nil
}

func (s *serve) setUpCluster() error {
	names := []string{"n1", "n2", "n3"}
	addrs := make([]string, len(names))
	peers := make([]string, len(names))
	for i, n := range names {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		addrs[i], peers[i] = addr, n+"=http://"+addr
	}
	for i, n := range names {
		d, err := startDaemon(s.bin, n, addrs[i], filepath.Join(s.dir, n+".log"),
			"-node", n, "-peers", strings.Join(peers, ","), "-cluster-secret", "bench")
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, d)
	}
	// Membership converges by probing; wait for the fact, not for a time.
	deadline := time.Now().Add(15 * time.Second)
	for _, d := range s.nodes {
		for {
			info, err := s.clusterInfo(d)
			if err == nil && info.placeable() == len(s.nodes) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s does not see %d placeable nodes after 15s (last: %+v, %v)", d.base, len(s.nodes), info, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return s.serveChecked(s.sz.warmRuns)
}

// serveChecked runs n ops outside any measurement; one failure fails set-up.
func (s *serve) serveChecked(n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.op(i, nil, -1); err != nil {
			return fmt.Errorf("run %d of %d before measuring: %w", i, n, err)
		}
	}
	return nil
}

// verify has nothing left to do: loadPrograms verified every program in
// process and every served answer was checked against it.
func (s *serve) verify() error { return nil }

// tearDown kills the children and deletes their journals and logs.
func (s *serve) tearDown() {
	for _, d := range s.nodes {
		d.kill()
	}
	s.nodes = nil
	_ = os.RemoveAll(s.dir) // leftovers are ignored by git and removed by the next set-up
}

func (s *serve) pids() []int {
	pids := make([]int, len(s.nodes))
	for i, d := range s.nodes {
		pids[i] = d.pid()
	}
	return pids
}

// call does one HTTP request on the keep-alive connection and reads the
// whole answer (a progress stream ends when the run is terminal).
func (s *serve) call(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func terminal(state string) bool {
	switch state {
	case "done", "failed", "cancelled", "checkpointed":
		return true
	}
	return false
}

func (s *serve) op(i int, tr *tracer, parent int) (int64, error) {
	return s.opVia(i, i%len(s.nodes), !s.clustered, tr, parent)
}

// opVia submits program i of the cycle to the entry node, waits for the
// run to be terminal — on the progress stream or by polling the status —
// and checks the fetched result against the oracle. A refused, failed,
// timed-out or wrong answer is an error.
func (s *serve) opVia(i, entry int, stream bool, tr *tracer, parent int) (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	p := &s.progs[s.order[i%len(s.order)]]
	node := s.nodes[entry]
	base := node.base
	s.ops++

	sp := tr.begin("client.submit", parent, i)
	code, data, err := s.call(ctx, http.MethodPost, base+"/v1/runs", p.body)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	var st runStatus
	if code != http.StatusCreated {
		return 0, fmt.Errorf("submit %s: status %d: %s", p.name, code, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, fmt.Errorf("submit %s: %w", p.name, err)
	}
	url := base + "/v1/runs/" + st.ID
	if s.clustered && !strings.HasPrefix(st.ID, node.name+"-") {
		s.forwarded++
	}

	if stream {
		sp = tr.begin("client.wait", parent, i)
		code, data, err = s.call(ctx, http.MethodGet, url+"/progress", nil)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		if code != http.StatusOK {
			return 0, fmt.Errorf("progress %s: status %d: %s", st.ID, code, bytes.TrimSpace(data))
		}
	}
	for {
		sp = tr.begin("client.wait", parent, i)
		code, data, err = s.call(ctx, http.MethodGet, url, nil)
		tr.end(sp)
		s.polls++
		if err != nil {
			return 0, err
		}
		if code != http.StatusOK {
			return 0, fmt.Errorf("status %s: status %d: %s", st.ID, code, bytes.TrimSpace(data))
		}
		st = runStatus{}
		if err := json.Unmarshal(data, &st); err != nil {
			return 0, fmt.Errorf("status %s: %w", url, err)
		}
		if terminal(st.State) {
			tr.rename(sp, "client.fetch")
			break
		}
		if stream {
			return 0, fmt.Errorf("run %s is %q after its progress stream ended", st.ID, st.State)
		}
	}
	if st.State != "done" || st.Result == nil || st.Result.Stats.Iterations != p.iters {
		return 0, fmt.Errorf("run %s (%s): state %q error %q result %+v, want done with %d iterations",
			st.ID, p.name, st.State, st.Error, st.Result, p.iters)
	}
	return 1, nil
}

// clusterInfo is GET /v1/cluster.
type clusterInfo struct {
	Nodes []struct {
		State string `json:"state"`
		Ready bool   `json:"ready"`
	} `json:"nodes"`
	Placements int `json:"placements"`
}

func (c clusterInfo) placeable() int {
	n := 0
	for _, node := range c.Nodes {
		if node.State == "alive" && node.Ready {
			n++
		}
	}
	return n
}

func (s *serve) clusterInfo(d *daemon) (clusterInfo, error) {
	var info clusterInfo
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	code, data, err := s.call(ctx, http.MethodGet, d.base+"/v1/cluster", nil)
	if err != nil {
		return info, err
	}
	if code != http.StatusOK {
		return info, fmt.Errorf("GET /v1/cluster: status %d", code)
	}
	return info, json.Unmarshal(data, &info)
}

// getMs is the median latency in milliseconds of reps GETs of path on n1.
func (s *serve) getMs(tr *tracer, path string, reps int) (float64, error) {
	var err error
	us := tr.timed("GET "+path, -1, reps, func() {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		code, _, e := s.call(ctx, http.MethodGet, s.nodes[0].base+path, nil)
		if e == nil && code != http.StatusOK {
			e = fmt.Errorf("GET %s: status %d", path, code)
		}
		if e != nil {
			err = e
		}
	})
	return us / 1e3, err
}

// journalSize returns the journal's record count and byte size; zeros
// without a journal.
func (s *serve) journalSize() (records, size int64, err error) {
	if s.journal == "" {
		return 0, 0, nil
	}
	recs, err := journal.ReadFile(s.journal)
	if err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(s.journal)
	if err != nil {
		return 0, 0, err
	}
	return int64(len(recs)), fi.Size(), nil
}

func (s *serve) baseline() (err error) {
	s.ops, s.forwarded, s.polls = 0, 0, 0
	if s.base.readyzMs, err = s.getMs(nil, "/readyz", 20); err != nil {
		return err
	}
	if s.base.rssKB, err = sumKB(s.pids(), "VmRSS"); err != nil {
		return err
	}
	s.base.records, s.base.journalBytes, err = s.journalSize()
	return err
}

// layers reads what the served ops cost each layer: the client-side
// split of an op from its spans, each daemon's CPU, what the journal
// grew by, what the cluster forwarded, and how the daemon's own
// endpoints and memory changed with the runs it has served since
// baseline.
func (s *serve) layers(tr *tracer, ph phase, vals map[string]float64) (err error) {
	ops := float64(ph.ops)
	served := float64(s.ops)
	vals["client.submit_ms_p50"] = median(tr.perOpMs("client.submit", ph.firstOp, ph.ops))
	vals["client.wait_ms_p50"] = median(tr.perOpMs("client.wait", ph.firstOp, ph.ops))
	vals["client.fetch_ms_p50"] = median(tr.perOpMs("client.fetch", ph.firstOp, ph.ops))
	vals["client.latency_p99_ms"] = quantile(ph.latMs, 0.99)
	vals["client.polls_per_op"] = ratio(float64(s.polls), served)
	vals["client.cpu_ms_per_op"] = ratio(ph.genCPUms, ops)
	for i, c := range ph.sutCPUms {
		vals[fmt.Sprintf("loopschedd.cpu_ms_per_op.n%d", i+1)] = ratio(c, ops)
	}

	vals["loopschedd.readyz_ms_first"] = s.base.readyzMs
	if vals["loopschedd.readyz_ms_last"], err = s.getMs(tr, "/readyz", 20); err != nil {
		return err
	}
	if vals["loopschedd.metrics_ms_last"], err = s.getMs(tr, "/metrics", 5); err != nil {
		return err
	}
	rss, err := sumKB(s.pids(), "VmRSS")
	if err != nil {
		return err
	}
	vals["loopschedd.rss_kb_per_run"] = ratio(float64(rss-s.base.rssKB), served)

	records, size, err := s.journalSize()
	if err != nil {
		return err
	}
	vals["journal.records_per_op"] = ratio(float64(records-s.base.records), served)
	vals["journal.bytes_per_op"] = ratio(float64(size-s.base.journalBytes), served)
	vals["journal.replay_ms"] = s.replayMs

	if s.clustered {
		vals["cluster.forward_share"] = ratio(float64(s.forwarded), served)
		for _, d := range s.nodes {
			info, err := s.clusterInfo(d)
			if err != nil {
				return err
			}
			vals["cluster.open_placements_end"] += float64(info.Placements)
		}
		if err := s.clusterProbes(tr, ph, vals); err != nil {
			return err
		}
	}

	// What is left of an op's median once the measured layer costs are
	// taken out: HTTP, JSON, run-manager queueing, scheduling of four
	// processes on two CPUs.
	vals["serve.unaccounted_ms"] = median(ph.latMs) -
		(vals["lang.parse_us"]+vals["descr.compile_us"]+vals["core.plan_us"]+
			vals["vmachine.run_us"]+vals["runner.overhead_us"])/1e3 -
		vals["journal.records_per_op"]*vals["journal.append_sync_us"]/1e3 -
		vals["cluster.forward_share"]*2*vals["cluster.rpc_ms_p50"]
	return nil
}

// clusterProbes measures the cluster layer directly: the hardened RPC
// client against a peer, and the stall of a progress stream proxied by a
// node that does not own the run (idle-load ties place on n1, so entry
// n2 is never the owner).
func (s *serve) clusterProbes(tr *tracer, ph phase, vals map[string]float64) error {
	rpc := cluster.NewClient(cluster.ClientConfig{})
	peer := cluster.Peer{Name: s.nodes[1].name, URL: s.nodes[1].base}
	var err error
	us := tr.timed("cluster.Client.Do", -1, s.sz.probeReps, func() {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		if _, e := rpc.Do(ctx, peer, http.MethodGet, "/readyz", nil, nil); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("rpc probe: %w", err)
	}
	vals["cluster.rpc_ms_p50"] = us / 1e3

	stalled := 0
	for j := 0; j < s.sz.streamOps; j++ {
		i := ph.firstOp + ph.ops + j
		id := tr.begin("op(streamed via n2)", -1, i)
		t0 := time.Now()
		_, err := s.opVia(i, 1, true, tr, id)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("streamed op: %w", err)
		}
		if time.Since(t0) > 100*time.Millisecond {
			stalled++
		}
	}
	vals["cluster.stream_stall_share"] = ratio(float64(stalled), float64(s.sz.streamOps))
	return nil
}
