// Package cluster is the resilience layer under a multi-node loopschedd
// deployment: static-list membership with health-probed liveness, a
// hardened intra-cluster RPC client, and deterministic network-fault
// injection for reproducible chaos tests.
//
// The package deliberately stops below run semantics. It answers three
// questions — who is in the cluster and alive (Membership), how do I
// call a peer without a slow or dead node wedging me (Client), and how
// do I test the first two against a hostile network without flaky
// sleeps (NetInjector) — and leaves run placement, forwarding and
// failover policy to the daemon that composes them (cmd/loopschedd).
//
// Membership is static: the peer set comes from a flag or a cluster
// file and never changes at runtime. What changes is each peer's
// observed state — unconfirmed until it first answers a probe, alive
// while it answers, suspect after the first interval-spaced probe met
// with silence, dead after DeadAfter of them in a row — plus the load
// figure an answered probe reports. Convergence does not wait for the
// interval: a node probes at boot, a call from a peer not held alive is
// answered with a probe of that peer, and a silent peer is re-probed on
// a short backoff; none of these extra probes can demote anyone. The
// suspect rung exists so one dropped probe (common under injected
// faults) takes a peer out of placement without triggering failover;
// only dead does that.
//
// Every cross-node data call goes through Client.Do: a per-attempt
// context deadline and bounded retries with exponential backoff and
// jitter. Whether a peer may be called at all has one judge, the
// membership row: the daemon makes no call to a peer held dead, and
// every other call goes to the network. A killed peer refuses
// connections, so a call to it fails within its few attempts' backoff;
// a black-holed one is declared dead after DeadAfter intervals of
// silence, before one call's retries could have proved anything.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Peer identifies one cluster node: a stable name (run-ID prefixes and
// placement records use it) and the base URL its HTTP API serves on.
type Peer struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

func (p Peer) String() string { return p.Name + "=" + p.URL }

// ParsePeers parses the -peers flag form "name=url,name=url,...". Names
// must be unique and non-empty; the result is sorted by name so every
// node derives the same peer order from the same flag.
func ParsePeers(spec string) ([]Peer, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	seen := map[string]bool{}
	var peers []Peer
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want name=url)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", name)
		}
		seen[name] = true
		peers = append(peers, Peer{Name: name, URL: url})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Name < peers[j].Name })
	return peers, nil
}

// File is the cluster.json alternative to the -peers flag:
//
//	{
//	  "self": "n1",
//	  "secret": "…shared cluster secret…",
//	  "peers": {
//	    "n1": "http://10.0.0.1:8080",
//	    "n2": "http://10.0.0.2:8080",
//	    "n3": "http://10.0.0.3:8080"
//	  }
//	}
//
// The same file ships to every node; each node finds itself by the
// "self" it is started with (the file's Self is the default). Secret
// is the shared token peers use to authenticate intra-cluster calls
// to each other; every node must carry the same one.
type File struct {
	Self   string            `json:"self,omitempty"`
	Secret string            `json:"secret,omitempty"`
	Peers  map[string]string `json:"peers"`
}

// LoadFile reads and validates a cluster.json file, returning the peer
// list sorted by name.
func LoadFile(path string) (*File, []Peer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: config: %w", err)
	}
	var f File
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, nil, fmt.Errorf("cluster: config %s: %w", path, err)
	}
	if len(f.Peers) == 0 {
		return nil, nil, fmt.Errorf("cluster: config %s declares no peers", path)
	}
	peers := make([]Peer, 0, len(f.Peers))
	for name, url := range f.Peers {
		if name == "" || url == "" {
			return nil, nil, fmt.Errorf("cluster: config %s: empty peer name or url", path)
		}
		peers = append(peers, Peer{Name: name, URL: url})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Name < peers[j].Name })
	if f.Self != "" {
		if _, ok := f.Peers[f.Self]; !ok {
			return nil, nil, fmt.Errorf("cluster: config %s: self %q is not a declared peer", path, f.Self)
		}
	}
	return &f, peers, nil
}
