package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/runner"
)

// cancelAll cancels every live run so the cleanup drain returns
// promptly instead of waiting out its window on endless programs.
func cancelAll(s *server) {
	for _, r := range s.rn.Runs() {
		r.Cancel()
	}
}

// writeTenantsFile writes a tenants config to a temp file and loads it.
func writeTenantsFile(t *testing.T, body string) *tenantsFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	tf, err := loadTenants(path)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

const testTenants = `{
  "tenants": {
    "gold":   {"weight": 3, "priority": 1},
    "bronze": {"weight": 1, "max_inflight": 1},
    "anonymous": {"max_queued": 1, "max_inflight": 2}
  },
  "keys": {
    "secret-gold":   "gold",
    "secret-bronze": "bronze"
  }
}`

// postAuth submits with optional auth headers and returns the decoded
// response.
func postAuth(t *testing.T, url, body string, headers map[string]string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, payload
}

func TestTenantsConfigValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) string {
		t.Helper()
		path := filepath.Join(dir, "tenants.json")
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name, body, wantErr string
	}{
		{"key to undeclared tenant",
			`{"tenants": {"gold": {}}, "keys": {"k": "silver"}}`, "undeclared tenant"},
		{"empty key",
			`{"tenants": {"gold": {}}, "keys": {"": "gold"}}`, "empty API key"},
		{"unknown field",
			`{"tenants": {"gold": {"wieght": 3}}, "keys": {}}`, "unknown field"},
		{"empty tenant name",
			`{"tenants": {"": {}}, "keys": {}}`, "empty tenant name"},
	}
	for _, c := range cases {
		if _, err := loadTenants(write(c.body)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
	if _, err := loadTenants(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded without error")
	}
	if _, err := loadTenants(write(testTenants)); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestAuthResolvesTenant: both credential spellings attribute the run,
// the attribution shows in the run status and the per-tenant census.
func TestAuthResolvesTenant(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{Tenants: writeTenantsFile(t, testTenants)})
	prog := `{"program": "doall I = 1..64 { work 10 }", "options": {"procs": 2}}`

	for _, c := range []struct {
		headers map[string]string
		tenant  string
	}{
		{map[string]string{"Authorization": "Bearer secret-gold"}, "gold"},
		{map[string]string{"X-API-Key": "secret-bronze"}, "bronze"},
	} {
		resp, payload := postAuth(t, ts.URL+"/v1/runs", prog, c.headers)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %v status = %d (%v)", c.headers, resp.StatusCode, payload)
		}
		if got := payload["tenant"]; got != c.tenant {
			t.Errorf("submit %v attributed to %v, want %q", c.headers, got, c.tenant)
		}
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	rows := map[string]runner.TenantStats{}
	for _, row := range st.Tenants {
		rows[row.Tenant] = row
	}
	if rows["gold"].Submitted != 1 || rows["bronze"].Submitted != 1 {
		t.Errorf("tenant census rows = %+v, want 1 submitted each for gold and bronze", st.Tenants)
	}
	if rows["gold"].Weight != 3 || rows["gold"].Priority != 1 {
		t.Errorf("gold census row = %+v, want weight 3 priority 1", rows["gold"])
	}
}

func TestAuthUnknownKeyRejected(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{Tenants: writeTenantsFile(t, testTenants)})
	prog := `{"program": "doall I = 1..4 { work 5 }"}`
	for _, headers := range []map[string]string{
		{"Authorization": "Bearer wrong"},
		{"X-API-Key": "wrong"},
		{"Authorization": "Basic dXNlcjpwYXNz"},
	} {
		resp, payload := postAuth(t, ts.URL+"/v1/runs", prog, headers)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("submit %v status = %d, want 401 (%v)", headers, resp.StatusCode, payload)
		}
	}
}

// TestAuthKeyless pins both keyless modes: with a tenants config,
// keyless work runs under the declared anonymous tenant (and its
// quotas); without one, credentials are ignored entirely.
func TestAuthKeyless(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{MaxConcurrent: 1, Tenants: writeTenantsFile(t, testTenants)})
	defer cancelAll(s)
	endless := `{"program": "doall I = 1..1099511627776 { work 100 }"}`
	// anonymous: max_inflight 2 — third keyless submission is shed.
	for i, want := range []int{http.StatusCreated, http.StatusCreated, http.StatusTooManyRequests} {
		resp, payload := postAuth(t, ts.URL+"/v1/runs", endless, nil)
		if resp.StatusCode != want {
			t.Fatalf("keyless submit %d status = %d, want %d (%v)", i, resp.StatusCode, want, payload)
		}
		if want == http.StatusCreated && payload["tenant"] != "anonymous" {
			t.Errorf("keyless submit %d attributed to %v, want anonymous", i, payload["tenant"])
		}
	}

	// Single-tenant mode: any credential is accepted and ignored.
	_, ts2 := newTestServer(t, serverConfig{})
	resp, payload := postAuth(t, ts2.URL+"/v1/runs",
		`{"program": "doall I = 1..4 { work 5 }"}`,
		map[string]string{"Authorization": "Bearer whatever"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("single-tenant submit status = %d (%v)", resp.StatusCode, payload)
	}
	if tenant, ok := payload["tenant"]; ok {
		t.Errorf("single-tenant run carries tenant %v, want none", tenant)
	}
}

// TestTenantQuota429 pins the admission-control wire contract: a
// submission over its tenant's quota is shed with 429 and a Retry-After
// header, and a typed error body.
func TestTenantQuota429(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{MaxConcurrent: 1, Tenants: writeTenantsFile(t, testTenants)})
	defer cancelAll(s)
	endless := `{"program": "doall I = 1..1099511627776 { work 100 }"}`
	auth := map[string]string{"Authorization": "Bearer secret-bronze"}

	resp, payload := postAuth(t, ts.URL+"/v1/runs", endless, auth)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit status = %d (%v)", resp.StatusCode, payload)
	}
	resp, payload = postAuth(t, ts.URL+"/v1/runs", endless, auth)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status = %d, want 429 (%v)", resp.StatusCode, payload)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response carries no Retry-After header")
	}
	if msg, _ := payload["error"].(string); !strings.Contains(msg, "inflight") {
		t.Errorf("429 error = %q, want the tenant inflight message", msg)
	}
	// gold is unaffected by bronze's quota.
	resp, payload = postAuth(t, ts.URL+"/v1/runs", endless,
		map[string]string{"Authorization": "Bearer secret-gold"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gold submit status = %d (%v)", resp.StatusCode, payload)
	}
}

// TestTenantWeightsDispatchBacklog: declaring weights in the tenants
// file is all it takes for them to bind. With one worker slot held, a
// bronze burst queues ahead of a gold one; once the slot frees, the
// backlog dispatches 3:1 gold:bronze, not in submission order.
func TestTenantWeightsDispatchBacklog(t *testing.T) {
	tf := writeTenantsFile(t, `{
  "tenants": {"gold": {"weight": 3}, "bronze": {"weight": 1}},
  "keys": {"k-gold": "gold", "k-bronze": "bronze"}
}`)
	s, ts := newTestServer(t, serverConfig{MaxConcurrent: 1, Tenants: tf})
	defer cancelAll(s)

	resp, payload := postAuth(t, ts.URL+"/v1/runs", `{"program": "doall I = 1..1099511627776 { work 100 }"}`, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("anchor submit status = %d (%v)", resp.StatusCode, payload)
	}
	anchor, _ := s.rn.Get(payload["id"].(string))
	const each = 8
	for _, key := range []string{"k-bronze", "k-gold"} {
		for i := 0; i < each; i++ {
			resp, payload := postAuth(t, ts.URL+"/v1/runs", `{"program": "doall I = 1..16 { work 10 }"}`,
				map[string]string{"Authorization": "Bearer " + key})
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("%s submit %d status = %d (%v)", key, i, resp.StatusCode, payload)
			}
		}
	}
	anchor.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.rn.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	var backlog []*runner.Run
	for _, r := range s.rn.Runs() {
		if r.Tenant() != "" {
			backlog = append(backlog, r)
		}
	}
	startOf := func(r *runner.Run) time.Time { _, started, _ := r.Times(); return started }
	sort.Slice(backlog, func(i, j int) bool { return startOf(backlog[i]).Before(startOf(backlog[j])) })
	window := map[string]int{}
	for _, r := range backlog[:each] { // two periods of the 3:1 schedule
		window[r.Tenant()]++
	}
	if window["gold"] != 6 || window["bronze"] != 2 {
		t.Errorf("first %d dispatches split %v, want gold:6 bronze:2", each, window)
	}
}

// TestJournalTenantReplay: a run journaled under a tenant is re-queued
// under that tenant after a restart, so quotas and fair shares survive
// daemon crashes.
func TestJournalTenantReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	tf := writeTenantsFile(t, testTenants)
	cfg := serverConfig{
		MaxConcurrent: 1,
		JournalPath:   path,
		JournalSync:   "always",
		Tenants:       tf,
	}

	s1, ts1 := newTestServer(t, cfg)
	// Two endless runs keep each other live, so the second, gold-attributed
	// one is non-terminal when the daemon goes down: gold's priority class
	// preempts the keyless anchor, which waits requeued.
	resp, _ := postAuth(t, ts1.URL+"/v1/runs",
		`{"program": "doall I = 1..1099511627776 { work 100 }"}`, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("anchor submit status = %d", resp.StatusCode)
	}
	resp, payload := postAuth(t, ts1.URL+"/v1/runs",
		`{"program": "doall I = 1..1099511627776 { work 100 }", "label": "gold-work"}`,
		map[string]string{"Authorization": "Bearer secret-gold"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gold submit status = %d (%v)", resp.StatusCode, payload)
	}
	goldID := payload["id"].(string)
	// "Crash": stop serving without draining — the journal's last records
	// for both runs are non-terminal (SyncAlways made them durable at
	// submit time), which is exactly what replay keys on. The cleanup
	// drain cancels s1's runs after the assertions below.
	ts1.Close()
	defer cancelAll(s1)

	s2, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, r := range s2.rn.Runs() {
			r.Cancel()
		}
		s2.rn.Close()
	}()
	run, ok := s2.rn.Get(goldID)
	if !ok {
		t.Fatalf("run %s not replayed", goldID)
	}
	if got := run.Tenant(); got != "gold" {
		t.Errorf("replayed run tenant = %q, want gold", got)
	}
	if got := run.Progress().Label; got != "gold-work" {
		t.Errorf("replayed run label = %q, want gold-work", got)
	}
}
