package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = 5 * time.Millisecond
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.close(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp
}

func TestSubmitAndComplete(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, payload := postJSON(t, ts.URL+"/v1/runs",
		`{"program": "doall I = 1..500 { work 50 }", "label": "demo",
		  "options": {"procs": 4, "scheme": "gss"}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d, payload = %v", resp.StatusCode, payload)
	}
	id, _ := payload["id"].(string)
	if id == "" {
		t.Fatalf("no run id in %v", payload)
	}

	deadline := time.After(30 * time.Second)
	var status struct {
		State  string `json:"state"`
		Result *struct {
			Makespan    float64 `json:"makespan"`
			Utilization float64 `json:"utilization"`
			Scheme      string  `json:"scheme"`
			Stats       struct {
				Iterations float64 `json:"Iterations"`
			} `json:"stats"`
		} `json:"result"`
	}
	for {
		getJSON(t, ts.URL+"/v1/runs/"+id, &status)
		if status.State == "done" {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("run never finished: %+v", status)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if status.Result == nil {
		t.Fatal("done run carried no result")
	}
	if status.Result.Stats.Iterations != 500 || status.Result.Scheme != "GSS" {
		t.Errorf("result = %+v", status.Result)
	}

	var list []map[string]any
	getJSON(t, ts.URL+"/v1/runs", &list)
	if len(list) != 1 || list[0]["id"] != id {
		t.Errorf("list = %v", list)
	}
}

func TestSubmitErrors(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	cases := []struct {
		body       string
		wantStatus int
		wantValid  bool
	}{
		{`{"program": ""}`, http.StatusBadRequest, false},
		{`{"program": "doall I = { work }"}`, http.StatusBadRequest, false},
		{`{"program": "doall I = 1..4 { work 5 }", "options": {"scheme": "wrong"}}`, http.StatusBadRequest, true},
		{`{"program": "doall I = 1..4 { work 5 }", "options": {"engine": "abacus"}}`, http.StatusBadRequest, true},
		{`{"program": "doall I = 1..4 { work 5 }", "timeout": "soon"}`, http.StatusBadRequest, false},
		{`{"program": "doall I = 1..4 { work 5 }", "timeout": "-1s"}`, http.StatusBadRequest, false},
		{`not json`, http.StatusBadRequest, false},
		{`{"program": "doall I = 1..4 { work 5 }", "options": {"procs": 4097}}`, http.StatusBadRequest, false},
		{`{"program": "doall I = 1..4 { work 5 }", "options": {"acess_cost": 5}}`, http.StatusBadRequest, true},
		{`{"progam": "doall I = 1..4 { work 5 }"}`, http.StatusBadRequest, true},
	}
	for _, c := range cases {
		resp, payload := postJSON(t, ts.URL+"/v1/runs", c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("POST %q status = %d, want %d (%v)", c.body, resp.StatusCode, c.wantStatus, payload)
		}
		if _, ok := payload["valid"]; ok != c.wantValid {
			t.Errorf("POST %q valid present = %v, want %v (%v)", c.body, ok, c.wantValid, payload)
		}
	}
	if resp, _ := http.Get(ts.URL + "/v1/runs/run-9999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", resp.StatusCode)
	}
}

func TestCancelRun(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, payload := postJSON(t, ts.URL+"/v1/runs",
		`{"program": "doall I = 1..1099511627776 { work 100 }"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d (%v)", resp.StatusCode, payload)
	}
	id := payload["id"].(string)

	cresp, cpayload := postJSON(t, ts.URL+"/v1/runs/"+id+"/cancel", "")
	if cresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d (%v)", cresp.StatusCode, cpayload)
	}
	deadline := time.After(10 * time.Second)
	var status struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	for {
		getJSON(t, ts.URL+"/v1/runs/"+id, &status)
		if status.State == "cancelled" {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("run never cancelled: %+v", status)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !strings.Contains(status.Error, "context canceled") {
		t.Errorf("error = %q, want context canceled", status.Error)
	}
}

func TestProgressStream(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	_, payload := postJSON(t, ts.URL+"/v1/runs",
		`{"program": "doall I = 1..300000 { work 20 }", "options": {"procs": 4}}`)
	id := payload["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p map[string]any
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, p)
	}
	if len(lines) == 0 {
		t.Fatal("progress stream carried no snapshots")
	}
	last := lines[len(lines)-1]
	if last["state"] != "done" {
		t.Errorf("final state = %v", last["state"])
	}
	if last["iterations"].(float64) != 300000 {
		t.Errorf("final iterations = %v", last["iterations"])
	}
}

func TestQueueLimitShedsLoad(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{MaxConcurrent: 1, QueueLimit: 1})
	endless := `{"program": "doall I = 1..1099511627776 { work 100 }"}`
	for i, wantStatus := range []int{http.StatusCreated, http.StatusCreated, http.StatusTooManyRequests} {
		resp, payload := postJSON(t, ts.URL+"/v1/runs", endless)
		if resp.StatusCode != wantStatus {
			t.Fatalf("submit %d status = %d, want %d (%v)", i, resp.StatusCode, wantStatus, payload)
		}
		if id, ok := payload["id"].(string); ok {
			// The test is finished with the run once it is admitted; left
			// alive, an endless run makes the server's close sit out its
			// whole drain window.
			defer postJSON(t, ts.URL+"/v1/runs/"+id+"/cancel", "")
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{MaxConcurrent: 1, QueueLimit: 8})

	var st struct {
		Submitted     int   `json:"submitted"`
		QueueDepth    int   `json:"queue_depth"`
		Running       int   `json:"running"`
		Done          int   `json:"done"`
		Failed        int   `json:"failed"`
		Cancelled     int   `json:"cancelled"`
		MaxConcurrent int   `json:"max_concurrent"`
		Closed        bool  `json:"closed"`
		UptimeNS      int64 `json:"uptime_ns"`
	}
	resp := getJSON(t, ts.URL+"/stats", &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if st.Submitted != 0 || st.MaxConcurrent != 1 || st.Closed {
		t.Fatalf("idle stats = %+v", st)
	}

	// One endless run occupies the single worker; a second waits in the
	// queue — the census must show exactly that.
	endless := `{"program": "doall I = 1..1099511627776 { work 100 }"}`
	_, first := postJSON(t, ts.URL+"/v1/runs", endless)
	_, second := postJSON(t, ts.URL+"/v1/runs", endless)
	deadline := time.After(10 * time.Second)
	for {
		getJSON(t, ts.URL+"/stats", &st)
		if st.Running == 1 && st.QueueDepth == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("census never showed 1 running + 1 queued: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if st.Submitted != 2 || st.UptimeNS <= 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Cancel both; the census must drain into the cancelled column.
	for _, p := range []map[string]any{first, second} {
		postJSON(t, ts.URL+"/v1/runs/"+p["id"].(string)+"/cancel", "")
	}
	for {
		getJSON(t, ts.URL+"/stats", &st)
		if st.Cancelled == 2 && st.Running == 0 && st.QueueDepth == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("census never drained: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{})

	fetch := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics content type = %q", ct)
		}
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	body := fetch()
	for _, want := range []string{
		"# TYPE runner_runs_submitted_total counter",
		"# TYPE runner_iterations_total counter",
		"# TYPE runner_adapt_fits_total counter",
		"# TYPE runner_adapt_switches_total counter",
		"# TYPE runner_pool_sweeps_total counter",
		"# TYPE runner_pool_walked_total counter",
		"# TYPE runner_pool_lock_failures_total counter",
		"# TYPE runner_pool_retests_total counter",
		"# TYPE runner_pool_saturated_total counter",
		"# TYPE runner_icb_allocs_total counter",
		"# TYPE runner_icb_reuses_total counter",
		"# TYPE runner_queue_depth gauge",
		"# TYPE loopschedd_uptime_seconds gauge",
		"runner_runs_done_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	// Finish one run; the outcome counter and the aggregated executor
	// figures must advance.
	_, payload := postJSON(t, ts.URL+"/v1/runs",
		`{"program": "doall I = 1..500 { work 50 }"}`)
	id, _ := payload["id"].(string)
	deadline := time.After(30 * time.Second)
	for {
		body = fetch()
		if strings.Contains(body, "runner_runs_done_total 1") {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("run %s never reached the done counter:\n%s", id, body)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !strings.Contains(body, "runner_iterations_total 500") {
		t.Errorf("iterations counter missing 500:\n%s", body)
	}
	// Every run sweeps the pool at least once and allocates at least one
	// ICB, so the pool counters must have left zero.
	if strings.Contains(body, "runner_pool_sweeps_total 0\n") {
		t.Errorf("pool sweep counter still zero after a finished run:\n%s", body)
	}
	if strings.Contains(body, "runner_icb_allocs_total 0\n") {
		t.Errorf("ICB alloc counter still zero after a finished run:\n%s", body)
	}

	// An adaptive run must surface its trajectory through the adapt
	// counters (many instances so the policy refits).
	postJSON(t, ts.URL+"/v1/runs",
		`{"program": "serial K = 1..8 { doall I = 1..512 { work 10 } }",
		  "options": {"procs": 4, "scheme": "auto", "access_cost": 15}}`)
	for {
		body = fetch()
		if strings.Contains(body, "runner_runs_done_total 2") {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("adaptive run never finished:\n%s", body)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if strings.Contains(body, "runner_adapt_fits_total 0\n") {
		t.Errorf("adaptive run left runner_adapt_fits_total at 0:\n%s", body)
	}
}
