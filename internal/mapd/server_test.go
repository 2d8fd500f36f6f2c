package mapd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", path, err)
	}
	return resp.StatusCode, strings.TrimSuffix(string(b), "\n")
}

// Golden request/response pairs for every endpoint: the exact canonical
// wire bytes, so accidental schema or semantics drift fails loudly.
func TestEndpointsGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, req, want string
	}{
		{
			name: "map decompose",
			path: "/v1/map",
			req:  `{"hierarchy":"2,2,4","order":"2-1-0","rank":5}`,
			want: `{"hierarchy":[2,2,4],"levels":["node","socket","core"],"order":[2,1,0],"rank":5,"coords":[0,1,1],"new_rank":5}`,
		},
		{
			name: "map decompose canonical syntax", // same query, different surface syntax
			path: "/v1/map",
			req:  `{"hierarchy":"[2, 2, 4]","order":"2,1,0","rank":5}`,
			want: `{"hierarchy":[2,2,4],"levels":["node","socket","core"],"order":[2,1,0],"rank":5,"coords":[0,1,1],"new_rank":5}`,
		},
		{
			name: "map compose",
			path: "/v1/map",
			req:  `{"hierarchy":"2,2,4","order":"0-1-2","coords":[1,1,3]}`,
			want: `{"hierarchy":[2,2,4],"levels":["node","socket","core"],"order":[0,1,2],"coords":[1,1,3],"new_rank":15}`,
		},
		{
			name: "map table",
			path: "/v1/map",
			req:  `{"hierarchy":"2,2,2","order":"0-1-2","table":true}`,
			want: `{"hierarchy":[2,2,2],"levels":["node","socket","core"],"order":[0,1,2],"table":[0,4,2,6,1,5,3,7]}`,
		},
		{
			name: "select",
			path: "/v1/select",
			req:  `{"hierarchy":"2,4,2,8","order":"2-1-0-3","n":8}`,
			want: `{"hierarchy":[2,4,2,8],"order":[2,1,0,3],"n":8,"map_cpu":[0,8,16,24,32,40,48,56],"cpu_bind":"map_cpu:0,8,16,24,32,40,48,56","induced":[4,2],"uniform":true}`,
		},
		{
			name: "order metrics",
			path: "/v1/metrics/order",
			req:  `{"hierarchy":"16,2,2,8","order":"3-2-1-0","comm_size":16}`,
			want: `{"hierarchy":[16,2,2,8],"order":[3,2,1,0],"comm_size":16,"ring_cost":16,"pairs_per_level":[46.666666666666664,53.333333333333336,0,0],"spread_score":0.17777777777777778,"distribution":"block:block","legend":"3-2-1-0 (16 - 46.7, 53.3, 0.0, 0.0)"}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, ts, tc.path, tc.req)
			if code != http.StatusOK {
				t.Fatalf("status %d, body %s", code, body)
			}
			if body != tc.want {
				t.Errorf("response drifted from golden\n got: %s\nwant: %s", body, tc.want)
			}
		})
	}
}

// The advise endpoint is asserted structurally (its floats encode model
// internals) plus a determinism check: byte-identical responses across
// repeated evaluations, the property caching depends on.
func TestAdviseEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1}) // no cache: force re-evaluation
	req := `{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16,"simultaneous":true,"top":3}`
	code, body := post(t, ts, "/v1/advise", req)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	var resp AdviseResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Evaluated != 24 {
		t.Errorf("evaluated %d orders, want 4! = 24", resp.Evaluated)
	}
	if len(resp.Best) != 3 {
		t.Fatalf("got %d ranked orders, want 3", len(resp.Best))
	}
	for i := 0; i+1 < len(resp.Best); i++ {
		if resp.Best[i].BandwidthMBs < resp.Best[i+1].BandwidthMBs {
			t.Errorf("ranking not descending at %d: %.1f < %.1f",
				i, resp.Best[i].BandwidthMBs, resp.Best[i+1].BandwidthMBs)
		}
	}
	if resp.Worst.BandwidthMBs > resp.Best[len(resp.Best)-1].BandwidthMBs {
		t.Errorf("worst (%.1f MB/s) beats last ranked (%.1f MB/s)",
			resp.Worst.BandwidthMBs, resp.Best[len(resp.Best)-1].BandwidthMBs)
	}
	for i := 0; i < 3; i++ {
		if code, again := post(t, ts, "/v1/advise", req); code != http.StatusOK || again != body {
			t.Fatalf("re-evaluation %d not byte-identical (status %d)", i, code)
		}
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, req string
		wantStatus      string
	}{
		{"bad json", "/v1/map", `{bad`, "bad_request"},
		{"trailing data", "/v1/map", `{"hierarchy":"2,2,4","rank":1} extra`, "bad_request"},
		{"unknown field", "/v1/map", `{"hierarchy":"2,2,4","rank":1,"bogus":true}`, "bad_request"},
		{"missing mode", "/v1/map", `{"hierarchy":"2,2,4"}`, "bad_request"},
		{"rank and coords", "/v1/map", `{"hierarchy":"2,2,4","rank":1,"coords":[0,0,0]}`, "bad_request"},
		{"empty hierarchy", "/v1/map", `{"hierarchy":"","rank":0}`, "bad_request"},
		{"arity one", "/v1/map", `{"hierarchy":"2,1,4","rank":0}`, "bad_request"},
		{"overflow hierarchy", "/v1/map", `{"hierarchy":"99999,99999,99999","rank":0}`, "bad_request"},
		{"rank out of range", "/v1/map", `{"hierarchy":"2,2,4","rank":16}`, "bad_request"},
		{"non-permutation order", "/v1/map", `{"hierarchy":"2,2,4","order":"0-0-2","rank":1}`, "bad_request"},
		{"order depth mismatch", "/v1/map", `{"hierarchy":"2,2,4","order":"0-1","rank":1}`, "bad_request"},
		{"oversized table", "/v1/map", `{"hierarchy":"64,64,32","table":true}`, "bad_request"},
		{"unknown machine", "/v1/advise", `{"machine":"summit","collective":"alltoall","comm_size":16}`, "bad_request"},
		{"unknown collective", "/v1/advise", `{"machine":"hydra","collective":"bcast","comm_size":16}`, "bad_request"},
		{"comm does not divide", "/v1/advise", `{"machine":"hydra","collective":"alltoall","comm_size":7}`, "bad_request"},
		{"select too many", "/v1/select", `{"hierarchy":"2,2,4","order":"0-1-2","n":17}`, "bad_request"},
		{"select zero", "/v1/select", `{"hierarchy":"2,2,4","order":"0-1-2","n":0}`, "bad_request"},
		{"metrics comm too large", "/v1/metrics/order", `{"hierarchy":"2,2,4","order":"0-1-2","comm_size":64}`, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, ts, tc.path, tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", code, body)
			}
			var eb errorBody
			if err := json.Unmarshal([]byte(body), &eb); err != nil {
				t.Fatalf("error body is not the structured envelope: %s", body)
			}
			if eb.Error.Status != tc.wantStatus || eb.Error.Code != 400 || eb.Error.Message == "" {
				t.Errorf("error envelope %+v, want status %q with a message", eb.Error, tc.wantStatus)
			}
		})
	}
}

func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: 256})
	big := fmt.Sprintf(`{"hierarchy":"2,2,4","rank":1,"order":"%s"}`, strings.Repeat(" ", 512))
	for _, path := range []string{"/v1/map", "/v1/advise", "/v1/select", "/v1/metrics/order"} {
		code, body := post(t, ts, path, big)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413; body %s", path, code, body)
		}
		var eb errorBody
		if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error.Status != "body_too_large" {
			t.Errorf("%s: unexpected error envelope %s", path, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/map", "/v1/advise", "/v1/select", "/v1/metrics/order"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

// A warm-cache advise request must be served without re-running the order
// evaluation: the hit counter increments and the eval counter does not.
func TestAdviseCacheHit(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	req := `{"machine":"lumi","nodes":4,"collective":"allgather","comm_size":16}`

	code, first := post(t, ts, "/v1/advise", req)
	if code != http.StatusOK {
		t.Fatalf("cold request: status %d, body %s", code, first)
	}
	if got := reg.FindCounter("mapd_cache_misses_total", obs.L("endpoint", "advise")); got != 1 {
		t.Fatalf("cold request: miss counter %v, want 1", got)
	}
	if got := reg.FindCounter("mapd_advise_evals_total"); got != 1 {
		t.Fatalf("cold request: eval counter %v, want 1", got)
	}

	code, second := post(t, ts, "/v1/advise", req)
	if code != http.StatusOK || second != first {
		t.Fatalf("warm request: status %d or body drift", code)
	}
	if got := reg.FindCounter("mapd_cache_hits_total", obs.L("endpoint", "advise")); got != 1 {
		t.Errorf("warm request: hit counter %v, want 1", got)
	}
	if got := reg.FindCounter("mapd_advise_evals_total"); got != 1 {
		t.Errorf("warm request: eval counter %v, want 1 (evaluation re-ran)", got)
	}

	// A canonically identical request with different surface syntax (nodes
	// spelled explicitly = the default bytes value) must also hit.
	code, third := post(t, ts, "/v1/advise",
		`{"machine":"lumi","nodes":4,"collective":"allgather","comm_size":16,"bytes":16777216}`)
	if code != http.StatusOK || third != first {
		t.Fatalf("canonical-equivalent request: status %d or body drift", code)
	}
	if got := reg.FindCounter("mapd_cache_hits_total", obs.L("endpoint", "advise")); got != 2 {
		t.Errorf("canonical-equivalent request: hit counter %v, want 2", got)
	}
}

// Concurrent identical cold-cache advise requests collapse into one
// evaluation via singleflight.
func TestSingleflightCollapsesConcurrentAdvise(t *testing.T) {
	const clients = 8
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.AdviseHook = func() {
		once.Do(func() { close(started) })
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"machine":"hydra","nodes":8,"collective":"allreduce","comm_size":32}`
	var wg sync.WaitGroup
	codes := make([]int, clients)
	bodies := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/advise", "application/json", strings.NewReader(req))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			codes[i] = resp.StatusCode
			bodies[i] = string(b)
		}(i)
	}

	// The leader is inside the evaluation; wait until every follower has
	// joined its flight, then let the evaluation finish.
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for reg.FindCounter("mapd_singleflight_shared_total") < clients-1 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("only %v of %d followers joined the flight",
				reg.FindCounter("mapd_singleflight_shared_total"), clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("client %d received a different body", i)
		}
	}
	if got := reg.FindCounter("mapd_advise_evals_total"); got != 1 {
		t.Errorf("eval counter %v, want 1: duplicate advisor work was not collapsed", got)
	}
	if got := reg.FindCounter("mapd_cache_misses_total", obs.L("endpoint", "advise")); got != clients {
		t.Errorf("miss counter %v, want %d (all clients raced the cold cache)", got, clients)
	}
}

// The cache also serves the cheap endpoints; hit/miss counters must track
// exactly.
func TestCacheCountersPerEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	reqs := map[string]string{
		"map":           `{"hierarchy":"2,2,4","rank":3}`,
		"select":        `{"hierarchy":"2,2,4","order":"2-1-0","n":4}`,
		"metrics_order": `{"hierarchy":"2,2,4","order":"2-1-0"}`,
	}
	paths := map[string]string{
		"map":           "/v1/map",
		"select":        "/v1/select",
		"metrics_order": "/v1/metrics/order",
	}
	for endpoint, body := range reqs {
		for i := 0; i < 3; i++ {
			if code, b := post(t, ts, paths[endpoint], body); code != http.StatusOK {
				t.Fatalf("%s: status %d, body %s", endpoint, code, b)
			}
		}
		if got := reg.FindCounter("mapd_cache_misses_total", obs.L("endpoint", endpoint)); got != 1 {
			t.Errorf("%s: miss counter %v, want 1", endpoint, got)
		}
		if got := reg.FindCounter("mapd_cache_hits_total", obs.L("endpoint", endpoint)); got != 2 {
			t.Errorf("%s: hit counter %v, want 2", endpoint, got)
		}
	}
}

func TestMetricsAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/map", `{"hierarchy":"2,2,4","rank":3}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE mapd_requests_total counter",
		`mapd_requests_total{code="200",endpoint="map"} 1`,
		"# TYPE mapd_request_seconds histogram",
		"mapd_inflight_requests",
	} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	hb, _ := io.ReadAll(hresp.Body)
	if hresp.StatusCode != http.StatusOK || !bytes.Contains(hb, []byte(`"healthy"`)) {
		t.Errorf("/healthz: status %d, body %s", hresp.StatusCode, hb)
	}
}

// An advise evaluation must surface the order-search observability — the
// equivalence-class hit/miss counters and the search latency histogram —
// on the Prometheus endpoint.
func TestAdviseSearchMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	req := `{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`
	if code, body := post(t, ts, "/v1/advise", req); code != http.StatusOK {
		t.Fatalf("advise status %d, body %s", code, body)
	}

	hits := reg.SumCounters("advisor_class_hits_total")
	misses := reg.SumCounters("advisor_class_misses_total")
	// Nothing is pruned in this scenario: the search covers all 4! orders.
	if hits+misses != 24 {
		t.Errorf("class hits %v + misses %v, want 4! = 24 covered orders", hits, misses)
	}
	if hits == 0 {
		t.Errorf("expected class hits on hydra's symmetric hierarchy, got 0")
	}
	// The branch-and-bound served it, so every series is labeled
	// mode="bnb" and the unlabeled series must not exist.
	if v := reg.FindCounter("advisor_class_hits_total", obs.L("mode", "bnb")); v != hits {
		t.Errorf("bnb-labeled hits %v, want all %v", v, hits)
	}
	if v := reg.FindCounter("advisor_class_hits_total"); v != 0 {
		t.Errorf("unlabeled class-hit counter exists: %v", v)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE advisor_class_hits_total counter",
		"# TYPE advisor_class_misses_total counter",
		"# TYPE advisor_search_seconds histogram",
		`advisor_class_hits_total{mode="bnb"}`,
		`advisor_search_seconds_count{mode="bnb"} 1`,
	} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// An evaluation that overruns the configured budget produces a structured
// 504, not a hung connection.
func TestEvaluationTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg, Timeout: 10 * time.Millisecond, CacheEntries: -1})
	s.AdviseHook = func() { time.Sleep(50 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := post(t, ts, "/v1/advise",
		`{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", code, body)
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error.Status != "timeout" {
		t.Errorf("unexpected error envelope: %s", body)
	}
}
