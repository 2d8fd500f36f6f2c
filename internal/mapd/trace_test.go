package mapd

import (
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/rt"
)

// logBuffer is a concurrency-safe sink for the test logger.
type logBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func tracedServer(t *testing.T, ratio float64, cfg Config) (*Server, *httptest.Server, *rt.Tracer, *logBuffer) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	tracer := rt.NewTracer(rt.Options{Service: "mapd-test", SampleRatio: ratio, Rand: rng.Uint64})
	logs := &logBuffer{}
	cfg.Tracer = tracer
	cfg.Logger = slog.New(rt.NewLogHandler(slog.NewJSONHandler(logs, nil)))
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, tracer, logs
}

// spanNames polls the tracer for committed spans until the wanted names
// all appear (the root span commits just after the response is written).
func spanNames(t *testing.T, tracer *rt.Tracer, want ...string) map[string][]obs.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		byName := map[string][]obs.Span{}
		for _, sp := range tracer.Scope().Spans() {
			byName[sp.Name] = append(byName[sp.Name], sp)
		}
		missing := ""
		for _, name := range want {
			if len(byName[name]) == 0 {
				missing = name
				break
			}
		}
		if missing == "" {
			return byName
		}
		if time.Now().After(deadline) {
			t.Fatalf("span %q never committed; have %v", missing, keys(byName))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func keys(m map[string][]obs.Span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceCoversServingPipeline is the acceptance path: one request with
// an injected traceparent yields a server-side trace whose spans cover
// middleware → cache/singleflight → advisor search, all on the
// injected trace id, with the same id in the log output.
func TestTraceCoversServingPipeline(t *testing.T) {
	const upstream = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	const traceID = "0af7651916cd43dd8448eb211c80319c"
	_, ts, tracer, logs := tracedServer(t, 1, Config{})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/advise",
		strings.NewReader(`{"machine":"hydra","nodes":2,"collective":"alltoall","comm_size":16}`))
	req.Header.Set("traceparent", upstream)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The response announces the server's span on the same trace.
	tp := resp.Header.Get("traceparent")
	gt, _, flags, ok := rt.ParseTraceparent(tp)
	if !ok || gt.String() != traceID || flags&rt.FlagSampled == 0 {
		t.Fatalf("response traceparent %q does not continue trace %s", tp, traceID)
	}

	byName := spanNames(t, tracer,
		"http /v1/advise", "cache.lookup", "singleflight", "evaluate",
		"advisor.search")

	// Everything rides one thread track named after the injected trace id.
	tid := byName["http /v1/advise"][0].TID
	for name, spans := range byName {
		for _, sp := range spans {
			if sp.TID != tid {
				t.Fatalf("span %q on track %d, want %d (one trace, one track)", name, sp.TID, tid)
			}
		}
	}
	var buf strings.Builder
	if err := obs.WriteTraceJSON(&buf, tracer.Scope()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trace "+traceID) {
		t.Fatalf("exported trace does not name the track after trace %s", traceID)
	}

	// The cache.lookup span recorded the miss.
	if args := byName["cache.lookup"][0].Args; len(args) == 0 || args[0].Key != "hit" || args[0].Val != 0 {
		t.Fatalf("cache.lookup args %v, want hit=0", byName["cache.lookup"][0].Args)
	}

	// The request log line carries the same trace id.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logs.String(), traceID) {
		if time.Now().After(deadline) {
			t.Fatalf("log output never mentioned trace %s:\n%s", traceID, logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	var rec struct {
		Msg     string `json:"msg"`
		Path    string `json:"path"`
		TraceID string `json:"trace_id"`
		Status  int    `json:"status"`
	}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if err := json.Unmarshal([]byte(line), &rec); err == nil && rec.Msg == "request" {
			break
		}
	}
	if rec.Path != "/v1/advise" || rec.TraceID != traceID || rec.Status != 200 {
		t.Fatalf("request log line %+v, want path=/v1/advise trace_id=%s status=200", rec, traceID)
	}
}

// TestErrorBodyCarriesTraceID: the structured 400 envelope quotes the
// trace id that the traceparent response header (and the logs) carry.
func TestErrorBodyCarriesTraceID(t *testing.T) {
	_, ts, _, logs := tracedServer(t, 1, Config{})
	resp, err := http.Post(ts.URL+"/v1/map", "application/json",
		strings.NewReader(`{"hierarchy":"not-a-hierarchy"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error struct {
			Code    int    `json:"code"`
			Status  string `json:"status"`
			TraceID string `json:"trace_id"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.TraceID == "" {
		t.Fatal("error body has no trace_id")
	}
	gt, _, _, ok := rt.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || gt.String() != body.Error.TraceID {
		t.Fatalf("error body trace_id %q != response traceparent %q",
			body.Error.TraceID, resp.Header.Get("traceparent"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logs.String(), body.Error.TraceID) {
		if time.Now().After(deadline) {
			t.Fatalf("log output never mentioned trace %s", body.Error.TraceID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUnsampledRequestLeavesNoTrace: with head sampling off and no
// upstream decision, a successful request commits nothing — but a failing
// one still does (always-sample-on-error).
func TestUnsampledRequestLeavesNoTrace(t *testing.T) {
	srv, ts, tracer, _ := tracedServer(t, -1, Config{Timeout: 50 * time.Millisecond, CacheEntries: -1})
	resp, err := http.Post(ts.URL+"/v1/map", "application/json",
		strings.NewReader(`{"hierarchy":"2,2,4","rank":5}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	time.Sleep(20 * time.Millisecond)
	if n := len(tracer.Scope().Spans()); n != 0 {
		t.Fatalf("unsampled success committed %d spans", n)
	}

	// A timed-out evaluation (504) must be committed despite the head
	// decision: errors always leave a trace.
	srv.AdviseHook = func() { time.Sleep(200 * time.Millisecond) }
	resp, err = http.Post(ts.URL+"/v1/advise", "application/json",
		strings.NewReader(`{"machine":"hydra","nodes":2,"collective":"alltoall","comm_size":16}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	spanNames(t, tracer, "http /v1/advise")
}

// TestSLOEndpointAndHealthDegradation: /v1/slo reports burn rates from a
// deterministic clock, and a fast-burning SLO flips /healthz to degraded
// while the breaker is still closed.
func TestSLOEndpointAndHealthDegradation(t *testing.T) {
	clock := time.Unix(100_000, 0)
	slo := rt.NewSLOTracker(rt.SLOOptions{Now: func() time.Time { return clock }})
	srv := New(Config{SLO: slo})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	// Precondition: healthy, empty SLO report.
	resp, body := get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "healthy") {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}

	// A success and 19 shed-equivalent failures inside the short window:
	// availability 5%, burn 950 ≫ 14 in both short windows.
	slo.Record("advise", 200, time.Millisecond)
	for i := 0; i < 19; i++ {
		slo.Record("advise", 503, time.Millisecond)
	}

	resp, body = get("/v1/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/slo status %d", resp.StatusCode)
	}
	var rep rt.SLOReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("bad /v1/slo body %s: %v", body, err)
	}
	if !rep.FastBurning || len(rep.Endpoints) != 1 || rep.Endpoints[0].Endpoint != "advise" {
		t.Fatalf("report %+v", rep)
	}
	w := rep.Endpoints[0].Windows[0]
	if w.Requests != 20 || w.Errors != 19 {
		t.Fatalf("1m window %+v, want 20 requests 19 errors", w)
	}
	if want := (19.0 / 20.0) / 0.001; w.AvailabilityBurn < want-1e-6 || w.AvailabilityBurn > want+1e-6 {
		t.Fatalf("availability burn %g, want %g", w.AvailabilityBurn, want)
	}

	// Health degrades on the fast burn — breaker untouched.
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "degraded") {
		t.Fatalf("healthz during fast burn = %d %s, want 200 degraded", resp.StatusCode, body)
	}

	// /metrics exposes the published burn gauges.
	_, body = get("/metrics")
	if !strings.Contains(string(body), "slo_burn_rate") || !strings.Contains(string(body), "slo_fast_burning 1") {
		t.Fatalf("/metrics missing SLO series:\n%s", body)
	}

	// 90 virtual seconds later the short window clears: healthy again.
	clock = clock.Add(90 * time.Second)
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "healthy") {
		t.Fatalf("healthz after window rollover = %d %s", resp.StatusCode, body)
	}
}

// TestMiddlewareRecordsSLOPerEndpoint: real requests through the handler
// land in the tracker under their endpoint names.
func TestMiddlewareRecordsSLOPerEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json",
			strings.NewReader(`{"hierarchy":"2,2,4","rank":5}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rep := srv.cfg.SLO.Report()
	if len(rep.Endpoints) != 1 || rep.Endpoints[0].Endpoint != "map" {
		t.Fatalf("report endpoints %+v, want just map", rep.Endpoints)
	}
	if got := rep.Endpoints[0].Windows[0].Requests; got != 3 {
		t.Fatalf("1m window holds %d requests, want 3", got)
	}
}
