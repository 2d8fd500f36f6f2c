package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/mapd"
	"repro/internal/obs/rt"
)

// numReplicas is the fleet's size: two replicas behind one gate.
const numReplicas = 2

// fleetHost is the fleet hosted inside the benchmark process: replicas
// and gate on loopback listeners, each built as mrserved and mrgate build
// theirs at default flags (a tracer sampling every request, a text logger
// writing nowhere, package defaults for the rest). The one addition is
// the gate's proxy client, which is the package default's transport
// wrapped in recTransport so the traced run can time each hop.
type fleetHost struct {
	replicas []*mapd.Server
	gate     *fleet.Router
	gateURL  string
	servers  []*http.Server
	proxy    *http.Transport
	wg       sync.WaitGroup
}

func startFleet(rec *spanRec) (*fleetHost, error) {
	fh := &fleetHost{proxy: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64}}
	var urls, names []string
	for i := 0; i < numReplicas; i++ {
		name := fmt.Sprintf("r%d", i)
		srv := newReplica(name)
		url, err := fh.listen(rec.handler(pidReplica, "replica "+name, srv.Handler()))
		if err != nil {
			fh.close()
			return nil, err
		}
		fh.replicas = append(fh.replicas, srv)
		urls, names = append(urls, url), append(names, name)
	}
	g, err := fleet.New(fleet.Config{
		Replicas: urls,
		Names:    names,
		Client:   &http.Client{Transport: recTransport{rec: rec, inner: fh.proxy}},
		Tracer:   rt.NewTracer(rt.Options{Service: "mrgate"}),
		Logger:   discardLogger(),
	})
	if err != nil {
		fh.close()
		return nil, err
	}
	g.Start(context.Background())
	fh.gate = g
	if fh.gateURL, err = fh.listen(rec.handler(pidGate, "gate", g.Handler())); err != nil {
		fh.close()
		return nil, err
	}
	if err := fh.waitHealthy(); err != nil {
		fh.close()
		return nil, err
	}
	return fh, nil
}

func newReplica(name string) *mapd.Server {
	return mapd.New(mapd.Config{
		Name:   name,
		Tracer: rt.NewTracer(rt.Options{Service: "mrserved"}),
		Logger: discardLogger(),
	})
}

func discardLogger() *slog.Logger { return rt.NewTextLogger(io.Discard, slog.LevelInfo) }

func (fh *fleetHost) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
	fh.servers = append(fh.servers, hs)
	fh.wg.Add(1)
	go func() {
		defer fh.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// waitHealthy polls the gate's GET /v1/fleet until every replica reports
// healthy.
func (fh *fleetHost) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(fh.gateURL + "/v1/fleet")
		if err == nil {
			var st struct {
				Replicas []struct{ State string } `json:"replicas"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			healthy := 0
			for _, r := range st.Replicas {
				if r.State == "healthy" {
					healthy++
				}
			}
			if err == nil && healthy == numReplicas {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not healthy after 10s (last error %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the health checker and every server and waits for them.
func (fh *fleetHost) close() {
	if fh.gate != nil {
		fh.gate.Stop()
	}
	for _, s := range fh.servers {
		_ = s.Close()
	}
	fh.wg.Wait()
	fh.proxy.CloseIdleConnections()
}

// gateCounter and replicaCounter sum a counter over the gate's registry
// or over every replica's.
func (fh *fleetHost) gateCounter(name string) float64 { return fh.gate.Registry().SumCounters(name) }

func (fh *fleetHost) replicaCounter(name string) float64 {
	var sum float64
	for _, r := range fh.replicas {
		sum += r.Registry().SumCounters(name)
	}
	return sum
}

// served is one answer a client kept for the correctness check.
type served struct {
	index int // request index in the workload's sequence
	body  []byte
}

// window is the outcome of one closed-loop measuring window.
type window struct {
	elapsed time.Duration
	lat     []float64 // ms, successful requests only
	at      []float64 // completion time of each lat sample, s since the window began
	sent    int
	failed  int
	kept    []served
	errs    []string
}

// keptBytes is the benchmark's own storage in a window, which the
// retained-heap metric must not charge to the program.
func (w *window) keptBytes() int {
	n := cap(w.lat)*8 + cap(w.at)*8 + cap(w.kept)*40
	for _, s := range w.kept {
		n += cap(s.body)
	}
	return n
}

var degradedMark = []byte(`"degraded":true`)

// closedLoop runs clients that each send their next request as soon as
// the previous answer arrives, until the deadline; requests in flight at
// the deadline finish and count. next yields request i of the workload
// (i counts across clients), keep says whether the answer to request i
// is kept for the correctness check.
func closedLoop(client *http.Client, url string, clients int, dur time.Duration, next func(i int) request, keep func(i int) bool, seed int64, rec *spanRec, counter *atomic.Int64) *window {
	per := make([]*window, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		w := &window{}
		per[c] = w
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(counter.Add(1) - 1)
				req := next(i)
				tp, trace := newTraceparent(rng)
				t0 := time.Now()
				body, err := post(client, url+req.path, req.body, tp)
				t1 := time.Now()
				if rec.on.Load() {
					rec.add(pidClient, "client "+req.path, t0, t1, trace)
				}
				w.sent++
				if err == nil && bytes.Contains(body, degradedMark) {
					err = fmt.Errorf("degraded answer")
				}
				if err != nil {
					w.failed++
					if len(w.errs) < 5 {
						w.errs = append(w.errs, fmt.Sprintf("request %d %s: %v", i, req.path, err))
					}
					continue
				}
				w.lat = append(w.lat, float64(t1.Sub(t0).Nanoseconds())/1e6)
				w.at = append(w.at, t1.Sub(start).Seconds())
				if keep(i) {
					w.kept = append(w.kept, served{i, body})
				}
			}
		}()
	}
	wg.Wait()
	all := &window{}
	for _, w := range per {
		all.merge(w)
		all.kept = append(all.kept, w.kept...)
	}
	all.elapsed = time.Since(start)
	return all
}

// merge adds w's counts and samples to all (answers are not merged).
func (all *window) merge(w *window) {
	all.elapsed += w.elapsed
	all.lat = append(all.lat, w.lat...)
	all.at = append(all.at, w.at...)
	all.sent += w.sent
	all.failed += w.failed
	all.errs = append(all.errs, w.errs...)
}

// newTraceparent makes the client's sampled traceparent and the key the
// benchmark's spans use for it.
func newTraceparent(rng *rand.Rand) (string, int64) {
	var tid rt.TraceID
	var sid rt.SpanID
	lo := rng.Uint64() | 1
	hi, s := rng.Uint64(), rng.Uint64()|1
	for i := 0; i < 8; i++ {
		tid[i] = byte(hi >> (56 - 8*i))
		tid[8+i] = byte(lo >> (56 - 8*i))
		sid[i] = byte(s >> (56 - 8*i))
	}
	return rt.FormatTraceparent(tid, sid, rt.FlagSampled), int64(lo)
}

// post sends one request and returns the body of a 200 answer.
func post(client *http.Client, url string, body []byte, traceparent string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// registrySnapshot holds the counters the per-layer metrics are deltas of.
type registrySnapshot struct {
	proxied, retries, fallbacks, hits, misses, shed float64
}

func (fh *fleetHost) snapshot() registrySnapshot {
	return registrySnapshot{
		proxied:   fh.gateCounter("fleet_requests_total"),
		retries:   fh.gateCounter("fleet_retries_total"),
		fallbacks: fh.gateCounter("fleet_fallback_total"),
		hits:      fh.replicaCounter("mapd_cache_hits_total"),
		misses:    fh.replicaCounter("mapd_cache_misses_total"),
		shed:      fh.replicaCounter("mapd_shed_total"),
	}
}

func (a registrySnapshot) sub(b registrySnapshot) registrySnapshot {
	return registrySnapshot{
		proxied: a.proxied - b.proxied, retries: a.retries - b.retries, fallbacks: a.fallbacks - b.fallbacks,
		hits: a.hits - b.hits, misses: a.misses - b.misses, shed: a.shed - b.shed,
	}
}

// cannedTransport answers every proxied request with the same 200 body,
// so the gate's own cost can be measured with no replica behind it.
type cannedTransport struct{ body []byte }

func (t cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(t.body)),
		Request:    req,
	}, nil
}
