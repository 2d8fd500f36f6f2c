package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/commmatrix"
	"repro/internal/fleet"
	"repro/internal/mapd"
	"repro/internal/obs"
	"repro/internal/obs/rt"
	"repro/internal/procmap"
	"repro/internal/topology"
)

const (
	// setupRepeats is how many times a run builds its fleet; setup_s is
	// the median, and the last fleet built is the one measured.
	setupRepeats = 15
	// servingClients is the closed loop's client count (the nproc of the
	// machine the benchmark was sized on).
	servingClients = 2
	// probeOffset is where advise-cold's probes start reading its stream,
	// far past anything a window sends, so probe requests are misses too.
	probeOffset = 1 << 24
	// traceSlicePairs is how many untraced/traced slice pairs the traced
	// half of a run alternates.
	traceSlicePairs = 10
)

// servingSpec is what distinguishes the two serving workloads.
type servingSpec struct {
	next func(i int) request // request i of the timed sequence
	keep func(i int) bool    // whether answer i is checked (safe for concurrent use)
	warm []request           // warm-up pass, sent once per set-up, in order
	// probeNext yields the requests the no-network layer probes send.
	probeNext func(i int) request
	// layers adds the workload's own per-layer probes (traced run only).
	layers func(r *result, rec *spanRec) error
}

func runFleetHot(o options) (*result, error) {
	mix := hotMix(o.seed)
	seen := make([]atomic.Bool, len(mix))
	return runServing(o, servingSpec{
		next:      func(i int) request { return mix[i%len(mix)] },
		keep:      func(i int) bool { return !seen[i%len(mix)].Swap(true) },
		warm:      mix,
		probeNext: func(i int) request { return mix[i%len(mix)] },
		layers:    func(*result, *spanRec) error { return nil },
	})
}

func runAdviseCold(o options) (*result, error) {
	stream, err := newColdStream(o.seed)
	if err != nil {
		return nil, err
	}
	var warm []request
	for _, a := range referenceAdvice {
		warm = append(warm, request{"/v1/advise", mustJSON(a)})
	}
	spec := servingSpec{
		next:      stream.at,
		keep:      func(int) bool { return true },
		warm:      warm,
		probeNext: func(i int) request { return stream.at(probeOffset + i) },
	}
	spec.layers = func(r *result, rec *spanRec) error { return coldLayers(r, rec, stream) }
	return runServing(o, spec)
}

// runServing hosts the fleet, measures the closed loop through the gate
// and checks every kept answer against the in-process evaluation.
func runServing(o options, spec servingSpec) (*result, error) {
	rec := newSpanRec()
	res := &result{correct: true, metrics: map[string]metric{}}
	var setups []float64
	var fh *fleetHost
	var warmBodies [][]byte
	for k := 0; k < setupRepeats; k++ {
		if fh != nil {
			fh.close()
		}
		// Each set-up starts from a collected heap, so collecting the
		// previous fleet's garbage is not charged to it.
		runtime.GC()
		t0 := time.Now()
		var err error
		if fh, err = startFleet(rec); err != nil {
			return nil, err
		}
		if warmBodies, err = warmUp(fh.gateURL, spec.warm); err != nil {
			fh.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var counter atomic.Int64
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servingClients}, Timeout: 60 * time.Second}
	measured := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		measured /= 2 // the other half compares traced with untraced
	}
	heap0, gc0, snap0 := liveHeap(), gcCPU(), fh.snapshot()
	win := closedLoop(client, fh.gateURL, servingClients, measured, spec.next, spec.keep, o.seed, rec, &counter)
	gc1, snap1 := gcCPU(), fh.snapshot()
	heap1 := liveHeap()
	// The traced half alternates short untraced and traced slices, so
	// drift over the run does not show up as tracing overhead.
	var plain, traced window
	if o.trace {
		for k := 0; k < 2*traceSlicePairs; k++ {
			rec.on.Store(k%2 == 1)
			w := closedLoop(client, fh.gateURL, servingClients, measured/(2*traceSlicePairs), spec.next,
				func(int) bool { return false }, o.seed+int64(k+1), rec, &counter)
			if k%2 == 1 {
				traced.merge(w)
			} else {
				plain.merge(w)
			}
		}
		rec.on.Store(false)
	}
	client.CloseIdleConnections()
	fh.close()

	res.attempted, res.failed = len(spec.warm)+win.sent+plain.sent+traced.sent, win.failed+plain.failed+traced.failed
	win.errs = append(append(win.errs, plain.errs...), traced.errs...)
	for _, e := range win.errs {
		res.fail("%s", e)
	}
	if err := checkServed(res, spec, warmBodies, win.kept); err != nil {
		return nil, err
	}
	regrets, err := servedRegrets(spec.warm, warmBodies)
	if err != nil {
		return nil, err
	}

	if !o.trace {
		ops := float64(win.sent-win.failed) / win.elapsed.Seconds()
		note := fmt.Sprintf("(requests through the gate, %d clients, %.1fs)", servingClients, win.elapsed.Seconds())
		return res, res.endToEnd(setups, ops, note, win.lat, regrets, "reference advice answers")
	}

	d := snap1.sub(snap0)
	routeSelf, httpHop := hopTimes(rec.spans())
	setP50 := func(name string, v []float64, unit string) error {
		p, err := percentile(v, 0.50)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.set(name, p, unit, fmt.Sprintf("(n=%d)", len(v)))
		return nil
	}
	if err := setP50("fleet.route_self_us_p50", routeSelf, "us"); err != nil {
		return nil, err
	}
	if err := setP50("mapd.http_hop_us_p50", httpHop, "us"); err != nil {
		return nil, err
	}
	res.set("fleet.attempts_per_req", ratio(d.proxied, float64(win.sent)), "ratio", "")
	res.set("fleet.retries_total", d.retries, "count", "")
	res.set("fleet.fallback_total", d.fallbacks, "count", "")
	res.set("mapd.cache_hit_ratio", ratio(d.hits, d.hits+d.misses), "ratio", fmt.Sprintf("(%.0f hits, %.0f misses)", d.hits, d.misses))
	res.set("mapd.shed_total", d.shed, "count", "")
	res.set("obs.retained_bytes_per_req", ratio(float64(heap1)-float64(heap0)-float64(win.keptBytes()), float64(win.sent)), "B",
		"(live heap growth over the untraced window, less the benchmark's own samples)")
	res.set("runtime.gc_cpu_fraction", gc1.sub(gc0), "ratio", "")
	opsA := float64(plain.sent-plain.failed) / plain.elapsed.Seconds()
	opsB := float64(traced.sent-traced.failed) / traced.elapsed.Seconds()
	res.set("trace_overhead_pct", 100*(opsA-opsB)/opsA, "%", fmt.Sprintf("(%.0f/s untraced, %.0f/s traced)", opsA, opsB))

	if err := handlerProbe(res, spec, warmBodies); err != nil {
		return nil, err
	}
	if err := spec.layers(res, rec); err != nil {
		return nil, err
	}
	setZero(res)
	return res, writeSpans(o, rec)
}

// warmUp sends each request once, in order, and returns the answers.
func warmUp(url string, reqs []request) ([][]byte, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	var bodies [][]byte
	for _, r := range reqs {
		b, err := post(client, url+r.path, r.body, "")
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", r.path, err)
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}

// checkServed compares every kept answer, and the warm-up answers, with
// the in-process evaluation of the same request; a mismatch is a failed
// request. The evaluations run on GOMAXPROCS workers.
func checkServed(res *result, spec servingSpec, warmBodies [][]byte, kept []served) error {
	type job struct {
		req  request
		body []byte
	}
	var jobs []job
	for i, r := range spec.warm {
		jobs = append(jobs, job{r, warmBodies[i]})
	}
	for _, s := range kept {
		jobs = append(jobs, job{spec.next(s.index), s.body})
	}
	var mu sync.Mutex
	var firstErr error
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				want, err := evalInProcess(j.req)
				mu.Lock()
				switch {
				case err != nil && firstErr == nil:
					firstErr = err
				case err == nil && !bytes.Equal(bytes.TrimSpace(want), bytes.TrimSpace(j.body)):
					res.failed++
					res.fail("%s %s: served %s, in-process %s", j.req.path, j.req.body, bytes.TrimSpace(j.body), want)
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return firstErr
}

// evalInProcess answers a request with the mapd.Eval* function the
// serving pipeline uses, serialized as the service serializes it.
func evalInProcess(r request) ([]byte, error) {
	var resp any
	var err error
	switch r.path {
	case "/v1/map":
		var q mapd.MapRequest
		if err = json.Unmarshal(r.body, &q); err == nil {
			resp, err = mapd.EvalMap(q)
		}
	case "/v1/metrics/order":
		var q mapd.OrderMetricsRequest
		if err = json.Unmarshal(r.body, &q); err == nil {
			resp, err = mapd.EvalOrderMetrics(q)
		}
	case "/v1/select":
		var q mapd.SelectRequest
		if err = json.Unmarshal(r.body, &q); err == nil {
			resp, err = mapd.EvalSelect(q)
		}
	case "/v1/advise":
		var q mapd.AdviseRequest
		if err = json.Unmarshal(r.body, &q); err == nil {
			resp, err = mapd.EvalAdviseOpts(context.Background(), q, mapd.AdviseOptions{})
		}
	case "/v1/map/matrix":
		var q mapd.MatrixMapRequest
		if err = json.Unmarshal(r.body, &q); err == nil {
			resp, err = mapd.EvalMatrixMap(context.Background(), q)
		}
	default:
		err = fmt.Errorf("no in-process evaluation for %s", r.path)
	}
	if err != nil {
		return nil, fmt.Errorf("in-process %s %s: %w", r.path, r.body, err)
	}
	return json.Marshal(resp)
}

// servedRegrets simulates every order of each reference advise request
// among reqs and returns the regret of the top order the fleet served.
func servedRegrets(reqs []request, bodies [][]byte) ([]float64, error) {
	var out []float64
	for i, r := range reqs {
		if r.path != "/v1/advise" {
			continue
		}
		var q mapd.AdviseRequest
		var resp mapd.AdviseResponse
		if err := json.Unmarshal(r.body, &q); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(bodies[i], &resp); err != nil {
			return nil, fmt.Errorf("served advise answer: %w", err)
		}
		if len(resp.Best) == 0 {
			return nil, fmt.Errorf("served advise answer has no orders")
		}
		sc, err := newScenario(q.Machine, q.Nodes, q.Collective, q.CommSize)
		if err != nil {
			return nil, err
		}
		bw := map[string]float64{}
		for _, sigma := range sc.orders {
			pt, err := sc.measure(sigma, q.Simultaneous)
			if err != nil {
				return nil, err
			}
			bw[orderKey(sigma)] = pt
		}
		reg, err := regret(bw, resp.Best[0].Order)
		if err != nil {
			return nil, err
		}
		out = append(out, reg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no reference advice among the warm-up requests")
	}
	return out, nil
}

// handlerProbe measures the replica handler and the gate without any
// network: the workload's requests go through httptest recorders, first
// to a fresh replica's mapd.Server.Handler, then to a gate whose
// fleet.Config.Client answers every proxied request from a canned reply.
// Allocations include the recorder's and (for the gate) the canned
// transport's few.
func handlerProbe(res *result, spec servingSpec, warmBodies [][]byte) error {
	srv := newReplica("probe")
	h := srv.Handler()
	for _, r := range spec.warm {
		serveRecorded(h, r)
	}
	const calls = 400
	reqs := make([]request, calls)
	for i := range reqs {
		reqs[i] = spec.probeNext(i)
	}
	lat, allocs := probeLoop(h, reqs, 1)
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return err
	}
	res.set("mapd.handler_us_p50", p50, "us", fmt.Sprintf("(n=%d, httptest, no network)", len(lat)))
	res.set("mapd.allocs_per_req", allocs, "count", "")

	g, err := fleet.New(fleet.Config{
		Replicas: []string{"http://replica-a.invalid", "http://replica-b.invalid"},
		Client:   &http.Client{Transport: cannedTransport{body: warmBodies[0]}},
		Tracer:   rt.NewTracer(rt.Options{Service: "mrgate"}),
		Logger:   discardLogger(),
	})
	if err != nil {
		return err
	}
	_, allocs = probeLoop(g.Handler(), reqs, 10)
	res.set("fleet.allocs_per_req", allocs, "count", "(gate alone, canned replica reply)")
	return nil
}

// probeLoop serves reqs rounds times through h and returns each call's
// duration in µs and the mean allocations per call.
func probeLoop(h http.Handler, reqs []request, rounds int) ([]float64, float64) {
	var lat []float64
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < rounds; k++ {
		for _, r := range reqs {
			t0 := time.Now()
			serveRecorded(h, r)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	runtime.ReadMemStats(&m1)
	return lat, float64(m1.Mallocs-m0.Mallocs) / float64(len(lat))
}

func serveRecorded(h http.Handler, r request) {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	h.ServeHTTP(httptest.NewRecorder(), req)
}

// coldLayers replays advise-cold's first requests straight into the
// advisor and procmap entry points, each call a span: advisor.Rank for
// hierarchies the service ranks exhaustively, advisor.SearchOrders for
// deeper ones, procmap.Map for matrix requests.
func coldLayers(res *result, rec *spanRec, stream *coldStream) error {
	const adviseCalls, matrixCalls = 1200, 150
	var advise []mapd.AdviseRequest
	var matrix []mapd.MatrixMapRequest
	for i := 0; len(advise) < adviseCalls || len(matrix) < matrixCalls; i++ {
		r := stream.at(i)
		switch r.path {
		case "/v1/advise":
			var q mapd.AdviseRequest
			if err := json.Unmarshal(r.body, &q); err != nil {
				return err
			}
			if len(advise) < adviseCalls {
				advise = append(advise, q)
			}
		case "/v1/map/matrix":
			var q mapd.MatrixMapRequest
			if err := json.Unmarshal(r.body, &q); err != nil {
				return err
			}
			if len(matrix) < matrixCalls {
				matrix = append(matrix, q)
			}
		}
	}

	reg := obs.NewRegistry()
	var mu sync.Mutex
	var classes, nodes, searches float64
	var firstErr error
	ch := make(chan mapd.AdviseRequest)
	var wg sync.WaitGroup
	rec.on.Store(true)
	for w := 0; w < servingClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range ch {
				c, n, deep, err := adviseCall(rec, reg, q)
				mu.Lock()
				classes += c
				if deep {
					nodes += n
					searches++
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, q := range advise {
		ch <- q
	}
	close(ch)
	wg.Wait()
	if firstErr != nil {
		rec.on.Store(false)
		return firstErr
	}

	var swaps float64
	for _, q := range matrix {
		h, err := topology.Parse(q.Hierarchy)
		if err != nil {
			return err
		}
		m, err := commmatrix.FromSparse(q.Matrix)
		if err != nil {
			return err
		}
		_, init, _, _, err := procmap.BestOrder(m, h, nil)
		if err != nil {
			return err
		}
		var pr *procmap.Result
		rec.timed("procmap.Map", func() {
			pr, err = procmap.Map(context.Background(), m, h, procmap.Options{Seed: q.Seed, InitPlacement: init})
		})
		if err != nil {
			return err
		}
		swaps += float64(pr.Swaps)
	}
	rec.on.Store(false)

	spans := rec.spans()
	rank := callDurations(spans, "advisor.Rank", "", 0)
	search := callDurations(spans, "advisor.SearchOrders", "", 0)
	calls := append(append([]float64(nil), rank...), search...)
	maps := callDurations(spans, "procmap.Map", "", 0)
	for _, c := range []struct {
		name string
		v    []float64
		q    float64
	}{
		{"advisor.rank_ms_p50", rank, 0.5},
		{"advisor.search_ms_p50", search, 0.5},
		{"advisor.call_ms_p99", calls, 0.99},
		{"procmap.map_ms_p50", maps, 0.5},
	} {
		v, err := percentile(c.v, c.q)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		res.set(c.name, v, "ms", fmt.Sprintf("(n=%d)", len(c.v)))
	}
	sum := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / 1e3
	}
	hits, misses := reg.SumCounters("advisor_class_hits_total"), reg.SumCounters("advisor_class_misses_total")
	res.set("advisor.busy_s", sum(calls), "s", fmt.Sprintf("(%d calls on %d goroutines)", len(calls), servingClients))
	res.set("advisor.classes_per_call", ratio(classes, float64(len(calls))), "count", "")
	res.set("advisor.class_hit_ratio", ratio(hits, hits+misses), "ratio", "")
	res.set("advisor.bnb_nodes_per_call", ratio(nodes, searches), "count", fmt.Sprintf("(%.0f searches)", searches))
	res.set("procmap.busy_s", sum(maps), "s", fmt.Sprintf("(%d calls)", len(maps)))
	res.set("procmap.swaps_per_call", ratio(swaps, float64(len(maps))), "count", "")
	return nil
}

// adviseCall runs the advisor entry point the service would for q and
// returns the classes it evaluated and, for the bounded search, the
// prefix-tree nodes it visited.
func adviseCall(rec *spanRec, reg *obs.Registry, q mapd.AdviseRequest) (classes, nodes float64, deep bool, err error) {
	var spec = cluster.Hydra(q.Nodes, 1)
	switch q.Machine {
	case "lumi":
		spec = cluster.LUMI(q.Nodes)
	case "cloud":
		spec = cluster.Cloud(q.Depth)
	}
	sc := advisor.Scenario{
		Spec:         spec,
		Hierarchy:    spec.Hierarchy(),
		Coll:         advisor.Collective(q.Collective),
		CommSize:     q.CommSize,
		Simultaneous: q.Simultaneous,
		Bytes:        q.Bytes,
	}
	if sc.Hierarchy.Depth() > mapd.DefaultSearchDepthThreshold {
		var sr *advisor.SearchResult
		rec.timed("advisor.SearchOrders", func() {
			sr, err = advisor.SearchOrders(context.Background(), sc, advisor.SearchOptions{Top: 5, Registry: reg})
		})
		if err != nil {
			return 0, 0, true, err
		}
		return float64(sr.Evaluated), float64(sr.Nodes), true, nil
	}
	var stats advisor.RankStats
	rec.timed("advisor.Rank", func() {
		_, err = advisor.Rank(context.Background(), sc, nil, advisor.RankOptions{
			Registry: reg,
			OnStats:  func(s advisor.RankStats) { stats = s },
		})
	})
	return float64(stats.Classes), 0, false, err
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// cpuStats are cumulative GC and total CPU seconds.
type cpuStats struct{ gc, total float64 }

func gcCPU() cpuStats {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuStats{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// sub is the GC share of CPU time between two readings.
func (a cpuStats) sub(b cpuStats) float64 {
	if a.total <= b.total {
		return 0
	}
	return (a.gc - b.gc) / (a.total - b.total)
}
