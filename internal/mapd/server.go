// The HTTP/JSON service: four query endpoints behind a shared
// cache → singleflight → evaluate pipeline, a Prometheus /metrics
// endpoint, and structured error responses. Every request is bounded — a
// body-size cap before parsing, validation limits in parse.go, and a
// per-evaluation timeout — so the daemon stays predictable under abusive
// or accidental load.
//
// Telemetry wraps the whole pipeline: a middleware extracts/injects W3C
// traceparent headers and opens the request's root span, the cache,
// singleflight, breaker-fallback and evaluation stages annotate child
// spans, one structured log line per request carries the trace id, every
// error body quotes it, and each request outcome feeds the rolling SLO
// burn-rate tracker surfaced on /v1/slo, /metrics, and /healthz.

package mapd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/obs/rt"
)

// Config tunes a Server. The zero value picks production defaults.
type Config struct {
	// CacheEntries bounds the result cache (default 4096; negative
	// disables caching).
	CacheEntries int
	// CacheShards is the shard count of the cache (default 16, rounded up
	// to a power of two).
	CacheShards int
	// MaxBody caps the request body in bytes (default 1 MiB).
	MaxBody int64
	// Timeout bounds one evaluation (default 10 s). Evaluations run on a
	// context detached from the client connection so a singleflight result
	// survives its first requester hanging up.
	Timeout time.Duration
	// MaxInflight caps concurrently served requests; excess requests are
	// shed with 503 + Retry-After instead of queueing without bound
	// (default 512; negative disables shedding).
	MaxInflight int
	// BreakerThreshold opens the advisor circuit breaker after this many
	// consecutive evaluation failures (default 5; negative disables the
	// breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting a
	// probe evaluation through (default 10 s).
	BreakerCooldown time.Duration
	// MatrixBudget bounds one matrix-aware placement search. A search that
	// exceeds it degrades to the σ-order fallback (answered 200, flagged
	// degraded, uncached) instead of failing with 504 (default: Timeout).
	MatrixBudget time.Duration
	// Registry receives the service metrics (default: a fresh registry).
	Registry *obs.Registry
	// Tracer records request-scoped spans (nil disables tracing; every
	// instrumentation point is nil-safe).
	Tracer *rt.Tracer
	// Logger receives one structured line per request plus error-path
	// diagnostics, trace-correlated when Tracer is set (default: discard).
	Logger *slog.Logger
	// SLO tracks rolling burn rates per endpoint (default: a tracker with
	// rt.SLOOptions defaults). Fast-burning SLOs degrade /healthz.
	SLO *rt.SLOTracker
	// StatsClasses is the Space-Saving capacity K of the workload
	// analytics behind GET /v1/stats: at most this many shape classes are
	// tracked individually (default DefaultStatsClasses).
	StatsClasses int
	// Name identifies this replica in a fleet: when set, every response
	// carries it in the x-mr-replica header so routers and load generators
	// can attribute latency to the replica that actually served.
	Name string
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 512
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.MatrixBudget <= 0 {
		c.MatrixBudget = c.Timeout
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.SLO == nil {
		c.SLO = rt.NewSLOTracker(rt.SLOOptions{})
	}
	return c
}

// Server is the mapping-advisory service.
type Server struct {
	cfg     Config
	cache   *Cache
	flight  flightGroup
	reg     *obs.Registry
	breaker *breaker // nil when disabled
	slo     *rt.SLOTracker
	logger  *slog.Logger
	stats   *workloadStats
	search  *progressTable

	inflightN atomic.Int64 // shedding decision
	draining  atomic.Bool

	inflight        *obs.Gauge
	shared          *obs.Counter
	evals           *obs.Counter
	shed            *obs.Counter
	fallbacks       *obs.Counter
	matrixFallbacks *obs.Counter

	// AdviseHook, when non-nil, runs inside each advise evaluation before
	// the order search starts. Tests use it as a synchronization point and
	// as a fault injector for the circuit breaker.
	AdviseHook func()
	// MatrixHook is AdviseHook's matrix-map counterpart; it runs inside the
	// evaluation, already under the MatrixBudget deadline.
	MatrixHook func()
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:             cfg,
		cache:           NewCache(cfg.CacheEntries, cfg.CacheShards),
		reg:             cfg.Registry,
		slo:             cfg.SLO,
		logger:          cfg.Logger,
		stats:           newWorkloadStats(cfg.StatsClasses),
		search:          newProgressTable(defaultProgressRecent),
		inflight:        cfg.Registry.Gauge("mapd_inflight_requests"),
		shared:          cfg.Registry.Counter("mapd_singleflight_shared_total"),
		evals:           cfg.Registry.Counter("mapd_advise_evals_total"),
		shed:            cfg.Registry.Counter("mapd_shed_total"),
		fallbacks:       cfg.Registry.Counter("mapd_advise_fallback_total"),
		matrixFallbacks: cfg.Registry.Counter("mapd_matrix_fallback_total"),
	}
	for name, help := range map[string]string{
		"mapd_requests_total":                         "Requests served, by endpoint and HTTP status code.",
		"mapd_request_seconds":                        "End-to-end request latency, by endpoint.",
		"mapd_cache_hits_total":                       "Result-cache hits, by endpoint.",
		"mapd_cache_misses_total":                     "Result-cache misses, by endpoint.",
		"mapd_inflight_requests":                      "Requests currently being served.",
		"mapd_singleflight_shared_total":              "Evaluations shared between concurrent identical requests.",
		"mapd_advise_evals_total":                     "Full advisor order-search evaluations started.",
		"mapd_shed_total":                             "Requests shed by the in-flight cap.",
		"mapd_advise_fallback_total":                  "Answers served by the breaker-open fallback, any guarded endpoint.",
		"mapd_matrix_fallback_total":                  "Matrix-map answers degraded to the σ-order baseline (breaker open or over budget).",
		"mapd_breaker_state":                          "Advisor circuit breaker state (0 closed, 1 open, 2 half-open).",
		"advisor_search_seconds":                      "Order-search latency, by search mode (bnb/beam/matrix/fallback).",
		"advisor_search_nodes":                        "Live search progress: nodes expanded by the in-flight bounded search, by mode.",
		"advisor_search_incumbent_seconds":            "Live search progress: best completion time found so far, by mode.",
		"advisor_search_bound_gap":                    "Live search progress: (incumbent − root bound)/incumbent, by mode.",
		"advisor_search_incumbent_improvements_total": "Live search progress: incumbent-improvement events, by mode.",
		"procmap_map_seconds":                         "Matrix-aware placement latency (σ baseline + greedy + refinement).",
		"procmap_refine_swaps_total":                  "Pairwise swaps applied by matrix-aware refinement.",
		"procmap_improvement_pct":                     "Matrix-aware win over the best σ order, percent (last request).",
		"advisor_class_hits_total":                    "Orders served from an equivalence-class representative, by search mode.",
		"advisor_class_misses_total":                  "Order evaluations actually performed, by search mode.",
		"mapd_stats_class_requests":                   "Workload analytics: requests by canonical shape class (Space-Saving top-K).",
		"mapd_stats_class_hit_rate":                   "Workload analytics: cache hit rate by canonical shape class.",
		"mapd_stats_depth_requests":                   "Workload analytics: requests by hierarchy depth.",
		"mapd_stats_collective_requests":              "Workload analytics: advise requests by collective.",
		"mapd_stats_search_requests":                  "Workload analytics: order searches by mode (bnb/beam/matrix/fallback).",
		"mapd_stats_endpoint_requests":                "Workload analytics: requests by API endpoint.",
		"mapd_stats_tracked_classes":                  "Workload analytics: shape classes currently tracked (≤ K).",
		"mapd_stats_distinct_classes_estimate":        "Workload analytics: sketch estimate of distinct shape classes seen.",
		"mapd_stats_class_evictions":                  "Workload analytics: top-K evictions (count-error churn indicator).",
		"mapd_stats_cache_hit_rate":                   "Workload analytics: overall cache hit rate.",
	} {
		cfg.Registry.SetHelp(name, help)
	}
	s.flight.onShared = func() { s.shared.Add(1) }
	if cfg.BreakerThreshold > 0 {
		s.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil)
		state := cfg.Registry.Gauge("mapd_breaker_state")
		state.Set(float64(breakerClosed))
		s.breaker.onState = func(st breakerState) { state.Set(float64(st)) }
	}
	return s
}

// StartDraining moves the server into the draining state: /healthz reports
// draining with 503 so load balancers stop routing here, and new API
// requests are refused while in-flight ones complete.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Registry returns the server's metric registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the service's HTTP handler:
//
//	POST /v1/map            rank ⇄ coordinates (Algorithms 1–2)
//	POST /v1/advise         rank the k! orders analytically (§5)
//	POST /v1/select         --cpu-bind=map_cpu core list (Algorithm 3)
//	POST /v1/metrics/order  ring cost & pairs per level (§3.3)
//	GET  /metrics           Prometheus exposition of the registry
//	GET  /v1/stats          cardinality-bounded workload analytics
//	GET  /v1/advise/progress  live progress of in-flight order searches
//	GET  /v1/slo            rolling SLO burn rates per endpoint
//	GET  /healthz           liveness probe
//
// The returned handler is wrapped in the telemetry middleware: W3C
// traceparent extraction/injection, per-request structured logging, and
// SLO recording.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/map", s.serve("map", func(body []byte) (string, computeFunc, *statInfo, error) {
		var req MapRequest
		if err := decodeStrict(body, &req); err != nil {
			return "", nil, nil, err
		}
		q, err := req.parse()
		if err != nil {
			return "", nil, nil, err
		}
		info := &statInfo{shape: q.arities}
		return q.Key(), func(context.Context) (any, error) { return evalMap(q) }, info, nil
	}))
	mux.HandleFunc("/v1/advise", s.serveGuarded("advise", func(body []byte) (string, computeFunc, computeFunc, *statInfo, error) {
		var req AdviseRequest
		if err := decodeStrict(body, &req); err != nil {
			return "", nil, nil, nil, err
		}
		q, err := req.parse()
		if err != nil {
			return "", nil, nil, nil, err
		}
		compute := func(ctx context.Context) (any, error) {
			if s.AdviseHook != nil {
				s.AdviseHook()
			}
			s.evals.Add(1)
			// Deep searches can run for seconds; every search registers
			// with the live-progress table on GET /v1/advise/progress.
			h := s.search.start(q.Key())
			defer h.finish()
			resp, err := evalAdvise(ctx, q, AdviseOptions{Search: advisor.SearchOptions{
				Registry: s.reg,
				OnStats:  func(rs advisor.RankStats) { s.stats.observeSearch(rs.Mode) },
				Progress: h.update,
			}})
			if s.breaker != nil {
				// Client errors say nothing about the service's health.
				s.breaker.Record(err == nil || errors.Is(err, ErrBadRequest))
			}
			return resp, err
		}
		fallback := func(context.Context) (any, error) { return evalAdviseFallback(q) }
		info := &statInfo{shape: q.spec.Hierarchy().Arities(), coll: string(q.coll)}
		return q.Key(), compute, fallback, info, nil
	}))
	mux.HandleFunc("/v1/map/matrix", s.serveGuarded("map_matrix", func(body []byte) (string, computeFunc, computeFunc, *statInfo, error) {
		var req MatrixMapRequest
		if err := decodeStrict(body, &req); err != nil {
			return "", nil, nil, nil, err
		}
		q, err := req.parse()
		if err != nil {
			return "", nil, nil, nil, err
		}
		compute := func(ctx context.Context) (any, error) {
			start := time.Now()
			mctx, cancel := context.WithTimeout(ctx, s.cfg.MatrixBudget)
			defer cancel()
			if s.MatrixHook != nil {
				s.MatrixHook()
			}
			resp, err := evalMatrixMap(mctx, q)
			if err != nil && mctx.Err() != nil && ctx.Err() == nil {
				// Over budget: degrade to the σ-order baseline instead of
				// failing. Counted as a breaker failure — a stream of
				// over-budget searches should open the breaker and route
				// straight to the cheap path.
				if s.breaker != nil {
					s.breaker.Record(false)
				}
				fresp, ferr := evalMatrixMapFallback(q)
				if ferr != nil {
					return nil, err
				}
				s.matrixFallbacks.Add(1)
				s.recordMatrixSearch(advisor.ModeFallback, fresp, time.Since(start))
				return fresp, nil
			}
			if s.breaker != nil {
				s.breaker.Record(err == nil || errors.Is(err, ErrBadRequest))
			}
			if err == nil {
				s.reg.Histogram("procmap_map_seconds", obs.SearchBuckets()).
					Observe(time.Since(start).Seconds())
				s.reg.Counter("procmap_refine_swaps_total").AddInt(int64(resp.Swaps))
				s.reg.Gauge("procmap_improvement_pct").Set(resp.ImprovementPct)
				s.recordMatrixSearch(ModeMatrix, resp, time.Since(start))
			}
			return resp, err
		}
		fallback := func(context.Context) (any, error) { return evalMatrixMapFallback(q) }
		info := &statInfo{shape: q.arities}
		return q.Key(), compute, fallback, info, nil
	}))
	mux.HandleFunc("/v1/select", s.serve("select", func(body []byte) (string, computeFunc, *statInfo, error) {
		var req SelectRequest
		if err := decodeStrict(body, &req); err != nil {
			return "", nil, nil, err
		}
		q, err := req.parse()
		if err != nil {
			return "", nil, nil, err
		}
		info := &statInfo{shape: q.arities}
		return q.Key(), func(context.Context) (any, error) { return evalSelect(q) }, info, nil
	}))
	mux.HandleFunc("/v1/metrics/order", s.serve("metrics_order", func(body []byte) (string, computeFunc, *statInfo, error) {
		var req OrderMetricsRequest
		if err := decodeStrict(body, &req); err != nil {
			return "", nil, nil, err
		}
		q, err := req.parse()
		if err != nil {
			return "", nil, nil, err
		}
		info := &statInfo{shape: q.arities}
		return q.Key(), func(context.Context) (any, error) { return evalOrderMetrics(q) }, info, nil
	}))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(r.Context(), w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		s.slo.Publish(s.reg)
		s.stats.publish(s.reg)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.WritePrometheus(w, s.reg)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(r.Context(), w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		b, err := json.Marshal(s.stats.report())
		if err != nil {
			writeError(r.Context(), w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, append(b, '\n'))
	})
	mux.HandleFunc("/v1/advise/progress", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(r.Context(), w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		b, err := json.Marshal(s.search.report())
		if err != nil {
			writeError(r.Context(), w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, append(b, '\n'))
	})
	mux.HandleFunc("/v1/slo", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(r.Context(), w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		b, err := json.Marshal(s.slo.Report())
		if err != nil {
			writeError(r.Context(), w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, append(b, '\n'))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status, code := s.health()
		w.Header().Set("Content-Type", "application/json")
		if code != http.StatusOK {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(code)
		}
		_, _ = w.Write([]byte(`{"status":"` + status + `"}` + "\n"))
	})
	return s.withTelemetry(mux)
}

// recordMatrixSearch labels one matrix-map placement search in the
// advisor_search_* series and the workload analytics, so dashboards see
// matrix searches alongside the advisor's bnb/beam/fallback modes.
func (s *Server) recordMatrixSearch(mode string, resp *MatrixMapResponse, elapsed time.Duration) {
	ml := obs.L("mode", mode)
	s.reg.Counter("advisor_class_misses_total", ml).AddInt(resp.OrdersEvaluated)
	s.reg.Histogram("advisor_search_seconds", obs.SearchBuckets(), ml).Observe(elapsed.Seconds())
	s.stats.observeSearch(mode)
}

// health resolves the tri-state /healthz answer: draining beats degraded
// beats healthy. Degraded (advisor breaker not closed, or an SLO burning
// fast enough to page) still returns 200 — the service answers, just from
// cache or heuristics. The SLO check fires on sustained elevated error or
// latency rates, degrading health before the breaker's consecutive-failure
// counter ever trips.
func (s *Server) health() (string, int) {
	switch {
	case s.draining.Load():
		return "draining", http.StatusServiceUnavailable
	case s.breaker != nil && s.breaker.State() != breakerClosed:
		return "degraded", http.StatusOK
	case s.slo.FastBurning():
		return "degraded", http.StatusOK
	default:
		return "healthy", http.StatusOK
	}
}

// statusWriter captures the response code and size for logging and SLO
// accounting.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// apiEndpoint maps a request path to its SLO endpoint name; only the
// query endpoints are tracked, keeping label cardinality bounded.
func apiEndpoint(path string) (string, bool) {
	switch path {
	case "/v1/map":
		return "map", true
	case "/v1/map/matrix":
		return "map_matrix", true
	case "/v1/advise":
		return "advise", true
	case "/v1/select":
		return "select", true
	case "/v1/metrics/order":
		return "metrics_order", true
	default:
		return "", false
	}
}

// withTelemetry is the outermost middleware: it opens the request's root
// span (continuing an upstream traceparent when present), injects the
// traceparent response header so clients can quote the trace, records the
// outcome into the SLO tracker, and emits one structured log line.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.cfg.Name != "" {
			w.Header().Set("x-mr-replica", s.cfg.Name)
		}
		ctx, span := s.cfg.Tracer.StartRequest(r.Context(), "http "+r.URL.Path, r.Header.Get("traceparent"))
		if tp := span.Traceparent(); tp != "" {
			w.Header().Set("traceparent", tp)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		if ep, ok := apiEndpoint(r.URL.Path); ok {
			s.slo.Record(ep, sw.code, elapsed)
		}
		span.SetAttr("http_status", int64(sw.code))
		if sw.code >= http.StatusInternalServerError {
			span.SetError()
		}
		span.End()
		level := slog.LevelInfo
		switch {
		case sw.code >= http.StatusInternalServerError:
			level = slog.LevelError
		case sw.code >= http.StatusBadRequest:
			level = slog.LevelWarn
		}
		s.logger.LogAttrs(ctx, level, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("elapsed", elapsed),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// computeFunc evaluates one parsed request.
type computeFunc func(ctx context.Context) (any, error)

// parseFunc turns a request body into a canonical cache key, a compute
// closure, and the workload-analytics attribution of the request.
// Returned errors are client errors.
type parseFunc func(body []byte) (string, computeFunc, *statInfo, error)

// guardedParseFunc additionally yields a cheap fallback evaluation served
// (uncached) while the endpoint's circuit breaker is open.
type guardedParseFunc func(body []byte) (string, computeFunc, computeFunc, *statInfo, error)

// decodeStrict unmarshals JSON rejecting unknown fields and trailing data,
// so typos fail loudly instead of silently evaluating defaults.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badf("invalid JSON: %v", err)
	}
	if dec.More() {
		return badf("invalid JSON: trailing data after request object")
	}
	return nil
}

// serve wraps an endpoint with the shared pipeline: overload shedding,
// method check, body limit, parse, cache lookup, singleflight evaluation,
// metrics.
func (s *Server) serve(name string, parse parseFunc) http.HandlerFunc {
	return s.serveGuarded(name, func(body []byte) (string, computeFunc, computeFunc, *statInfo, error) {
		key, compute, info, err := parse(body)
		return key, compute, nil, info, err
	})
}

func (s *Server) serveGuarded(name string, parse guardedParseFunc) http.HandlerFunc {
	hits := s.reg.Counter("mapd_cache_hits_total", obs.L("endpoint", name))
	misses := s.reg.Counter("mapd_cache_misses_total", obs.L("endpoint", name))
	latency := s.reg.Histogram("mapd_request_seconds", obs.WallBuckets(), obs.L("endpoint", name))
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		s.inflight.Add(1)
		n := s.inflightN.Add(1)
		code := http.StatusOK
		var (
			info     *statInfo
			cacheHit bool
		)
		defer func() {
			s.inflightN.Add(-1)
			s.inflight.Add(-1)
			latency.Observe(time.Since(start).Seconds())
			s.reg.Counter("mapd_requests_total",
				obs.L("endpoint", name), obs.L("code", strconv.Itoa(code))).Add(1)
			if code == http.StatusOK {
				// Only parsed, successfully served requests reach the
				// workload analytics; rejects carry no shape to attribute.
				s.stats.observe(name, info, cacheHit, time.Since(start))
			}
		}()
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			code = writeError(ctx, w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		if s.cfg.MaxInflight > 0 && n > int64(s.cfg.MaxInflight) {
			s.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfter(n, int64(s.cfg.MaxInflight))))
			code = writeError(ctx, w, http.StatusServiceUnavailable,
				fmt.Sprintf("over %d requests in flight, try again shortly", s.cfg.MaxInflight))
			return
		}
		if r.Method != http.MethodPost {
			code = writeError(ctx, w, http.StatusMethodNotAllowed, "use POST with a JSON body")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = writeError(ctx, w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBody))
			} else {
				code = writeError(ctx, w, http.StatusBadRequest, "reading request body: "+err.Error())
			}
			return
		}
		key, compute, fallback, pinfo, err := parse(body)
		if err != nil {
			code = writeError(ctx, w, http.StatusBadRequest, clientMessage(err))
			return
		}
		info = pinfo
		_, lookup := rt.StartSpan(ctx, "cache.lookup")
		cached, ok := s.cache.Get(key)
		lookup.SetAttr("hit", b2i(ok))
		lookup.End()
		if ok {
			cacheHit = true
			hits.Add(1)
			writeJSON(w, cached)
			return
		}
		misses.Add(1)
		if fallback != nil && s.breaker != nil && !s.breaker.Allow() {
			// Breaker open: answer from the cheap heuristic, uncached so a
			// recovered breaker re-evaluates the real search.
			s.fallbacks.Add(1)
			fstart := time.Now()
			fctx, fsp := rt.StartSpan(ctx, "advise.fallback")
			resp, ferr := fallback(fctx)
			if ferr != nil {
				fsp.SetError()
				fsp.End()
				code = writeError(ctx, w, http.StatusInternalServerError, ferr.Error())
				return
			}
			b, ferr := json.Marshal(resp)
			fsp.End()
			if ferr != nil {
				code = writeError(ctx, w, http.StatusInternalServerError, ferr.Error())
				return
			}
			// The heuristic is an order search too: label its latency and
			// per-order cost mode="fallback", alongside the advisor's own
			// bnb/beam series, so dashboards see the full mode split.
			switch fr := resp.(type) {
			case *AdviseResponse:
				ml := obs.L("mode", advisor.ModeFallback)
				s.reg.Counter("advisor_class_misses_total", ml).AddInt(int64(fr.Evaluated))
				s.reg.Histogram("advisor_search_seconds", obs.SearchBuckets(), ml).
					Observe(time.Since(fstart).Seconds())
				s.stats.observeSearch(advisor.ModeFallback)
			case *MatrixMapResponse:
				s.matrixFallbacks.Add(1)
				s.recordMatrixSearch(advisor.ModeFallback, fr, time.Since(fstart))
			}
			writeJSON(w, append(b, '\n'))
			return
		}
		flightCtx, flightSpan := rt.StartSpan(ctx, "singleflight")
		val, err, shared := s.flight.Do(key, func() ([]byte, error) {
			// Detached from the client connection: a singleflight result is
			// shared, so it must not die with its first requester. The trace
			// context is re-attached explicitly so the evaluation's spans
			// stay children of the (first) requester's trace.
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
			defer cancel()
			ctx, eval := rt.StartSpan(rt.ContextWithSpan(ctx, rt.SpanFromContext(flightCtx)), "evaluate")
			defer eval.End()
			resp, err := compute(ctx)
			if err != nil {
				eval.SetError()
				return nil, err
			}
			b, err := json.Marshal(resp)
			if err != nil {
				eval.SetError()
				return nil, err
			}
			b = append(b, '\n')
			// Degraded answers (e.g. an over-budget matrix map served from
			// the σ fallback) opt out of caching so a healthy service
			// re-runs the real search.
			if c, ok := resp.(interface{ cacheable() bool }); !ok || c.cacheable() {
				s.cache.Put(key, b)
			}
			return b, nil
		})
		flightSpan.SetAttr("shared", b2i(shared))
		flightSpan.End()
		if err != nil {
			switch {
			case errors.Is(err, ErrBadRequest):
				code = writeError(ctx, w, http.StatusBadRequest, clientMessage(err))
			case errors.Is(err, context.DeadlineExceeded):
				code = writeError(ctx, w, http.StatusGatewayTimeout,
					fmt.Sprintf("evaluation exceeded the %s budget", s.cfg.Timeout))
			default:
				code = writeError(ctx, w, http.StatusInternalServerError, err.Error())
			}
			s.logger.LogAttrs(ctx, slog.LevelError, "evaluation failed",
				slog.String("endpoint", name), slog.String("error", err.Error()))
			return
		}
		writeJSON(w, val)
	}
}

// maxShedRetryAfter caps the adaptive Retry-After hint: past ~8× the
// in-flight cap the queue-depth signal says "badly overloaded" and longer
// hints only starve well-behaved clients.
const maxShedRetryAfter = 30

// shedRetryAfter scales the shed 503's Retry-After hint with actual queue
// depth instead of a flat 1s: barely over the cap hints 1s, and each
// additional cap's worth of excess in-flight requests adds ~4s, so
// router and client backoff tracks how overloaded the daemon really is.
func shedRetryAfter(inflight, limit int64) int {
	if limit <= 0 || inflight <= limit {
		return 1
	}
	s := 1 + int((inflight-limit)*4/limit)
	if s > maxShedRetryAfter {
		s = maxShedRetryAfter
	}
	return s
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// writeError emits the structured error envelope and returns the code so
// callers can record it. The context's trace id (when tracing is on) is
// embedded in the body so clients can quote it back verbatim.
func writeError(ctx context.Context, w http.ResponseWriter, code int, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body, _ := json.Marshal(errorBody{Error: errorDetail{
		Code:    code,
		Status:  statusSlug(code),
		Message: msg,
		TraceID: rt.SpanFromContext(ctx).TraceID(),
	}})
	_, _ = w.Write(append(body, '\n'))
	return code
}

func statusSlug(code int) string {
	switch code {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusGatewayTimeout:
		return "timeout"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// clientMessage strips the ErrBadRequest prefix for response bodies.
func clientMessage(err error) string {
	msg := err.Error()
	const prefix = "mapd: bad request: "
	if len(msg) > len(prefix) && msg[:len(prefix)] == prefix {
		return msg[len(prefix):]
	}
	return msg
}
