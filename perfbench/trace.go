package main

import (
	"encoding/binary"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/rt"
)

// Span tracks of the benchmark's own trace. Spans are recorded only
// around calls into the program's public entry points, never inside it.
const (
	pidClient    = 1 + iota // one request as the client sees it
	pidGate                 // fleet.Router.Handler
	pidTransport            // the gate's fleet.Config.Client transport, one per attempt
	pidReplica              // mapd.Server.Handler
	pidCall                 // an in-process layer call (advisor, procmap, bench, study, mapd)
)

// spanRec keeps the traced run's spans in memory, in an obs.Scope so
// they are written out as a Perfetto file once, at the end. Recording is
// off until the traced window starts; while off, every wrapper costs one
// atomic load.
type spanRec struct {
	on    atomic.Bool
	epoch time.Time
	scope *obs.Scope
}

func newSpanRec() *spanRec {
	r := &spanRec{epoch: time.Now(), scope: obs.New(obs.Options{MaxSpans: 1 << 22})}
	for pid, name := range map[int]string{
		pidClient: "client", pidGate: "gate handler", pidTransport: "gate transport",
		pidReplica: "replica handler", pidCall: "layer calls",
	} {
		r.scope.SetProcessName(pid, name)
	}
	return r
}

// add records one span; trace ties the spans of one request together.
func (r *spanRec) add(pid int, name string, start, end time.Time, trace int64, args ...obs.Arg) {
	args = append(args, obs.Arg{Key: "trace", Val: trace})
	r.scope.Span(pid, int(uint64(trace)%64), name, "bench",
		start.Sub(r.epoch).Seconds(), end.Sub(r.epoch).Seconds(), args...)
}

// spans returns the recorded spans.
func (r *spanRec) spans() []obs.Span { return r.scope.Spans() }

// timed runs fn as one in-process layer call and, when recording,
// records it as a span. It returns the call's duration either way.
func (r *spanRec) timed(name string, fn func(), args ...obs.Arg) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if r.on.Load() {
		r.add(pidCall, name, start, end, 0, args...)
	}
	return end.Sub(start)
}

// traceOf is the low half of a request's traceparent trace id: the
// client sets it, the gate forwards it, so it keys one request's spans
// across all three hops.
func traceOf(h http.Header) int64 {
	id, _, _, ok := rt.ParseTraceparent(h.Get("traceparent"))
	if !ok {
		return 0
	}
	return int64(binary.BigEndian.Uint64(id[8:]))
}

// handler wraps a server's handler with a span per request.
func (r *spanRec) handler(pid int, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(pid, name, start, time.Now(), traceOf(req.Header))
	})
}

// recTransport is the gate's proxy transport with a span per attempt,
// ended when the gate closes the response body, so it covers the whole
// hop including the body read.
type recTransport struct {
	rec   *spanRec
	inner http.RoundTripper
}

func (t recTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.inner.RoundTrip(req)
	}
	start := time.Now()
	trace := traceOf(req.Header)
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.add(pidTransport, "proxy", start, time.Now(), trace)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		t.rec.add(pidTransport, "proxy", start, time.Now(), trace)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// hopTimes splits the recorded requests into the two hop costs the
// per-layer metrics report, per request with all three spans present:
// the gate's self time (its handler span minus its transport spans) and
// the HTTP hop (transport spans minus the replica handler spans), in µs.
func hopTimes(spans []obs.Span) (routeSelf, httpHop []float64) {
	type parts struct{ gate, transport, replica float64 }
	byTrace := map[int64]*parts{}
	for _, sp := range spans {
		if sp.PID < pidGate || sp.PID > pidReplica {
			continue
		}
		trace := spanTrace(sp)
		p := byTrace[trace]
		if p == nil {
			p = &parts{}
			byTrace[trace] = p
		}
		d := sp.End - sp.Start
		switch sp.PID {
		case pidGate:
			p.gate += d
		case pidTransport:
			p.transport += d
		case pidReplica:
			p.replica += d
		}
	}
	for trace, p := range byTrace {
		if trace == 0 || p.gate == 0 || p.transport == 0 || p.replica == 0 {
			continue
		}
		routeSelf = append(routeSelf, 1e6*(p.gate-p.transport))
		httpHop = append(httpHop, 1e6*(p.transport-p.replica))
	}
	return routeSelf, httpHop
}

func spanTrace(sp obs.Span) int64 {
	for _, a := range sp.Args {
		if a.Key == "trace" {
			return a.Val
		}
	}
	return 0
}

// callDurations returns the durations in ms of the in-process call spans
// with the given name, optionally only those carrying arg key=val.
func callDurations(spans []obs.Span, name string, key string, val int64) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.PID != pidCall || sp.Name != name {
			continue
		}
		if key != "" {
			match := false
			for _, a := range sp.Args {
				match = match || (a.Key == key && a.Val == val)
			}
			if !match {
				continue
			}
		}
		out = append(out, 1e3*(sp.End-sp.Start))
	}
	return out
}
