package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mapd"
	"repro/internal/perf"
)

// TestDiffRecordsGate exercises the regression gate end to end on real
// record files: identical records pass, a fabricated 2x slowdown fails.
func TestDiffRecordsGate(t *testing.T) {
	dir := t.TempDir()
	base := perf.NewRecord("kernels", "abc1234", "2026-08-08T00:00:00Z")
	base.Reps, base.BenchTime = 5, "1ms"
	base.Results = resultList{
		{Name: "Kernel/alltoall", NsPerOp: 100, Samples: []float64{99, 100, 100, 101, 100}},
		{Name: "Kernel/allgather", NsPerOp: 50, Samples: []float64{49, 50, 50, 51, 50}},
	}.asPerf()
	oldPath := filepath.Join(dir, "old.json")
	if err := base.WriteFile(oldPath); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	regressed, err := diffRecords(&out, oldPath, oldPath, perf.DiffOptions{Threshold: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("identical records reported as regression:\n%s", out.String())
	}

	slow := perf.NewRecord("kernels", "def5678", "2026-08-08T01:00:00Z")
	slow.Reps, slow.BenchTime = 5, "1ms"
	slow.Results = resultList{
		{Name: "Kernel/alltoall", NsPerOp: 200, Samples: []float64{198, 199, 200, 201, 202}},
		{Name: "Kernel/allgather", NsPerOp: 50, Samples: []float64{49, 50, 50, 51, 50}},
	}.asPerf()
	newPath := filepath.Join(dir, "new.json")
	if err := slow.WriteFile(newPath); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	regressed, err = diffRecords(&out, oldPath, newPath, perf.DiffOptions{Threshold: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("2x slowdown not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Kernel/alltoall") {
		t.Fatalf("report does not name the regressed benchmark:\n%s", out.String())
	}
}

// TestDiffWarnsOnParallelismMismatch checks that diff and gate warn, but
// do not fail, when the two records ran at different GOMAXPROCS or
// num_cpu, and that a baseline without GOMAXPROCS counts as unknown.
func TestDiffWarnsOnParallelismMismatch(t *testing.T) {
	rec := func(procs, cpus int) *perf.Record {
		r := perf.NewRecord("kernels", "abc1234", "2026-08-08T00:00:00Z")
		r.GOMAXPROCS, r.NumCPU = procs, cpus
		r.Results = resultList{
			{Name: "Kernel/alltoall", NsPerOp: 100, Samples: []float64{99, 100, 100, 101, 100}},
		}.asPerf()
		return r
	}
	for _, tc := range []struct {
		name     string
		old, new *perf.Record
		want     string // "" = no warning
	}{
		{"same", rec(2, 2), rec(2, 2), ""},
		{"gomaxprocs", rec(1, 2), rec(2, 2), "gomaxprocs 1 vs 2"},
		{"num_cpu", rec(2, 2), rec(2, 4), "num_cpu 2 vs 4"},
		{"unknown baseline", rec(0, 1), rec(2, 2), "gomaxprocs unknown vs 2, num_cpu 1 vs 2"},
	} {
		var out bytes.Buffer
		regressed, err := diffLoaded(&out, tc.old, tc.new, perf.DiffOptions{Threshold: 0.20})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed {
			t.Fatalf("%s: a parallelism mismatch alone failed the gate:\n%s", tc.name, out.String())
		}
		warned := strings.Contains(out.String(), "WARNING")
		if tc.want == "" && warned {
			t.Fatalf("%s: unexpected warning:\n%s", tc.name, out.String())
		}
		if tc.want != "" && (!warned || !strings.Contains(out.String(), tc.want)) {
			t.Fatalf("%s: want a warning naming %q:\n%s", tc.name, tc.want, out.String())
		}
	}
}

// results is a local alias so the test can build []perf.Result literals
// tersely.
type Result struct {
	Name    string
	NsPerOp float64
	Samples []float64
}

type resultList []Result

func (rs resultList) asPerf() []perf.Result {
	out := make([]perf.Result, len(rs))
	for i, r := range rs {
		out[i] = perf.Result{Name: r.Name, N: 1, NsPerOp: r.NsPerOp, Samples: r.Samples}
	}
	return out
}

// TestSmokeRunsEverySuite is the existence check behind `make check`: one
// iteration of every registered benchmark must still run.
func TestSmokeRunsEverySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs every registered benchmark once")
	}
	for _, s := range perf.Suites() {
		rec, err := perf.RunSuite(s, "", "", perf.RunOptions{Smoke: true})
		if err != nil {
			t.Fatalf("suite %s: %v", s.Name, err)
		}
		if len(rec.Results) != len(s.Benches) {
			t.Fatalf("suite %s: %d results for %d benches", s.Name, len(rec.Results), len(s.Benches))
		}
	}
}

// TestRenderStats checks the `mrperf top` table against a canned
// /v1/stats payload served over HTTP, including the top-N cut.
func TestRenderStats(t *testing.T) {
	rep := mapd.StatsReport{
		TotalRequests:           120,
		CacheHitRate:            0.25,
		TrackedClasses:          3,
		MaxClasses:              32,
		DistinctClassesEstimate: 3,
		Classes: []mapd.ClassReport{
			{Shape: "2x4x8", Requests: 80, CacheHits: 20, CacheHitRate: 0.25, P50Ms: 0.5, P99Ms: 4},
			{Shape: "4x4", Requests: 30, CacheHitRate: 0.5, P50Ms: 0.1, P99Ms: 0.2},
			{Shape: "8", Requests: 10, P50Ms: 0.1, P99Ms: 0.1},
		},
		Depths:      []mapd.DepthCount{{Depth: 2, Requests: 40}, {Depth: 3, Requests: 80}},
		Collectives: map[string]uint64{"alltoall": 70, "allgather": 30},
		SearchModes: map[string]uint64{"pruned": 90, "fallback": 10},
		Endpoints:   map[string]uint64{"map": 100, "map_matrix": 20},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stats" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(rep)
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var got mapd.StatsReport
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var buf bytes.Buffer
	renderStats(&buf, got, 2)
	out := buf.String()
	for _, want := range []string{
		"requests 120",
		"cache hit rate 25.0%",
		"pruned 90",
		"alltoall 70",
		"map_matrix 20",
		"depth 3: 80",
		"2x4x8",
		"4x4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("top output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\n8 ") {
		t.Fatalf("top -n 2 should cut the third class:\n%s", out)
	}
}
