// Workload-analytics tests: the Space-Saving bound, the percentile
// sketch, the distinct-class estimator, and the end-to-end guarantee
// the aggregator exists for — /v1/stats stays cardinality-bounded no
// matter how many distinct shapes the request stream invents.

package mapd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestWorkloadStatsSpaceSaving(t *testing.T) {
	st := newWorkloadStats(2)
	for i := 0; i < 5; i++ {
		st.observe("map", &statInfo{shape: []int{2, 2}}, false, time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		st.observe("map", &statInfo{shape: []int{2, 4}}, true, time.Millisecond)
	}
	// A third class must evict the minimum (2,4) and inherit its count as
	// the overestimation bound.
	st.observe("map", &statInfo{shape: []int{4, 4}}, false, time.Millisecond)

	rep := st.report()
	if rep.TrackedClasses != 2 || len(rep.Classes) != 2 {
		t.Fatalf("tracked %d classes (%d reported), want 2", rep.TrackedClasses, len(rep.Classes))
	}
	if rep.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", rep.Evictions)
	}
	if rep.TotalRequests != 9 {
		t.Fatalf("total = %d, want 9", rep.TotalRequests)
	}
	if rep.Classes[0].Shape != "2,2" || rep.Classes[0].Requests != 5 || rep.Classes[0].CountErr != 0 {
		t.Fatalf("top class %+v, want 2,2 with 5 exact requests", rep.Classes[0])
	}
	// Space-Saving: the newcomer's count is min+1 with err = min.
	if rep.Classes[1].Shape != "4,4" || rep.Classes[1].Requests != 4 || rep.Classes[1].CountErr != 3 {
		t.Fatalf("evicting class %+v, want 4,4 requests=4 err=3", rep.Classes[1])
	}
}

func TestWorkloadStatsPercentiles(t *testing.T) {
	var c classStat
	// 97 fast observations and three slow ones: p50 stays near the fast
	// cluster, the nearest-rank p99 (99th of 100) lands in the outliers.
	for i := 0; i < 97; i++ {
		c.observe(false, 100*time.Microsecond)
	}
	for i := 0; i < 3; i++ {
		c.observe(false, 80*time.Millisecond)
	}
	p50, p99 := c.percentile(0.50), c.percentile(0.99)
	if p50 <= 0 || p50 > 1 {
		t.Fatalf("p50 = %vms, want within (0, 1ms] for ~100µs samples", p50)
	}
	if p99 < 1 {
		t.Fatalf("p99 = %vms, want pulled up by the 80ms outlier", p99)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
}

func TestWorkloadStatsDistinctEstimate(t *testing.T) {
	st := newWorkloadStats(4)
	for i := 0; i < 200; i++ {
		st.observe("map", &statInfo{shape: []int{2, 2 + i}}, false, time.Millisecond)
	}
	got := st.report()
	if got.TrackedClasses > 4 {
		t.Fatalf("tracked %d classes with K=4", got.TrackedClasses)
	}
	// 64 registers give ±13% standard error; accept a generous 2× band.
	if got.DistinctClassesEstimate < 100 || got.DistinctClassesEstimate > 400 {
		t.Fatalf("distinct estimate %d for 200 true classes", got.DistinctClassesEstimate)
	}
}

// TestStatsEndpointBoundedCardinality is the end-to-end guarantee: a
// request stream with more distinct shape classes than K yields a
// /v1/stats answer and a /metrics exposition both bounded by K.
func TestStatsEndpointBoundedCardinality(t *testing.T) {
	const k = 4
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg, StatsClasses: k})

	shapes := []string{"2,2", "2,3", "2,4", "2,5", "2,6", "2,7", "2,8", "3,3", "3,4", "3,5"}
	for pass := 0; pass < 2; pass++ {
		for _, h := range shapes {
			body := fmt.Sprintf(`{"hierarchy":"%s","rank":1}`, h)
			if code, b := post(t, ts, "/v1/map", body); code != http.StatusOK {
				t.Fatalf("map %s: status %d, body %s", h, code, b)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	var rep StatsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.MaxClasses != k {
		t.Errorf("max_classes = %d, want %d", rep.MaxClasses, k)
	}
	if rep.TrackedClasses > k || len(rep.Classes) > k {
		t.Fatalf("cardinality bound violated: tracked %d, reported %d, K=%d",
			rep.TrackedClasses, len(rep.Classes), k)
	}
	if rep.TotalRequests != uint64(2*len(shapes)) {
		t.Errorf("total = %d, want %d", rep.TotalRequests, 2*len(shapes))
	}
	// The second pass is served from cache.
	if rep.CacheHitRate < 0.4 || rep.CacheHitRate > 0.6 {
		t.Errorf("cache hit rate %v, want ≈ 0.5", rep.CacheHitRate)
	}
	if rep.Evictions == 0 {
		t.Error("10 classes through a K=4 summary produced no evictions")
	}
	if rep.DistinctClassesEstimate < k {
		t.Errorf("distinct estimate %d, want ≥ K", rep.DistinctClassesEstimate)
	}
	found := false
	for _, d := range rep.Depths {
		if d.Depth == 2 && d.Requests == uint64(2*len(shapes)) {
			found = true
		}
	}
	if !found {
		t.Errorf("depth histogram missing the depth-2 bar: %+v", rep.Depths)
	}

	// The /metrics mirror: at most K live (non-zero) class series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, line := range strings.Split(string(mb), "\n") {
		if strings.HasPrefix(line, "mapd_stats_class_requests{") && !strings.HasSuffix(line, " 0") {
			live++
		}
	}
	if live == 0 || live > k {
		t.Fatalf("%d live class series on /metrics, want within [1, %d]", live, k)
	}
}

// TestStatsSearchModeSplit drives the served search modes end to end: a
// branch-and-bound advise and the breaker-open fallback; /v1/stats must
// attribute each.
func TestStatsSearchModeSplit(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Registry:         reg,
		CacheEntries:     -1,
		Timeout:          5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})

	req := `{"machine":"hydra","nodes":4,"collective":"alltoall","comm_size":16}`
	// One healthy evaluation first.
	if code, b := post(t, ts, "/v1/advise", req); code != http.StatusOK {
		t.Fatalf("advise status %d, body %s", code, b)
	}

	// Now trip the breaker and collect a fallback answer.
	s.AdviseHook = func() { time.Sleep(30 * time.Millisecond) }
	req2 := `{"machine":"hydra","nodes":4,"collective":"allreduce","comm_size":16}`
	for i := 0; i < 2; i++ {
		if code, _ := post(t, ts, "/v1/advise", req2); code != http.StatusGatewayTimeout {
			t.Fatalf("warm-up %d: want 504", i)
		}
	}
	code, b := post(t, ts, "/v1/advise", req)
	if code != http.StatusOK {
		t.Fatalf("fallback status %d, body %s", code, b)
	}

	var rep StatsReport
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.SearchModes["bnb"] < 1 {
		t.Errorf("search modes %v missing the bnb search", rep.SearchModes)
	}
	if rep.SearchModes["fallback"] != 1 {
		t.Errorf("search modes %v, want exactly 1 fallback", rep.SearchModes)
	}
	if rep.Collectives["alltoall"] < 1 {
		t.Errorf("collectives %v missing alltoall", rep.Collectives)
	}

	// The fallback is also on the advisor metric family, labeled.
	ml := obs.L("mode", "fallback")
	if v := reg.FindCounter("advisor_class_misses_total", ml); v != 24 {
		t.Errorf("fallback class misses = %v, want 24 heuristic evaluations", v)
	}
}
