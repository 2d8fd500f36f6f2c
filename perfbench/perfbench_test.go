package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestSameSeedSameRequests(t *testing.T) {
	a, b := hotMix(7), hotMix(7)
	if len(a) != len(b) {
		t.Fatalf("hot mix sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("hot mix request %d differs: %s vs %s", i, a[i].body, b[i].body)
		}
	}
	s1, err := newColdStream(7)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newColdStream(7)
	s3, _ := newColdStream(8)
	differs := false
	for i := 0; i < 500; i++ {
		r1, r2 := s1.at(i), s2.at(i)
		if r1.path != r2.path || !bytes.Equal(r1.body, r2.body) {
			t.Fatalf("cold request %d differs under one seed: %s vs %s", i, r1.body, r2.body)
		}
		differs = differs || !bytes.Equal(r1.body, s3.at(i).body)
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same cold stream")
	}
}

func TestColdKeysDistinctAndValid(t *testing.T) {
	s, err := newColdStream(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, a := range referenceAdvice {
		k, err := cacheKey(request{"/v1/advise", mustJSON(a)})
		if err != nil {
			t.Fatal(err)
		}
		seen[k] = -1
	}
	counts := map[string]int{}
	check := func(i int) {
		r := s.at(i)
		k, err := cacheKey(r)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if j, dup := seen[k]; dup {
			t.Fatalf("requests %d and %d share key %s", j, i, k)
		}
		seen[k] = i
		counts[r.path]++
	}
	const n = 20000
	for i := 0; i < n; i++ {
		check(i)
	}
	for i := 0; i < 500; i++ {
		check(probeOffset + i)
	}
	// The block layout fixes the mix: 18 advise and 2 matrix maps in
	// every 20 requests.
	if got := float64(counts["/v1/map/matrix"]); math.Abs(got-0.1*(n+500)) > 30 {
		t.Errorf("%v matrix maps in %d requests, want about 10%%", got, n+500)
	}
}

func TestHotMixValid(t *testing.T) {
	mix := hotMix(1)
	if len(mix) < 15 || len(mix) > 25 {
		t.Errorf("hot mix has %d requests, want about 20", len(mix))
	}
	seen := map[string]bool{}
	for _, r := range mix {
		k, err := cacheKey(r)
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Errorf("hot mix repeats key %s", k)
		}
		seen[k] = true
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed, so percentile must sort
		}
		return v
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 0, false},   // 9 beyond
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{200, 0.95, 190, true},
		{199, 0.95, 0, false},
		{0, 0.5, 0, false},
	} {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("p%g of %d: got %v, %v; want %v, ok=%v", 100*c.q, c.n, got, err, c.want, c.ok)
		}
	}
}

func TestRegretAndMeans(t *testing.T) {
	bw := map[string]float64{
		orderKey([]int{0, 1}): 4e9,
		orderKey([]int{1, 0}): 2e9,
	}
	if r, err := regret(bw, []int{0, 1}); err != nil || r != 1 {
		t.Errorf("regret of the best order = %v, %v; want 1", r, err)
	}
	if r, err := regret(bw, []int{1, 0}); err != nil || r != 2 {
		t.Errorf("regret of the half-speed order = %v, %v; want 2", r, err)
	}
	if _, err := regret(bw, []int{2, 0, 1}); err == nil {
		t.Error("regret of an order never simulated did not fail")
	}
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(1, 4) = %v", g)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestHopTimes(t *testing.T) {
	sp := func(pid int, start, end float64, trace int64) obs.Span {
		return obs.Span{PID: pid, Start: start, End: end, Args: []obs.Arg{{Key: "trace", Val: trace}}}
	}
	spans := []obs.Span{
		sp(pidGate, 0, 100e-6, 5),
		sp(pidTransport, 10e-6, 90e-6, 5),
		sp(pidReplica, 30e-6, 60e-6, 5),
		sp(pidGate, 0, 50e-6, 6), // no replica span: skipped
		sp(pidTransport, 5e-6, 40e-6, 6),
	}
	self, hop := hopTimes(spans)
	if len(self) != 1 || math.Abs(self[0]-20) > 1e-9 || math.Abs(hop[0]-50) > 1e-9 {
		t.Errorf("route self %v, http hop %v; want [20], [50]", self, hop)
	}
}

// TestBenchmarkJSONListsEveryLayerMetric keeps the per-layer metrics a
// traced run reports and the list in BENCHMARK.json the same.
func TestBenchmarkJSONListsEveryLayerMetric(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}
