package perf

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestRoundUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 5}, {5, 5}, {6, 10},
		{11, 20}, {21, 30}, {31, 50}, {51, 100}, {150, 200},
	} {
		if got := roundUp(tc.in); got != tc.want {
			t.Errorf("roundUp(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMeasureScalesIterations(t *testing.T) {
	calls := 0
	s, err := measure(func(b *B) {
		for i := 0; i < b.N; i++ {
			calls++
			time.Sleep(10 * time.Microsecond)
		}
	}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if s.n < 2 {
		t.Fatalf("expected the harness to ramp past 1 iteration, got n=%d", s.n)
	}
	if s.nsPerOp <= 0 {
		t.Fatalf("nsPerOp = %v", s.nsPerOp)
	}
}

func TestRunBenchSmoke(t *testing.T) {
	ran := 0
	res, err := runBench(Bench{Name: "X", F: func(b *B) {
		for i := 0; i < b.N; i++ {
			ran++
		}
	}}, RunOptions{Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("smoke ran %d iterations, want exactly 1", ran)
	}
	if res.N != 1 || len(res.Samples) != 1 {
		t.Fatalf("smoke result %+v", res)
	}
}

func TestRunBenchCollectsReps(t *testing.T) {
	res, err := runBench(Bench{Name: "X", F: func(b *B) {
		for i := 0; i < b.N; i++ {
			time.Sleep(time.Microsecond)
		}
		b.ReportMetric(42, "things/s")
	}}, RunOptions{Reps: 3, BenchTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 3 {
		t.Fatalf("samples = %v, want 3", res.Samples)
	}
	if res.Metrics["things/s"] != 42 {
		t.Fatalf("metrics = %v", res.Metrics)
	}
	if res.NsPerOp != median(res.Samples) {
		t.Fatalf("NsPerOp %v != median(%v)", res.NsPerOp, res.Samples)
	}
}

func TestRunBenchFatalPropagates(t *testing.T) {
	_, err := runBench(Bench{Name: "X", F: func(b *B) {
		b.Fatalf("boom %d", 7)
	}}, RunOptions{Smoke: true})
	if err == nil || !strings.Contains(err.Error(), "boom 7") {
		t.Fatalf("err = %v, want boom 7", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	rec := NewRecord("test", "abc123", "2026-08-08T00:00:00Z")
	rec.Reps, rec.BenchTime = 3, "1ms"
	rec.Results = []Result{
		{Name: "B/b", NsPerOp: 2, Samples: []float64{1, 2, 3}, Metrics: map[string]float64{"req/s": 10}},
		{Name: "A/a", NsPerOp: 1, Samples: []float64{1}},
	}
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != "test" || got.GitSHA != "abc123" || got.Timestamp != "2026-08-08T00:00:00Z" ||
		got.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("metadata round trip: %+v", got)
	}
	// WriteFile sorts.
	if got.Results[0].Name != "A/a" || got.Results[1].Name != "B/b" {
		t.Fatalf("results not sorted: %+v", got.Results)
	}
	if got.Results[1].Metrics["req/s"] != 10 {
		t.Fatalf("metrics lost: %+v", got.Results[1])
	}
}

func TestReadRecordRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := writeFile(path, `{"schema": 999, "suite": "x"}`); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecord(path); err == nil {
		t.Fatal("expected schema version error")
	}
}

func TestSuitesRegisteredAndSmokeable(t *testing.T) {
	suites := Suites()
	if len(suites) < 4 {
		t.Fatalf("registered %d suites, want >= 4", len(suites))
	}
	seen := map[string]bool{}
	for _, s := range suites {
		if seen[s.Name] {
			t.Fatalf("duplicate suite %q", s.Name)
		}
		seen[s.Name] = true
		if s.Threshold <= 0 {
			t.Fatalf("suite %s has no threshold", s.Name)
		}
		if len(s.Benches) == 0 {
			t.Fatalf("suite %s has no benchmarks", s.Name)
		}
	}
	for _, name := range []string{"kernels", "order_search", "mixedradix", "serving"} {
		if !seen[name] {
			t.Fatalf("suite %s not registered (have %v)", name, seen)
		}
	}
	// The smoke path is what make check runs: every benchmark must
	// execute for one iteration without failing.
	for _, s := range suites {
		if s.Name == "serving" && testing.Short() {
			continue
		}
		rec, err := RunSuite(s, "", "", RunOptions{Smoke: true})
		if err != nil {
			t.Fatalf("smoke %s: %v", s.Name, err)
		}
		if len(rec.Results) != len(s.Benches) {
			t.Fatalf("smoke %s: %d results for %d benches", s.Name, len(rec.Results), len(s.Benches))
		}
	}
}

func TestTopSymbolsFromRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	// Burn enough CPU in a named function for the sampler to see it.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		burnCPU(1 << 14)
	}
	pprof.StopCPUProfile()
	syms, err := TopSymbols(buf.Bytes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(syms) == 0 {
		t.Skip("no samples captured (loaded machine?)")
	}
	found := false
	for _, s := range syms {
		if strings.Contains(s.Func, "burnCPU") {
			found = true
			if s.Cum < s.Flat {
				t.Fatalf("cum %v < flat %v for %s", s.Cum, s.Flat, s.Func)
			}
		}
		if s.Unit != "nanoseconds" {
			t.Fatalf("unit %q, want nanoseconds", s.Unit)
		}
	}
	if !found {
		t.Fatalf("burnCPU not in top symbols: %+v", syms)
	}
}

//go:noinline
func burnCPU(n int) float64 {
	s := 0.0
	for i := 1; i <= n; i++ {
		s += 1 / float64(i*i)
	}
	return s
}

func TestTopSymbolsFromHeapProfile(t *testing.T) {
	sink = make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, allocBig())
	}
	// The heap profile is a snapshot as of the last completed GC cycle;
	// without forcing one the allocations above may not be in it yet.
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	syms, err := TopSymbols(buf.Bytes(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(syms) == 0 {
		t.Fatal("no heap symbols decoded")
	}
	for _, s := range syms {
		if s.Unit != "bytes" {
			t.Fatalf("unit %q, want bytes", s.Unit)
		}
	}
	sink = nil
}

var sink [][]byte

//go:noinline
func allocBig() []byte { return make([]byte, 1<<16) }

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := TopSymbols([]byte{0x07, 0x03, 0xff}, 5); err == nil {
		// A short garbage blob may parse as empty; it must at least not
		// panic. Decoding succeeding with zero symbols is acceptable.
		t.Log("garbage decoded as empty profile (acceptable)")
	}
}
