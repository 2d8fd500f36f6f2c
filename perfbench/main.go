// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the code as it is, checks that every answer is
// right, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The workloads, and why each exists, are described in README.md beside
// this file. Run it from the repository root through run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload fleet-hot --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string  // printed on the human-readable line only
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	failures  []string // the first few, for stderr
	metrics   map[string]metric
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit, note: note}
}

// endToEnd sets the metrics every workload reports with --trace 0: the
// median set-up, throughput, the p50 and p95 of the latency samples (ms),
// the share of attempts answered right, peak RSS and the advice regrets.
// The notes say what one operation and one regret are.
func (r *result) endToEnd(setups []float64, ops float64, opsNote string, lat []float64, regrets []float64, regretNote string) error {
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return err
	}
	p95, err := percentile(lat, 0.95)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	n := fmt.Sprintf("(n=%d)", len(lat))
	r.set("setup_s", median(setups), "s", fmt.Sprintf("(median of %d set-ups)", len(setups)))
	r.set("ops_per_s", ops, "1/s", opsNote)
	r.set("latency_p50_ms", p50, "ms", n)
	if p99, err := percentile(lat, 0.99); err == nil {
		n += fmt.Sprintf(" (p99 %.4g ms)", p99)
	}
	r.set("latency_p95_ms", p95, "ms", n)
	r.set("ok_ratio", 1-float64(r.failed)/float64(r.attempted), "ratio",
		fmt.Sprintf("(%d of %d attempts answered right)", r.attempted-r.failed, r.attempted))
	r.set("peak_rss_mb", rss, "MB", "")
	r.set("advice_regret_geomean", geomean(regrets), "ratio", fmt.Sprintf("(%d %s)", len(regrets), regretNote))
	r.set("advice_regret_max", maxOf(regrets), "ratio", "")
	return nil
}

// outDir, relative to the repository root the benchmark runs from, holds
// the span files and the run log (run.sh keeps its build there too).
const outDir = ".bench_build/perfbench"

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var workloads = map[string]func(options) (*result, error){
	"fleet-hot":   runFleetHot,
	"advise-cold": runAdviseCold,
	"paper-grid":  runPaperGrid,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fleet-hot, advise-cold or paper-grid")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 25, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	env := environment(o)
	fmt.Printf("env %s\n", mustJSON(env))
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	vals := map[string]metric{}
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("%-28s %14.6g %-6s %s\n", n, m.Value, m.Unit, m.note)
		vals[n] = m
	}
	line := mustJSON(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   vals,
	})
	if err := appendLog(env, line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// environment is recorded with every result, so runs taken at different
// CPU counts or commits are never compared unnoticed.
func environment(o options) map[string]string {
	sha, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		sha += "+dirty"
	}
	return map[string]string{
		"workload":   o.workload,
		"seed":       strconv.FormatInt(o.seed, 10),
		"seconds":    strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"trace":      strconv.FormatBool(o.trace),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"go":         runtime.Version(),
		"git_sha":    sha,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// appendLog keeps every run's environment and result in runs.jsonl.
func appendLog(env map[string]string, line []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var rec map[string]any
	if err := json.Unmarshal(line, &rec); err != nil {
		f.Close()
		return err
	}
	rec["env"] = env
	if _, err := f.Write(append(mustJSON(rec), '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
