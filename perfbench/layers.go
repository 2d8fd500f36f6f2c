package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A workload that never enters a layer reports that layer's
// metrics as 0: fleet-hot runs no advisor or simulator, advise-cold no
// simulator, and paper-grid no serving tier.
var perLayer = []struct{ name, unit string }{
	{"fleet.route_self_us_p50", "us"},
	{"fleet.allocs_per_req", "count"},
	{"fleet.attempts_per_req", "ratio"},
	{"fleet.retries_total", "count"},
	{"fleet.fallback_total", "count"},
	{"mapd.handler_us_p50", "us"},
	{"mapd.allocs_per_req", "count"},
	{"mapd.http_hop_us_p50", "us"},
	{"mapd.cache_hit_ratio", "ratio"},
	{"mapd.shed_total", "count"},
	{"obs.retained_bytes_per_req", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"advisor.rank_ms_p50", "ms"},
	{"advisor.search_ms_p50", "ms"},
	{"advisor.call_ms_p99", "ms"},
	{"advisor.busy_s", "s"},
	{"advisor.classes_per_call", "count"},
	{"advisor.class_hit_ratio", "ratio"},
	{"advisor.bnb_nodes_per_call", "count"},
	{"procmap.map_ms_p50", "ms"},
	{"procmap.busy_s", "s"},
	{"procmap.swaps_per_call", "count"},
	{"sim.measure_ms_one_p50", "ms"},
	{"sim.measure_ms_all_p50", "ms"},
	{"sim.events_per_measure", "count"},
	{"sim.messages_per_measure", "count"},
	{"sim.blocks_per_measure", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.repeat_rel_diff", "ratio"},
	{"study.parallel_ratio", "ratio"},
	{"trace_overhead_pct", "%"},
}

// setZero fills in the layers the workload did not enter.
func setZero(r *result) {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit, "(layer not on this workload's path)")
		}
	}
}

// simCounters simulates every order of s once more with an obs.Scope
// attached (bench.Config.MPI.Obs) and reads the engine's and the MPI
// layer's counters from it.
func simCounters(res *result, s *scenario) error {
	var events, messages, blocks, wall float64
	n := 0
	for _, sigma := range s.orders {
		for _, simul := range []bool{false, true} {
			cfg := s.cfg
			cfg.MPI.Obs = obs.New(obs.Options{})
			t0 := time.Now()
			if _, err := bench.Measure(cfg, sigma, gridBytes, simul); err != nil {
				return err
			}
			wall += time.Since(t0).Seconds()
			reg := cfg.MPI.Obs.Registry()
			events += reg.FindCounter("sim_events_total")
			messages += reg.FindCounter("mpi_messages_total")
			blocks += reg.FindCounter("sim_blocks_total")
			n++
		}
	}
	note := fmt.Sprintf("(%s, %d simulations)", s, n)
	res.set("sim.events_per_measure", events/float64(n), "count", note)
	res.set("sim.messages_per_measure", messages/float64(n), "count", note)
	res.set("sim.blocks_per_measure", blocks/float64(n), "count", note)
	res.set("sim.events_per_s", events/wall, "1/s", note)
	return nil
}

// writeSpans writes the traced run's spans once, at the end, as a
// Perfetto file mrtrace can open.
func writeSpans(o options, rec *spanRec) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "spans-"+o.workload+".json")
	if err := obs.WriteTraceFile(path, rec.scope); err != nil {
		return err
	}
	fmt.Printf("spans written to %s (%d spans)\n", path, len(rec.scope.Spans()))
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
