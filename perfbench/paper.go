package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mapd"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/study"
)

// gridBytes is the collective size of every paper-grid scenario: the
// advise default, so advice and simulation see the same S.
const gridBytes = 16 << 20

// scenario is one machine, collective and communicator size of the
// paper's §4 experiments, with all its orders.
type scenario struct {
	machine    string
	nodes      int
	collective string
	comm       int
	cfg        bench.Config
	orders     [][]int
}

func newScenario(machine string, nodes int, collective string, comm int) (*scenario, error) {
	if machine != "hydra" {
		return nil, fmt.Errorf("no simulated scenario for machine %q", machine)
	}
	spec := cluster.Hydra(nodes, 1)
	h := spec.Hierarchy()
	return &scenario{
		machine: machine, nodes: nodes, collective: collective, comm: comm,
		cfg: bench.Config{
			Spec:      spec,
			Hierarchy: h,
			CommSize:  comm,
			Coll:      bench.Collective(collective),
			Iters:     1, // study.Run's default
		},
		orders: perm.All(h.Depth()),
	}, nil
}

func (s *scenario) String() string {
	return fmt.Sprintf("%s/%d %s c%d", s.machine, s.nodes, s.collective, s.comm)
}

// measure simulates one order and returns its bandwidth in B/s.
func (s *scenario) measure(sigma []int, simultaneous bool) (float64, error) {
	pt, err := bench.Measure(s.cfg, sigma, gridBytes, simultaneous)
	return pt.Bandwidth, err
}

func (s *scenario) advise(simultaneous bool) mapd.AdviseRequest {
	return mapd.AdviseRequest{Machine: s.machine, Nodes: s.nodes, Collective: s.collective,
		CommSize: s.comm, Simultaneous: simultaneous}
}

// paperGrid is the §4 grid: Hydra ⟦4,2,2,8⟧ under every collective at
// communicator sizes 16 and 64. No LUMI ⟦2,2,4,2,8⟧ point fits: its 120
// orders make even the cheapest LUMI scenario (alltoall, comm 16) about
// 10 s of simulation on the 2-CPU machine the run length was set on.
func paperGrid() ([]*scenario, error) {
	var grid []*scenario
	for _, coll := range []string{"alltoall", "allgather", "allreduce"} {
		for _, comm := range []int{16, 64} {
			s, err := newScenario("hydra", 4, coll, comm)
			if err != nil {
				return nil, err
			}
			grid = append(grid, s)
		}
	}
	return grid, nil
}

// gridPass is one pass over the grid: every scenario advised for one
// communicator and for all of them, then every order of every scenario
// simulated both ways.
type gridPass struct {
	elapsed  time.Duration
	lat      []float64 // ms per order simulation
	sims     int
	regrets  []float64
	bw       map[int]map[bool]map[string]float64 // scenario index → simultaneous → order → B/s
	attempts int
	failed   int
	errs     []string
}

// runGridPass simulates the pass's 288 (scenario, order, communicators)
// points in a seeded random order rather than scenario by scenario, so a
// stretch of slow machine time spreads over all scenarios instead of
// moving one scenario's simulations as a block through the latency
// distribution.
func runGridPass(grid []*scenario, rng *rand.Rand, rec *spanRec) (*gridPass, error) {
	p := &gridPass{bw: map[int]map[bool]map[string]float64{}}
	start := time.Now()
	type point struct {
		si    int
		sigma []int
		simul bool
	}
	var points []point
	advice := map[int]map[bool]*mapd.AdviseResponse{}
	for si, s := range grid {
		advice[si] = map[bool]*mapd.AdviseResponse{}
		p.bw[si] = map[bool]map[string]float64{false: {}, true: {}}
		for _, simul := range []bool{false, true} {
			var resp *mapd.AdviseResponse
			var err error
			rec.timed("mapd.EvalAdviseOpts", func() {
				resp, err = mapd.EvalAdviseOpts(context.Background(), s.advise(simul), mapd.AdviseOptions{})
			})
			if err != nil {
				return nil, fmt.Errorf("advise %s: %w", s, err)
			}
			advice[si][simul] = resp
			for _, sigma := range s.orders {
				points = append(points, point{si, sigma, simul})
			}
		}
	}
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	for _, pt := range points {
		s := grid[pt.si]
		var b float64
		var err error
		d := rec.timed("bench.Measure", func() { b, err = s.measure(pt.sigma, pt.simul) },
			obs.Arg{Key: "simultaneous", Val: b2i(pt.simul)}, obs.Arg{Key: "scenario", Val: int64(pt.si)})
		if err != nil {
			return nil, fmt.Errorf("simulate %s %v: %w", s, pt.sigma, err)
		}
		p.lat = append(p.lat, float64(d.Nanoseconds())/1e6)
		p.sims++
		p.bw[pt.si][pt.simul][orderKey(pt.sigma)] = b
	}
	for si, s := range grid {
		for _, simul := range []bool{false, true} {
			p.attempts++
			k := len(s.orders)
			resp, bw := advice[si][simul], p.bw[si][simul]
			switch {
			case resp.Evaluated != k:
				p.failed++
				p.errs = append(p.errs, fmt.Sprintf("%s simultaneous=%v: advice covers %d orders, want %d", s, simul, resp.Evaluated, k))
			case len(bw) != k:
				p.failed++
				p.errs = append(p.errs, fmt.Sprintf("%s: %d orders simulated, want %d", s, len(bw), k))
			case len(resp.Best) == 0:
				p.failed++
				p.errs = append(p.errs, fmt.Sprintf("%s simultaneous=%v: advice has no order", s, simul))
			default:
				r, err := regret(bw, resp.Best[0].Order)
				if err != nil {
					return nil, err
				}
				p.regrets = append(p.regrets, r)
			}
		}
	}
	p.elapsed = time.Since(start)
	return p, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// runPaperGrid is the offline workload: the paper's own measure, on one
// goroutine, with no serving layer.
func runPaperGrid(o options) (*result, error) {
	rec := newSpanRec()
	res := &result{correct: true, metrics: map[string]metric{}}
	var setups []float64
	var grid []*scenario
	for k := 0; k < setupRepeats; k++ {
		runtime.GC() // each set-up starts from a collected heap, as in runServing
		t0 := time.Now()
		var err error
		if grid, err = paperGrid(); err != nil {
			return nil, err
		}
		// One simulation warms the simulator's pools before timing.
		if _, err := grid[0].measure(grid[0].orders[0], false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rng := rand.New(rand.NewSource(o.seed))
	budget := time.Duration(o.seconds * float64(time.Second))
	heap0, gc0 := liveHeap(), gcCPU()
	var passes []*gridPass
	var spent time.Duration
	for len(passes) == 0 || spent+passes[0].elapsed <= budget {
		p, err := runGridPass(grid, rng, rec)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		spent += p.elapsed
	}
	gc1 := gcCPU()
	heap1 := liveHeap()
	var traced *gridPass
	if o.trace {
		// Recording stays on through the probes below.
		rec.on.Store(true)
		var err error
		if traced, err = runGridPass(grid, rng, rec); err != nil {
			return nil, err
		}
	}

	var lat, regrets []float64
	sims := 0
	for _, p := range append(passes, traced) {
		if p == nil {
			continue
		}
		res.attempted += p.attempts
		res.failed += p.failed
		for _, e := range p.errs {
			res.fail("%s", e)
		}
	}
	for _, p := range passes {
		lat = append(lat, p.lat...)
		regrets = append(regrets, p.regrets...)
		sims += p.sims
	}
	// study.Run on the cheapest scenario must return k! rows.
	probe := grid[0]
	var st *study.Result
	var stErr error
	studyWall := rec.timed("study.Run", func() { st, stErr = study.Run(probe.cfg, gridBytes) })
	res.attempted++
	if err := checkStudy(st, stErr, probe); err != nil {
		res.failed++
		res.fail("%v", err)
	}

	if !o.trace {
		note := fmt.Sprintf("(order simulations, %d passes, %.1fs)", len(passes), spent.Seconds())
		return res, res.endToEnd(setups, float64(sims)/spent.Seconds(), note, lat, regrets, "advised scenarios")
	}

	spans := rec.spans()
	for _, c := range []struct {
		name  string
		simul int64
	}{{"sim.measure_ms_one_p50", 0}, {"sim.measure_ms_all_p50", 1}} {
		v := callDurations(spans, "bench.Measure", "simultaneous", c.simul)
		p, err := percentile(v, 0.5)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		res.set(c.name, p, "ms", fmt.Sprintf("(n=%d)", len(v)))
	}
	// study.Run makes the same simulations of the probe scenario that the
	// traced pass timed one by one.
	var measured float64
	for _, ms := range callDurations(spans, "bench.Measure", "scenario", 0) {
		measured += ms / 1e3
	}
	res.set("study.parallel_ratio", measured/studyWall.Seconds(), "ratio",
		"(sum of bench.Measure wall time / study.Run wall time, 1 = sequential)")
	if err := simCounters(res, probe); err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("study.Run: %v", stErr)
	}
	repeatDiff(res, st, probe, passes[0].bw[0])
	rec.on.Store(false)
	res.set("obs.retained_bytes_per_req", ratio(float64(heap1)-float64(heap0), float64(sims)), "B",
		"(live heap growth over the untraced passes, per order simulation)")
	res.set("runtime.gc_cpu_fraction", gc1.sub(gc0), "ratio", "")
	opsA := float64(sims) / spent.Seconds()
	opsB := float64(traced.sims) / traced.elapsed.Seconds()
	res.set("trace_overhead_pct", 100*(opsA-opsB)/opsA, "%", fmt.Sprintf("(%.2f/s untraced, %.2f/s traced)", opsA, opsB))
	setZero(res)
	return res, writeSpans(o, rec)
}

// checkStudy holds study.Run to one row per order. Its bandwidths are not
// compared with the pass's own simulations of the same orders: the
// simulator does not repeat itself exactly at GOMAXPROCS > 1, which
// sim.repeat_rel_diff reports instead.
func checkStudy(st *study.Result, err error, s *scenario) error {
	if err != nil {
		return fmt.Errorf("study.Run %s: %w", s, err)
	}
	if len(st.Rows) != len(s.orders) {
		return fmt.Errorf("study.Run %s: %d rows, want %d", s, len(st.Rows), len(s.orders))
	}
	return nil
}

// repeatDiff reports how far the simulator is from repeating itself:
// study.Run simulated each order of the probe scenario a second time, and
// the largest relative bandwidth difference from the pass's first
// simulation is the metric, 0 when every repeat is exact. It runs at the
// process's GOMAXPROCS, where the simulator is known not to repeat.
func repeatDiff(res *result, st *study.Result, s *scenario, first map[bool]map[string]float64) {
	worst, at := 0.0, ""
	for _, row := range st.Rows {
		for simul, b := range map[bool]float64{false: row.OneComm, true: row.AllComms} {
			a := first[simul][orderKey(row.Order)]
			if d := math.Abs(a-b) / math.Max(a, b); d > worst {
				worst, at = d, fmt.Sprintf(" at order %v simultaneous=%v", row.Order, simul)
			}
		}
	}
	res.set("sim.repeat_rel_diff", worst, "ratio",
		fmt.Sprintf("(largest of %d repeated simulations of %s%s)", 2*len(st.Rows), s, at))
}
