package netmodel_test

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// checkMaxMinFair checks the rates of the last recompute: no link carries
// more than its capacity, and every flow crosses a saturated link on which
// no other flow gets a higher rate (the max-min fairness condition). It
// also checks the fluid's set of loaded links against a walk of the flows.
func checkMaxMinFair(t *testing.T, step int, fluid *netmodel.Fluid) {
	t.Helper()
	const tol = 1e-9
	load := map[*netmodel.Link]float64{}
	maxRate := map[*netmodel.Link]float64{}
	count := map[*netmodel.Link]int{}
	for _, fl := range fluid.Flows() {
		for _, l := range fl.Links() {
			if l.Capacity <= 0 {
				continue
			}
			load[l] += fl.Rate()
			maxRate[l] = max(maxRate[l], fl.Rate())
			count[l]++
		}
	}
	listed := map[*netmodel.Link]bool{}
	for _, l := range fluid.ListedLinks() {
		if listed[l] {
			t.Fatalf("step %d: link %s listed twice", step, l)
		}
		listed[l] = true
		if count[l] == 0 || l.NFlows() != count[l] {
			t.Fatalf("step %d: link %s listed with %d flows, %d cross it", step, l, l.NFlows(), count[l])
		}
	}
	if len(listed) != len(count) {
		t.Fatalf("step %d: %d links listed, %d carry flows", step, len(listed), len(count))
	}
	for l, sum := range load {
		if sum > l.Capacity*(1+tol) {
			t.Fatalf("step %d: link %s carries %.17g B/s over its capacity", step, l, sum)
		}
	}
	for i, fl := range fluid.Flows() {
		bottlenecked := false
		for _, l := range fl.Links() {
			if l.Capacity > 0 && load[l] >= l.Capacity*(1-tol) && maxRate[l] <= fl.Rate()*(1+tol) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("step %d: flow %d at %.17g B/s crosses no saturated link where it is among the fastest", step, i, fl.Rate())
		}
	}
}

// Random flow arrivals and departures on a Hydra platform, with links
// going from idle to loaded and back and levels degraded midway, keep the
// rates max-min fair and the set of loaded links exact.
func TestFluidMaxMinFairUnderChurn(t *testing.T) {
	e := sim.NewEngine()
	p := netmodel.NewPlatform(e, cluster.Hydra(4, 1))
	fluid := p.Fluid()
	rng := rand.New(rand.NewSource(11))
	n := p.NumCores()
	flows := map[*netmodel.Link]int{}
	idled := 0 // links that went 0 → 1 → 0 flows
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(100); {
		case r < 2:
			p.DegradeLevel(rng.Intn(p.Hierarchy().Depth()), 0.5+0.5*rng.Float64())
		case r < 50 || len(fluid.Flows()) == 0:
			if len(fluid.Flows()) < 48 {
				a, b := rng.Intn(n), rng.Intn(n)
				path, _ := p.CommPath(a, b)
				if rng.Intn(8) == 0 {
					path = p.MemPath(a)
				}
				fluid.AddFlow(path, 1e6)
			}
		default:
			fs := fluid.Flows()
			fluid.Retire(fs[rng.Intn(len(fs))])
		}
		fluid.Recompute()
		checkMaxMinFair(t, step, fluid)
		for _, l := range fluid.ListedLinks() {
			flows[l] = max(flows[l], 1)
		}
		for l, seen := range flows {
			if seen == 1 && l.NFlows() == 0 {
				flows[l] = 2
				idled++
			}
		}
	}
	if idled < 50 {
		t.Errorf("only %d links went idle again; the churn does not exercise the link set", idled)
	}
}
