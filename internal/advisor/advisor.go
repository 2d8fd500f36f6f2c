// Package advisor addresses the paper's §5 outlook — "this knowledge
// could help to predict which order is the most suitable for the used
// system and applications" — with an analytic bottleneck model: for a
// machine description, a collective, a communicator size and an order, it
// estimates the operation time from the traffic each hierarchy link
// carries and ranks the k! orders without running the simulator.
//
// The model is deliberately first-order (per-link bottleneck analysis of
// the large-message ring/pairwise schedules plus a latency term); its
// purpose is ranking orders, and the tests validate that its ranking
// agrees with the discrete-event simulation.
package advisor

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/netmodel"
	"repro/internal/perm"
	"repro/internal/topology"
)

// Collective selects the modelled operation.
type Collective string

// Modelled collectives (the paper's non-rooted set).
const (
	Alltoall  Collective = "alltoall"
	Allgather Collective = "allgather"
	Allreduce Collective = "allreduce"
)

// Scenario describes one prediction problem.
type Scenario struct {
	Spec      netmodel.Spec
	Hierarchy topology.Hierarchy
	Coll      Collective
	CommSize  int
	// Simultaneous: all world subcommunicators run the collective at once
	// (the right-hand plots of the paper's figures); otherwise only the
	// first one (left-hand plots).
	Simultaneous bool
	// Bytes is the total collective size S (commSize × per-rank count).
	Bytes int64
}

// Prediction is the model's estimate for one order.
type Prediction struct {
	Order     []int
	Time      float64 // seconds per operation
	Bandwidth float64 // S / Time
	// BottleneckLevel is the hierarchy level whose links bound the time
	// (-1 when the latency term dominates).
	BottleneckLevel int
	// Latency is the rounds×latency share of Time; Time−Latency is the
	// pure traffic (bottleneck-link) share. The branch-and-bound search
	// uses the split to substitute an admissible latency floor when
	// bounding partial orders.
	Latency float64
}

// Predict estimates the collective duration under order sigma.
func Predict(sc Scenario, sigma []int) (Prediction, error) {
	h := sc.Hierarchy
	n := h.Size()
	p := sc.CommSize
	if p <= 0 || n%p != 0 {
		return Prediction{}, fmt.Errorf("advisor: communicator size %d does not divide %d", p, n)
	}
	if sc.Bytes <= 0 {
		return Prediction{}, fmt.Errorf("advisor: non-positive size")
	}
	ro, err := mixedradix.NewReorderer(h.Arities(), sigma)
	if err != nil {
		return Prediction{}, err
	}
	// The inverse table is pure scratch here: pool it so a k!-order search
	// does not allocate k! n-entry tables.
	inv := invPool.Get(n)
	defer invPool.Put(inv)
	ro.InverseTableInto(inv)
	nComms := n / p
	if !sc.Simultaneous {
		nComms = 1
	}
	ar := h.Arities()
	k := h.Depth()
	// suffix[l] = cores per level-l domain.
	suffix := make([]int, k+1)
	suffix[k] = 1
	for l := k - 1; l >= 0; l-- {
		suffix[l] = suffix[l+1] * ar[l]
	}

	// traffic[l][d] accumulates bytes crossing the egress uplink of domain
	// d at level l; busTraffic[d] the innermost-domain (memory) traffic.
	traffic := make([]map[int]float64, k)
	for l := range traffic {
		traffic[l] = make(map[int]float64)
	}
	busTraffic := make(map[int]float64)
	inner := k - 2

	B := float64(sc.Bytes)
	maxCrossLevel := k // outermost level any comm pair crosses (lower = farther)
	for comm := 0; comm < nComms; comm++ {
		cores := inv[comm*p : (comm+1)*p]
		// Per-level occupancy of the communicator.
		for l := 0; l < k-1; l++ {
			if len(sc.Spec.Levels) <= l || sc.Spec.Levels[l].UpBandwidth <= 0 {
				continue
			}
			occ := map[int]int{}
			for _, c := range cores {
				occ[c/suffix[l+1]]++
			}
			for d, a := range occ {
				if a == p {
					continue // communicator fully inside: no crossing
				}
				traffic[l][d] += crossingBytes(sc.Coll, cores, suffix[l+1], d, a, p, B)
			}
		}
		// Innermost memory buses: every byte a rank sends or receives.
		if inner >= 0 && len(sc.Spec.Levels) > inner && sc.Spec.Levels[inner].BusBandwidth > 0 {
			occ := map[int]int{}
			for _, c := range cores {
				occ[c/suffix[inner+1]]++
			}
			perRankVolume := perRankBytes(sc.Coll, p, B)
			for d, a := range occ {
				busTraffic[d] += float64(a) * perRankVolume
			}
		}
		// Latency class: the outermost level any pair of this comm crosses.
		for i := 0; i+1 < len(cores); i++ {
			d := h.FirstDiffLevel(cores[i], cores[i+1])
			if d < maxCrossLevel {
				maxCrossLevel = d
			}
		}
	}

	// Bottleneck: the most loaded link.
	worst := 0.0
	level := -1
	nics := sc.Spec.NICsPerNode
	if nics <= 0 {
		nics = 1
	}
	for l := 0; l < k-1; l++ {
		if len(sc.Spec.Levels) <= l {
			continue
		}
		cap := sc.Spec.Levels[l].UpBandwidth
		if cap <= 0 {
			continue
		}
		if l == 0 {
			cap *= float64(nics)
		}
		for _, bytes := range traffic[l] {
			if t := bytes / cap; t > worst {
				worst = t
				level = l
			}
		}
	}
	if inner >= 0 && len(sc.Spec.Levels) > inner {
		cap := sc.Spec.Levels[inner].BusBandwidth
		if cap > 0 {
			for _, bytes := range busTraffic {
				if t := bytes / cap; t > worst {
					worst = t
					level = inner
				}
			}
		}
	}
	// Latency term: rounds × latency of the widest crossing.
	lat := 0.0
	if maxCrossLevel < len(sc.Spec.Levels) {
		lat = sc.Spec.Levels[maxCrossLevel].Latency
	}
	rounds := float64(p - 1)
	if sc.Coll == Allreduce {
		rounds = 2 * float64(p-1)
	}
	latTime := rounds * lat
	total := worst + latTime
	if latTime > worst {
		level = -1
	}
	if total <= 0 {
		return Prediction{}, fmt.Errorf("advisor: degenerate prediction")
	}
	return Prediction{
		Order:           append([]int(nil), sigma...),
		Time:            total,
		Bandwidth:       B / total,
		BottleneckLevel: level,
		Latency:         latTime,
	}, nil
}

// invPool recycles inverse-table scratch across Predict calls (shared by
// all advisor workers; TablePool is safe for concurrent use).
var invPool mixedradix.TablePool

// perRankBytes is the volume one rank pushes through its memory domain.
func perRankBytes(coll Collective, p int, B float64) float64 {
	switch coll {
	case Alltoall:
		// Sends and receives (p-1)/p of its B/p contribution.
		return 2 * B / float64(p)
	case Allgather:
		// Ring: forwards p-1 blocks of B/p and receives as many.
		return 2 * B * float64(p-1) / float64(p)
	case Allreduce:
		// Ring reduce-scatter + allgather: ≈ 2B in, 2B out per rank pair
		// of phases over chunks of B/p.
		return 4 * B * float64(p-1) / float64(p) / float64(p)
	}
	return B
}

// crossingBytes is the egress traffic of a domain holding a of the comm's
// p ranks during one operation.
func crossingBytes(coll Collective, cores []int, domSize, dom, a, p int, B float64) float64 {
	switch coll {
	case Alltoall:
		// Every ordered pair exchanges B/p².
		return float64(a) * float64(p-a) * B / float64(p) / float64(p)
	case Allgather, Allreduce:
		// Ring edges (i, i+1 mod p): each edge carries (p-1) blocks of B/p
		// (allgather) or 2(p-1) chunks of B/p (allreduce phases).
		perEdge := B * float64(p-1) / float64(p)
		if coll == Allreduce {
			perEdge = 2 * B * float64(p-1) / float64(p) / float64(p) * float64(p-1)
		}
		edges := 0
		for i := 0; i < p; i++ {
			next := (i + 1) % p
			if cores[i]/domSize == dom && cores[next]/domSize != dom {
				edges++
			}
		}
		return float64(edges) * perEdge
	}
	return 0
}

// Explain renders a short human-readable justification.
func Explain(sc Scenario, pr Prediction) string {
	where := "latency-bound"
	if pr.BottleneckLevel >= 0 {
		where = fmt.Sprintf("bounded by level %d (%s) links",
			pr.BottleneckLevel, sc.Hierarchy.Level(pr.BottleneckLevel).Name)
	}
	ch, err := metrics.Characterize(sc.Hierarchy, pr.Order, sc.CommSize)
	legend := ""
	if err == nil {
		legend = " — " + ch.String()
	}
	return fmt.Sprintf("order %s: predicted %.1f MB/s, %s%s",
		perm.Format(pr.Order), pr.Bandwidth/1e6, where, legend)
}
