// Exhaustive order ranking with §3.3 equivalence-class pruning: candidate
// orders are first grouped by their integer placement signature
// (metrics.OrderSignature, O(k²) per order), the expensive analytic
// Predict runs once per class representative, and the result fans out to
// every member of the class. Orders in the same class place the
// communicator identically, so they receive the same prediction; the
// lexicographic tie-break keeps the final ranking exactly equal to
// evaluating every order (proven by differential test).
//
// Rank is the test oracle of the branch-and-bound engine (SearchOrders)
// that serves advise requests, and the full-ranking baseline of the
// order-search benchmarks.

package advisor

import (
	"context"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/rt"
	"repro/internal/perm"
)

// RankOptions configures Rank.
type RankOptions struct {
	// NoPrune disables the equivalence-class fast path and evaluates every
	// order. The ranking is identical either way; the flag exists for
	// benchmarks and differential tests.
	NoPrune bool
	// Registry, when non-nil, receives search observability: the
	// advisor_class_hits_total / advisor_class_misses_total counters (orders
	// served from a class representative vs. representatives evaluated) and
	// the advisor_search_seconds latency histogram, all labeled with the
	// search mode.
	Registry *obs.Registry
	// OnStats, when non-nil, receives one RankStats per completed search —
	// the hook the service's workload analytics use to attribute a request
	// to its search mode without re-deriving it.
	OnStats func(RankStats)
}

// Search modes of the exhaustive ranking, as labeled on the advisor
// metrics and reported through RankStats. A search is "pruned" only when
// equivalence-class grouping actually shared evaluations; a grouping that
// degenerates to one class per order did exact work and is labeled
// accordingly. "fallback" is never produced by the advisor itself: it
// marks the service's breaker-open heuristic ranking.
const (
	ModeExact    = "exact"
	ModePruned   = "pruned"
	ModeFallback = "fallback"
)

// RankStats summarizes one completed search.
type RankStats struct {
	// Mode is the search mode (ModeExact/ModePruned from Rank,
	// ModeBnB/ModeBeam from SearchOrders).
	Mode string
	// Orders is the candidate count, Classes the evaluations performed.
	Orders, Classes int
	// Elapsed is the wall-clock search duration.
	Elapsed time.Duration
}

// Rank evaluates the given orders (all k! of the hierarchy when nil) and
// returns them ranked by predicted bandwidth, best first. Equal-bandwidth
// orders sort by lexicographic order permutation, so the ranking is
// deterministic across runs. Rank checks the context before every
// evaluation and returns ctx.Err() once it is done.
//
// Unless opts.NoPrune is set, Rank prunes the search by §3.3 equivalence
// class: orders whose placement signature matches an already-grouped order
// share one Predict evaluation. On symmetric hierarchies this collapses
// the k! candidates to a handful of classes.
func Rank(ctx context.Context, sc Scenario, orders [][]int, opts RankOptions) ([]Prediction, error) {
	start := time.Now()
	if orders == nil {
		orders = perm.All(sc.Hierarchy.Depth())
	}
	n := len(orders)
	if n == 0 {
		return nil, nil
	}
	ctx, span := rt.StartSpan(ctx, "advisor.rank")
	span.SetAttr("orders", int64(n))
	defer span.End()

	// groups[g] lists the indices of orders sharing one signature; the
	// first member is the class representative. A nil grouping (pruning
	// disabled, or a signature error to be re-reported by Predict) makes
	// every order its own class.
	var groups [][]int
	if !opts.NoPrune && n > 1 {
		groups = classGroups(sc, orders)
	}
	if groups == nil {
		groups = make([][]int, n)
		for i := range groups {
			groups[i] = []int{i}
		}
	}
	span.SetAttr("classes", int64(len(groups)))

	out := make([]Prediction, n)
	for _, members := range groups {
		if err := ctx.Err(); err != nil {
			span.SetError()
			return nil, err
		}
		pr, err := Predict(sc, orders[members[0]])
		if err != nil {
			span.SetError()
			return nil, err
		}
		for _, idx := range members {
			out[idx] = Prediction{
				Order:           append([]int(nil), orders[idx]...),
				Time:            pr.Time,
				Bandwidth:       pr.Bandwidth,
				BottleneckLevel: pr.BottleneckLevel,
				Latency:         pr.Latency,
			}
		}
	}
	mode := ModeExact
	if len(groups) < n {
		mode = ModePruned
	}
	if opts.Registry != nil {
		ml := obs.L("mode", mode)
		opts.Registry.Counter("advisor_class_misses_total", ml).AddInt(int64(len(groups)))
		opts.Registry.Counter("advisor_class_hits_total", ml).AddInt(int64(n - len(groups)))
		opts.Registry.Histogram("advisor_search_seconds", obs.SearchBuckets(), ml).
			Observe(time.Since(start).Seconds())
	}
	if opts.OnStats != nil {
		opts.OnStats(RankStats{Mode: mode, Orders: n, Classes: len(groups), Elapsed: time.Since(start)})
	}
	sortPredictions(out)
	return out, nil
}

// classGroups partitions the order indices into §3.3 equivalence classes
// by integer placement signature, preserving first-appearance order. It
// returns nil when any signature fails to compute, so Rank falls back to
// the unpruned path and Predict reports the underlying problem.
func classGroups(sc Scenario, orders [][]int) [][]int {
	// The signature only needs the components the model actually reads:
	// alltoall traffic depends on domain occupancy alone, so the ring
	// traversal is dropped and occupancy-equivalent orders merge. The
	// world tiling is required whenever every subcommunicator runs at
	// once — even for alltoall, because distinct tilings aggregate
	// different per-domain traffic (the exhaustive differential test
	// catches the collision if this is weakened).
	sigOpts := metrics.SignatureOpts{
		Ring:  sc.Coll != Alltoall,
		World: sc.Simultaneous,
	}
	byKey := make(map[string]int, len(orders))
	var groups [][]int
	for i, sigma := range orders {
		sig, err := metrics.OrderSignature(sc.Hierarchy, sigma, sc.CommSize, sigOpts)
		if err != nil {
			return nil
		}
		key := sig.Key()
		g, ok := byKey[key]
		if !ok {
			byKey[key] = len(groups)
			groups = append(groups, []int{i})
			continue
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// sortPredictions orders predictions by bandwidth (best first), breaking
// ties by lexicographic order permutation.
func sortPredictions(ps []Prediction) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Bandwidth != ps[j].Bandwidth {
			return ps[i].Bandwidth > ps[j].Bandwidth
		}
		return perm.Less(ps[i].Order, ps[j].Order)
	})
}
