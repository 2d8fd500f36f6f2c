package advisor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/topology"
)

func specFor(h topology.Hierarchy) netmodel.Spec {
	// Depth-5 shapes need the five-level LUMI spec (see prune_test);
	// deeper shapes use the cloud machine, whose template matches the
	// depth-6 and depth-7 shapes below — a shallower spec would make the
	// fully-nested communicators degenerate.
	switch {
	case h.Depth() >= 6:
		return cluster.Cloud(h.Depth())
	case h.Depth() == 5:
		return cluster.LUMI(16)
	default:
		return cluster.Hydra(16, 1)
	}
}

// TestBnBEqualsFull is the exactness proof of the branch-and-bound: for
// every shape × collective × divisor × one-vs-all-comms scenario, the
// bounded search must return exactly the head of the exhaustive ranking —
// same orders, same values — with a zero gap and a complete accounting
// (Covered + Pruned = k!). The shapes include the machines /v1/advise
// serves with their real specs, and the answer is checked both at the
// default response size and at the largest one the service allows.
func TestBnBEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	colls := []Collective{Alltoall, Allgather, Allreduce}
	type machine struct {
		h    topology.Hierarchy
		spec netmodel.Spec
	}
	var machines []machine
	for _, ar := range [][]int{
		{2, 2, 4},
		{2, 2, 2, 2},
		{4, 2, 2, 2},
		{2, 3, 2, 2},
		{2, 2, 2, 2, 2},
		{2, 2, 2, 2, 2, 4},    // cluster.Cloud(6)
		{2, 2, 2, 2, 2, 2, 4}, // cluster.Cloud(7)
	} {
		h := topology.MustNew(ar...)
		machines = append(machines, machine{h, specFor(h)})
	}
	for _, spec := range []netmodel.Spec{
		cluster.Hydra(4, 1), // ⟦4,2,2,8⟧
		cluster.LUMI(2),     // ⟦2,2,4,2,8⟧
	} {
		machines = append(machines, machine{spec.Hierarchy(), spec})
	}
	for _, m := range machines {
		h, ar := m.h, m.h.Arities()
		for _, coll := range colls {
			for _, sim := range []bool{false, true} {
				for _, p := range divisorsOf(h.Size()) {
					sc := Scenario{
						Spec:         m.spec,
						Hierarchy:    h,
						Coll:         coll,
						CommSize:     p,
						Simultaneous: sim,
						Bytes:        int64(1+rng.Intn(64)) << 16,
					}
					ranked, err := Rank(context.Background(), sc, nil, RankOptions{})
					if err != nil {
						t.Fatalf("rank (%v, %s, p=%d, sim=%v): %v", ar, coll, p, sim, err)
					}
					for _, top := range []int{10, 64} {
						res, err := SearchOrders(context.Background(), sc, SearchOptions{Top: top})
						if err != nil {
							t.Fatalf("search (%v, %s, p=%d, sim=%v): %v", ar, coll, p, sim, err)
						}
						checkBnBAgainstRanking(t, fmt.Sprintf("%v, %s, p=%d, sim=%v, top=%d", ar, coll, p, sim, top),
							h, ranked, res, top)
					}
				}
			}
		}
	}
}

// checkBnBAgainstRanking asserts that one completed branch-and-bound
// result is the head of the exhaustive ranking.
func checkBnBAgainstRanking(t *testing.T, where string, h topology.Hierarchy, ranked []Prediction, res *SearchResult, top int) {
	t.Helper()
	if res.Mode != ModeBnB {
		t.Fatalf("mode %q, want %q (%s)", res.Mode, ModeBnB, where)
	}
	if res.OptimalityGap != 0 {
		t.Fatalf("bnb gap %v, want 0 (%s)", res.OptimalityGap, where)
	}
	kf := perm.Factorial(h.Depth())
	if res.Covered+res.Pruned != kf {
		t.Fatalf("covered %d + pruned %d != %d! (%s)", res.Covered, res.Pruned, kf, where)
	}
	want := top
	if len(ranked) < want {
		want = len(ranked)
	}
	if len(res.Best) != want {
		t.Fatalf("got %d best orders, want %d (%s)", len(res.Best), want, where)
	}
	for i := 0; i < want; i++ {
		if !perm.Equal(ranked[i].Order, res.Best[i].Order) {
			t.Fatalf("rank %d order mismatch (%s): full %v bnb %v",
				i, where, ranked[i].Order, res.Best[i].Order)
		}
		if ranked[i].Time != res.Best[i].Time || ranked[i].Bandwidth != res.Best[i].Bandwidth ||
			ranked[i].BottleneckLevel != res.Best[i].BottleneckLevel {
			t.Fatalf("rank %d value mismatch for order %v (%s): full %+v bnb %+v",
				i, ranked[i].Order, where, ranked[i], res.Best[i])
		}
	}
	// Worst is the worst *evaluated* order: it can never be better than
	// the true best or worse than the true worst, and with nothing pruned
	// it is exactly the ranking's last entry, tie-break included.
	trueWorst := ranked[len(ranked)-1]
	if res.Worst.Time > trueWorst.Time || res.Worst.Time < ranked[0].Time {
		t.Fatalf("worst evaluated %v outside [best %v, worst %v] (%s)",
			res.Worst.Time, ranked[0].Time, trueWorst.Time, where)
	}
	if res.Pruned == 0 && (!perm.Equal(res.Worst.Order, trueWorst.Order) || res.Worst.Time != trueWorst.Time) {
		t.Fatalf("nothing pruned, yet worst %v (%v s) != ranking's last %v (%v s) (%s)",
			res.Worst.Order, res.Worst.Time, trueWorst.Order, trueWorst.Time, where)
	}
	if res.Evaluated <= 0 || res.Evaluated > int64(len(ranked)) {
		t.Fatalf("evaluated %d out of range (n=%d, %s)", res.Evaluated, len(ranked), where)
	}
}

// TestBeamGapUpperBound forces the beam fallback with a tiny node budget
// and checks the gap contract at depths where the exhaustive ranking is
// still computable: the reported gap must upper-bound the true gap, i.e.
// trueBest.Time ≥ bestFound.Time × (1 − gap).
func TestBeamGapUpperBound(t *testing.T) {
	h := topology.MustNew(2, 2, 2, 2, 2)
	spec := cluster.LUMI(16)
	for _, coll := range []Collective{Alltoall, Allgather, Allreduce} {
		for _, sim := range []bool{false, true} {
			for _, p := range []int{4, 8, 32} {
				sc := Scenario{
					Spec:         spec,
					Hierarchy:    h,
					Coll:         coll,
					CommSize:     p,
					Simultaneous: sim,
					Bytes:        8 << 20,
				}
				ranked, err := Rank(context.Background(), sc, nil, RankOptions{})
				if err != nil {
					t.Fatalf("rank (%s, p=%d, sim=%v): %v", coll, p, sim, err)
				}
				res, err := SearchOrders(context.Background(), sc, SearchOptions{
					Top:        3,
					NodeBudget: 1, // exhausted immediately: beam must answer
					BeamWidth:  2,
				})
				if err != nil {
					t.Fatalf("search (%s, p=%d, sim=%v): %v", coll, p, sim, err)
				}
				if res.Mode != ModeBeam {
					t.Fatalf("mode %q, want %q (%s, p=%d, sim=%v)", res.Mode, ModeBeam, coll, p, sim)
				}
				if res.OptimalityGap < 0 || res.OptimalityGap >= 1 {
					t.Fatalf("gap %v outside [0, 1)", res.OptimalityGap)
				}
				best := res.Best[0]
				trueBest := ranked[0]
				if best.Time < trueBest.Time {
					t.Fatalf("beam best %v beats the true optimum %v (%s, p=%d, sim=%v)",
						best.Time, trueBest.Time, coll, p, sim)
				}
				lower := best.Time * (1 - res.OptimalityGap)
				if trueBest.Time < lower*(1-1e-12) {
					t.Fatalf("gap %v does not cover the true gap: optimum %v < guaranteed floor %v (%s, p=%d, sim=%v)",
						res.OptimalityGap, trueBest.Time, lower, coll, p, sim)
				}

				// A beam wide enough to drop nothing evaluates every leaf,
				// in bound order rather than lexicographic order; its
				// worst must still be the ranking's last entry.
				wide, err := SearchOrders(context.Background(), sc, SearchOptions{NodeBudget: 1, BeamWidth: 1 << 20})
				if err != nil {
					t.Fatalf("wide beam (%s, p=%d, sim=%v): %v", coll, p, sim, err)
				}
				trueWorst := ranked[len(ranked)-1]
				if wide.Covered != int64(len(ranked)) || wide.OptimalityGap != 0 {
					t.Fatalf("wide beam covered %d of %d orders, gap %v (%s, p=%d, sim=%v)",
						wide.Covered, len(ranked), wide.OptimalityGap, coll, p, sim)
				}
				if !perm.Equal(wide.Worst.Order, trueWorst.Order) || wide.Worst.Time != trueWorst.Time {
					t.Fatalf("wide beam worst %v (%v s) != ranking's last %v (%v s) (%s, p=%d, sim=%v)",
						wide.Worst.Order, wide.Worst.Time, trueWorst.Order, trueWorst.Time, coll, p, sim)
				}
			}
		}
	}
}

// TestSearchOrdersDeterministic pins the engine's determinism: two runs of
// the same scenario (including a beam run) must agree bit for bit.
func TestSearchOrdersDeterministic(t *testing.T) {
	h := topology.MustNew(2, 2, 2, 2, 2, 2)
	sc := Scenario{
		Spec:      cluster.LUMI(16),
		Hierarchy: h,
		Coll:      Allreduce,
		CommSize:  8,
		Bytes:     4 << 20,
	}
	for _, budget := range []int64{0, 5} {
		a, err := SearchOrders(context.Background(), sc, SearchOptions{Top: 5, NodeBudget: budget, BeamWidth: 4})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SearchOrders(context.Background(), sc, SearchOptions{Top: 5, NodeBudget: budget, BeamWidth: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("budget %d: non-deterministic search:\n%+v\nvs\n%+v", budget, a, b)
		}
	}
}

// TestSearchOrdersMetrics checks the obs wiring of the bounded search:
// one latency sample and the class counters under the mode label.
func TestSearchOrdersMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	h := topology.MustNew(2, 2, 2, 2)
	sc := Scenario{
		Spec:      cluster.Hydra(16, 1),
		Hierarchy: h,
		Coll:      Alltoall,
		CommSize:  4,
		Bytes:     1 << 20,
	}
	var stats RankStats
	res, err := SearchOrders(context.Background(), sc, SearchOptions{
		Top:      3,
		Registry: reg,
		OnStats:  func(s RankStats) { stats = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != ModeBnB {
		t.Fatalf("stats mode %q, want %q", stats.Mode, ModeBnB)
	}
	if int64(stats.Classes) != res.Evaluated {
		t.Fatalf("stats classes %d != evaluated %d", stats.Classes, res.Evaluated)
	}
	ml := obs.L("mode", ModeBnB)
	if misses := reg.FindCounter("advisor_class_misses_total", ml); misses != float64(res.Evaluated) {
		t.Fatalf("class misses %v, want %d", misses, res.Evaluated)
	}
}

// TestSearchOrdersCancel: a cancelled context must stop the search, both
// a long descent and one far smaller than the periodic node-count check
// (every Hydra advise is that small).
func TestSearchOrdersCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hydra := cluster.Hydra(4, 1)
	for _, sc := range []Scenario{{
		Spec:      cluster.LUMI(16),
		Hierarchy: topology.MustNew(2, 2, 2, 2, 2, 2, 2),
		Coll:      Alltoall,
		CommSize:  128,
		Bytes:     1 << 20,
	}, {
		Spec:         hydra,
		Hierarchy:    hydra.Hierarchy(), // ⟦4,2,2,8⟧
		Coll:         Allreduce,
		CommSize:     16,
		Simultaneous: true,
		Bytes:        16 << 20,
	}} {
		if _, err := SearchOrders(ctx, sc, SearchOptions{Top: 1}); !errors.Is(err, context.Canceled) {
			t.Fatalf("search on %v with a cancelled context: err = %v, want context.Canceled", sc.Hierarchy, err)
		}
	}
}
