// The declarative benchmark registry. A suite is a named, thresholded
// set of benchmarks generated from the scenario space the service
// actually serves: hierarchy shape × depth × collective × comm size ×
// search mode. Suites run in-process under the harness, so the same
// registration drives `mrperf run` (measurement), `mrperf smoke`
// (1-iteration existence check in make check), and `make bench-gate`
// (comparison against the committed trajectory).

package perf

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mixedradix"
	"repro/internal/perm"
	"repro/internal/topology"
)

// Bench is one registered benchmark.
type Bench struct {
	Name string
	F    func(*B)
}

// Suite is one named benchmark family with its own regression threshold.
type Suite struct {
	Name string
	// Description is shown by mrperf list.
	Description string
	// Threshold is the relative slowdown the gate tolerates (e.g. 0.20).
	Threshold float64
	Benches   []Bench
}

// scenario is one point of the sweep grid.
type scenario struct {
	shape    []int
	coll     advisor.Collective
	commSize int
	mode     string // "full" or "pruned"
}

func (s scenario) name(prefix string) string {
	return fmt.Sprintf("%s/h=%s/%s/c=%d/%s",
		prefix, intsDash(s.shape), s.coll, s.commSize, s.mode)
}

func intsDash(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// searchShapes is the scenario-space grid of the order-search suite:
// the depth-6 fast-path headline shape plus a shallow and a skewed
// hierarchy, covering the depths mapd actually serves.
var searchShapes = [][]int{
	{4, 2, 4, 2, 4, 2}, // depth 6, 512 cores — the PR 4 headline scenario
	{2, 4, 2, 8},       // depth 4, 128 cores — Hydra-like
	{16, 2, 2, 8},      // depth 4, 512 cores — wide outer level
}

// KernelSuite benchmarks the closed-form §3.3 metric kernels against the
// retained table oracle — the "~6500×" claim checked on every commit.
func KernelSuite() Suite {
	s := Suite{
		Name:        "kernels",
		Description: "closed-form §3.3 metric kernels vs. the table oracle",
		Threshold:   0.20,
	}
	for _, shape := range searchShapes {
		shape := shape
		h := topology.MustNew(shape...)
		sigma := perm.Reversed(h.Depth())
		comm := h.Level(h.Depth()-1).Arity * h.Level(h.Depth()-2).Arity
		s.Benches = append(s.Benches, Bench{
			Name: fmt.Sprintf("CharacterizeFast/h=%s/c=%d", intsDash(shape), comm),
			F: func(b *B) {
				for i := 0; i < b.N; i++ {
					if _, err := metrics.Characterize(h, sigma, comm); err != nil {
						b.Fatalf("%v", err)
					}
				}
			},
		})
	}
	// One table-path point keeps the oracle's cost on the trajectory, so
	// a differential-test slowdown is visible too.
	hd4 := topology.MustNew(2, 4, 2, 8)
	sigmaD4 := perm.Reversed(4)
	s.Benches = append(s.Benches, Bench{
		Name: "CharacterizeTable/h=2,4,2,8/c=16",
		F: func(b *B) {
			for i := 0; i < b.N; i++ {
				if _, err := metrics.CharacterizeTable(hd4, sigmaD4, 16); err != nil {
					b.Fatalf("%v", err)
				}
			}
		},
	})
	// The signature kernel is the pruning fast path's inner loop.
	hd6 := topology.MustNew(4, 2, 4, 2, 4, 2)
	sigmaD6 := perm.Reversed(6)
	s.Benches = append(s.Benches, Bench{
		Name: "OrderSignature/h=4,2,4,2,4,2/c=64",
		F: func(b *B) {
			for i := 0; i < b.N; i++ {
				if _, err := metrics.OrderSignature(hd6, sigmaD6, 64, metrics.SignatureOpts{Ring: true}); err != nil {
					b.Fatalf("%v", err)
				}
			}
		},
	})
	return s
}

// OrderSearchSuite sweeps the sequential advisor.Rank over the scenario
// grid in both search modes (every order evaluated vs. one evaluation per
// equivalence class), plus the branch-and-bound engine at deep
// hierarchies.
func OrderSearchSuite() Suite {
	s := Suite{
		Name:        "order_search",
		Description: "advisor.Rank over shape × collective × comm size × search mode",
		Threshold:   0.25,
	}
	grid := []scenario{}
	for _, shape := range searchShapes {
		for _, coll := range []advisor.Collective{advisor.Alltoall, advisor.Allreduce} {
			comm := 64
			if mixedradix.Size(shape)%comm != 0 || mixedradix.Size(shape) < comm {
				comm = 16
			}
			for _, mode := range []string{"full", "pruned"} {
				grid = append(grid, scenario{shape, coll, comm, mode})
			}
		}
	}
	for _, sc := range grid {
		sc := sc
		spec := cluster.Hydra(16, 1)
		adv := advisor.Scenario{
			Spec:      spec,
			Hierarchy: topology.MustNew(sc.shape...),
			Coll:      sc.coll,
			CommSize:  sc.commSize,
			Bytes:     4 << 20,
		}
		want := factorial(len(sc.shape))
		noPrune := sc.mode == "full"
		s.Benches = append(s.Benches, Bench{
			Name: sc.name("OrderSearch"),
			F: func(b *B) {
				ctx := context.Background()
				for i := 0; i < b.N; i++ {
					ranked, err := advisor.Rank(ctx, adv, nil, advisor.RankOptions{NoPrune: noPrune})
					if err != nil {
						b.Fatalf("%v", err)
					}
					if len(ranked) != want {
						b.Fatalf("ranked %d orders, want %d", len(ranked), want)
					}
				}
			},
		})
	}
	// Deep hierarchies: the branch-and-bound engine mapd serves every
	// advise from, over cluster.Cloud at depths past the exhaustive
	// ranking's reach. Non-simultaneous scenarios prune to an exact bnb run
	// through depth 12; the simultaneous depth-12 case exhausts the
	// node budget and degrades to beam, covering the fallback's cost.
	deep := []struct {
		depth int
		sim   bool
		mode  string
	}{
		{8, false, advisor.ModeBnB},
		{10, false, advisor.ModeBnB},
		{12, false, advisor.ModeBnB},
		{12, true, advisor.ModeBeam},
	}
	for _, dc := range deep {
		dc := dc
		spec := cluster.Cloud(dc.depth)
		adv := advisor.Scenario{
			Spec:         spec,
			Hierarchy:    spec.Hierarchy(),
			Coll:         advisor.Alltoall,
			CommSize:     64,
			Simultaneous: dc.sim,
			Bytes:        4 << 20,
		}
		wantMode := dc.mode
		s.Benches = append(s.Benches, Bench{
			Name: fmt.Sprintf("OrderSearchDeep/machine=cloud/d=%d/alltoall/c=64/%s", dc.depth, wantMode),
			F: func(b *B) {
				ctx := context.Background()
				for i := 0; i < b.N; i++ {
					res, err := advisor.SearchOrders(ctx, adv, advisor.SearchOptions{Top: 5})
					if err != nil {
						b.Fatalf("%v", err)
					}
					if res.Mode != wantMode {
						b.Fatalf("search mode %s, want %s", res.Mode, wantMode)
					}
				}
			},
		})
	}
	return s
}

// MixedRadixSuite benchmarks the enumeration core: decompose/compose and
// the allocation-free Reorderer table fill.
func MixedRadixSuite() Suite {
	s := Suite{
		Name:        "mixedradix",
		Description: "decompose/compose and Reorderer table kernels",
		Threshold:   0.25,
	}
	shape := []int{16, 2, 2, 8}
	sigma := []int{3, 2, 1, 0}
	n := mixedradix.Size(shape)
	s.Benches = append(s.Benches, Bench{
		Name: "DecomposeCompose/h=16,2,2,8",
		F: func(b *B) {
			c := make([]int, len(shape))
			for i := 0; i < b.N; i++ {
				mixedradix.DecomposeInto(shape, i%n, c)
				if got := mixedradix.Compose(shape, c, sigma); got < 0 {
					b.Fatalf("negative rank")
				}
			}
		},
	})
	s.Benches = append(s.Benches, Bench{
		Name: "ReordererTable/h=16,2,2,8",
		F: func(b *B) {
			ro, err := mixedradix.NewReorderer(shape, sigma)
			if err != nil {
				b.Fatalf("%v", err)
			}
			t := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ro.TableInto(t)
			}
		},
	})
	return s
}

func factorial(k int) int {
	f := 1
	for i := 2; i <= k; i++ {
		f *= i
	}
	return f
}

// Suites returns every registered suite, sorted by name. The serving
// suite lives in loadgen.go; everything else above.
func Suites() []Suite {
	all := []Suite{
		FleetSuite(),
		KernelSuite(),
		MixedRadixSuite(),
		OrderSearchSuite(),
		ProcmapSuite(),
		ServingSuite(),
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// FindSuite resolves a suite by name.
func FindSuite(name string) (Suite, error) {
	for _, s := range Suites() {
		if s.Name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range Suites() {
		names = append(names, s.Name)
	}
	return Suite{}, fmt.Errorf("perf: unknown suite %q (have %s)", name, strings.Join(names, ", "))
}

// RunSuite executes every benchmark of the suite and returns the record.
func RunSuite(s Suite, gitSHA, timestamp string, opts RunOptions) (*Record, error) {
	opts = opts.withDefaults()
	rec := NewRecord(s.Name, gitSHA, timestamp)
	rec.Reps = opts.Reps
	rec.BenchTime = opts.BenchTime.String()
	if opts.Smoke {
		rec.Reps = 1
		rec.BenchTime = "1x"
	}
	for _, bm := range s.Benches {
		res, err := runBench(bm, opts)
		if err != nil {
			return nil, fmt.Errorf("suite %s: %s: %w", s.Name, bm.Name, err)
		}
		if opts.Logf != nil {
			opts.Logf("%s", res.GoBenchLine())
		}
		rec.Results = append(rec.Results, res)
	}
	rec.Sort()
	return rec, nil
}
