// Package repro's benchmark harness: one benchmark per table and figure of
// the paper (see DESIGN.md §4 for the experiment index), plus the ablation
// benchmarks of DESIGN.md §5. Each benchmark regenerates the corresponding
// result on the simulated clusters and reports the headline quantities as
// custom metrics; `go test -bench=.` therefore reproduces the paper's
// evaluation end to end. The cmd/mrbench, cmd/mrsplatt and cmd/mrcg tools
// print the full tables.
package repro

import (
	"fmt"

	"testing"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/heat"
	"repro/internal/mixedradix"
	"repro/internal/mpi"
	"repro/internal/perm"
	"repro/internal/slurm"
	"repro/internal/splatt"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// BenchmarkTable1 regenerates Table 1 (rank 10 on ⟦2,2,4⟧ under all six
// orders) each iteration.
func BenchmarkTable1(b *testing.B) {
	h := []int{2, 2, 4}
	for i := 0; i < b.N; i++ {
		c := mixedradix.Decompose(h, 10)
		for _, sigma := range perm.All(3) {
			_ = mixedradix.Compose(h, c, sigma)
			_ = mixedradix.PermutedCoordinates(c, sigma)
			_ = mixedradix.PermutedHierarchy(h, sigma)
		}
	}
}

// BenchmarkFigure2 regenerates every order's full rank layout of Figure 2.
func BenchmarkFigure2(b *testing.B) {
	h := []int{2, 2, 4}
	for i := 0; i < b.N; i++ {
		for _, sigma := range perm.All(3) {
			if _, err := mixedradix.ReorderAll(h, sigma); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// microFigure measures one figure's spread and packed orders at a large
// message size in both scenarios and reports the four bandwidths — the
// shape the corresponding paper plot shows.
func microFigure(b *testing.B, mb figures.MicroBench, spread, packed string, size int64) {
	b.Helper()
	sp, err := perm.Parse(spread)
	if err != nil {
		b.Fatal(err)
	}
	pk, err := perm.Parse(packed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mb.Config
	cfg.Iters = 1
	var s1, sA, p1, pA bench.Point
	for i := 0; i < b.N; i++ {
		if s1, err = bench.Measure(cfg, sp, size, false); err != nil {
			b.Fatal(err)
		}
		if sA, err = bench.Measure(cfg, sp, size, true); err != nil {
			b.Fatal(err)
		}
		if p1, err = bench.Measure(cfg, pk, size, false); err != nil {
			b.Fatal(err)
		}
		if pA, err = bench.Measure(cfg, pk, size, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s1.Bandwidth/1e6, "spread-1comm-MB/s")
	b.ReportMetric(sA.Bandwidth/1e6, "spread-all-MB/s")
	b.ReportMetric(p1.Bandwidth/1e6, "packed-1comm-MB/s")
	b.ReportMetric(pA.Bandwidth/1e6, "packed-all-MB/s")
}

// BenchmarkFigure3 — Hydra, Alltoall, 16 ranks/comm (spread vs packed).
func BenchmarkFigure3(b *testing.B) {
	microFigure(b, figures.Figure3(nil), "0-1-2-3", "3-2-1-0", 4<<20)
}

// BenchmarkFigure4 — Hydra, Alltoall, 128 ranks/comm.
func BenchmarkFigure4(b *testing.B) {
	microFigure(b, figures.Figure4(nil), "0-1-2-3", "3-2-1-0", 16<<20)
}

// BenchmarkFigure5 — LUMI, Alltoall, 16 ranks/comm.
func BenchmarkFigure5(b *testing.B) {
	microFigure(b, figures.Figure5(nil), "0-1-2-3-4", "4-3-2-1-0", 4<<20)
}

// BenchmarkFigure6 — Hydra, Allreduce, 64 ranks/comm.
func BenchmarkFigure6(b *testing.B) {
	microFigure(b, figures.Figure6(nil), "0-1-2-3", "3-2-1-0", 8<<20)
}

// BenchmarkFigure7 — LUMI, Allgather, 256 ranks/comm.
func BenchmarkFigure7(b *testing.B) {
	microFigure(b, figures.Figure7(nil), "0-1-2-3-4", "4-3-2-1-0", 8<<20)
}

// splattBench runs the Figure 8 CPD once under one order on 8 Hydra nodes.
func splattBench(b *testing.B, order string, nics int) *splatt.Result {
	b.Helper()
	sigma, err := perm.Parse(order)
	if err != nil {
		b.Fatal(err)
	}
	res, err := splatt.Run(splatt.Config{
		Spec:      cluster.Hydra(8, nics),
		Hierarchy: cluster.HydraHierarchy(8),
		Order:     sigma,
		Grid:      tensor.Grid{16, 4, 4},
		Tensor:    figure8Tensor(),
		Rank:      16,
		Iters:     2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

var figure8TensorCache *tensor.Tensor

func figure8Tensor() *tensor.Tensor {
	if figure8TensorCache == nil {
		figure8TensorCache = tensor.SyntheticNell([3]int{400000, 2000, 2000}, 1_000_000, 17)
	}
	return figure8TensorCache
}

// BenchmarkFigure8 compares the Slurm default order with the packed order
// on the simulated Splatt CPD (Figure 8a, 1 NIC).
func BenchmarkFigure8(b *testing.B) {
	var def, best *splatt.Result
	for i := 0; i < b.N; i++ {
		def = splattBench(b, "1-3-2-0", 1) // Slurm default on Hydra
		best = splattBench(b, "3-2-1-0", 1)
	}
	b.ReportMetric(def.Duration*1e3, "slurm-default-ms")
	b.ReportMetric(best.Duration*1e3, "packed-ms")
	b.ReportMetric(100*(def.Duration-best.Duration)/def.Duration, "improvement-%")
}

// BenchmarkFigure8TwoNICs is Figure 8b: the second NIC lifts every order.
func BenchmarkFigure8TwoNICs(b *testing.B) {
	var one, two *splatt.Result
	for i := 0; i < b.N; i++ {
		one = splattBench(b, "0-1-2-3", 1)
		two = splattBench(b, "0-1-2-3", 2)
	}
	b.ReportMetric(one.Duration*1e3, "one-nic-ms")
	b.ReportMetric(two.Duration*1e3, "two-nic-ms")
}

// BenchmarkFigure8Correlation reproduces §4.2's attribution: Pearson
// correlation between CPD duration and Alltoallv time in 16-rank comms.
func BenchmarkFigure8Correlation(b *testing.B) {
	orders := []string{"0-1-2-3", "1-3-2-0", "3-2-1-0", "2-1-0-3"}
	var r float64
	for i := 0; i < b.N; i++ {
		var durations, a16 []float64
		for _, o := range orders {
			res := splattBench(b, o, 1)
			durations = append(durations, res.Duration)
			a16 = append(a16, res.Trace.MaxTimeIn("Alltoall", 16))
		}
		r = trace.Pearson(durations, a16)
	}
	b.ReportMetric(r, "pearson")
}

// BenchmarkFigure9 runs the CG strong-scaling bars for 8 processes: every
// distinct core selection of one LUMI node.
func BenchmarkFigure9(b *testing.B) {
	prob := cg.Problem{N: 16384, NNZPerRow: 8, OuterIters: 1, InnerIters: 15, Lambda: 15, Seed: 5}
	var best, def float64
	for i := 0; i < b.N; i++ {
		sels, err := figures.DistinctSelections(8)
		if err != nil {
			b.Fatal(err)
		}
		best, def = 0, 0
		for _, s := range sels {
			res, err := cg.Run(cluster.LUMINode(), s.Cores, prob, mpi.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if best == 0 || res.Duration < best {
				best = res.Duration
			}
			if isIdentity(s.Cores) {
				def = res.Duration
			}
		}
	}
	b.ReportMetric(best*1e3, "best-selection-ms")
	b.ReportMetric(def*1e3, "slurm-default-ms")
}

func isIdentity(cores []int) bool {
	for i, c := range cores {
		if c != i {
			return false
		}
	}
	return true
}

// BenchmarkAblationCollAlgorithms forces each Alltoall algorithm on the
// same communicator and size ("results with a fixed algorithm show similar
// trends", §4.1.1).
func BenchmarkAblationCollAlgorithms(b *testing.B) {
	for _, alg := range []string{"pairwise", "bruck", "linear"} {
		b.Run(alg, func(b *testing.B) {
			cfg := figures.Figure3(nil).Config
			cfg.Iters = 1
			cfg.MPI.ForceAlltoall = alg
			var pt bench.Point
			var err error
			for i := 0; i < b.N; i++ {
				if pt, err = bench.Measure(cfg, []int{3, 2, 1, 0}, 1<<20, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.Bandwidth/1e6, "MB/s")
		})
	}
}

// BenchmarkAblationFakeLevel contrasts Hydra with its fake half-socket
// level (⟦16,2,2,8⟧, 24 orders) against the physical ⟦16,2,16⟧ (6 orders):
// the fake level exposes strictly more distinct placements.
func BenchmarkAblationFakeLevel(b *testing.B) {
	faked := cluster.HydraHierarchy(16)
	real := cluster.HydraReal(16, 1).Hierarchy()
	var fakedPlacements, realPlacements int
	for i := 0; i < b.N; i++ {
		fakedPlacements = distinctPlacements(b, faked.Arities())
		realPlacements = distinctPlacements(b, real.Arities())
	}
	b.ReportMetric(float64(fakedPlacements), "faked-placements")
	b.ReportMetric(float64(realPlacements), "real-placements")
	if fakedPlacements <= realPlacements {
		b.Fatalf("fake level added no placements: %d vs %d", fakedPlacements, realPlacements)
	}
}

func distinctPlacements(b *testing.B, h []int) int {
	b.Helper()
	seen := map[string]bool{}
	for _, sigma := range perm.All(len(h)) {
		tab, err := mixedradix.ReorderAll(h, sigma)
		if err != nil {
			b.Fatal(err)
		}
		seen[fmt.Sprint(tab[:64])] = true // prefix suffices as fingerprint
	}
	return len(seen)
}

// BenchmarkAblationContention disables max-min bandwidth sharing: the
// paper's one-vs-32-communicator gap for spread mappings collapses,
// demonstrating the substrate's sharing model is what carries the result.
func BenchmarkAblationContention(b *testing.B) {
	base := figures.Figure3(nil).Config
	base.Iters = 1
	spread := []int{0, 1, 2, 3}
	var gapShared, gapFree float64
	for i := 0; i < b.N; i++ {
		one, err := bench.Measure(base, spread, 4<<20, false)
		if err != nil {
			b.Fatal(err)
		}
		all, err := bench.Measure(base, spread, 4<<20, true)
		if err != nil {
			b.Fatal(err)
		}
		gapShared = one.Bandwidth / all.Bandwidth

		free := base
		free.Spec.NoContention = true
		oneF, err := bench.Measure(free, spread, 4<<20, false)
		if err != nil {
			b.Fatal(err)
		}
		allF, err := bench.Measure(free, spread, 4<<20, true)
		if err != nil {
			b.Fatal(err)
		}
		gapFree = oneF.Bandwidth / allF.Bandwidth
	}
	b.ReportMetric(gapShared, "gap-with-contention")
	b.ReportMetric(gapFree, "gap-without-contention")
}

// BenchmarkAblationNICs generalizes Figure 8a vs 8b: the spread order's
// micro-benchmark bandwidth scales with the NIC count.
func BenchmarkAblationNICs(b *testing.B) {
	spread := []int{0, 1, 2, 3}
	var bw1, bw2 float64
	for i := 0; i < b.N; i++ {
		for _, nics := range []int{1, 2} {
			cfg := figures.Figure3(nil).Config
			cfg.Spec = cluster.Hydra(16, nics)
			cfg.Iters = 1
			pt, err := bench.Measure(cfg, spread, 4<<20, true)
			if err != nil {
				b.Fatal(err)
			}
			if nics == 1 {
				bw1 = pt.Bandwidth
			} else {
				bw2 = pt.Bandwidth
			}
		}
	}
	b.ReportMetric(bw1/1e6, "one-nic-MB/s")
	b.ReportMetric(bw2/1e6, "two-nic-MB/s")
}

// BenchmarkLegendMetrics regenerates every figure legend characterization.
func BenchmarkLegendMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = figures.LegendCharacterizations()
	}
}

// BenchmarkHeatReorder measures the extension application (2D Jacobi heat
// solver on a Cartesian communicator): a cyclic launch with and without
// the mixed-radix reorder of CartCreate.
func BenchmarkHeatReorder(b *testing.B) {
	h := cluster.HydraHierarchy(4)
	dist := slurm.Distribution{Node: slurm.Cyclic, Socket: slurm.Cyclic}
	binding, err := dist.Binding(h)
	if err != nil {
		b.Fatal(err)
	}
	prob := heat.Problem{NX: 128, NY: 128, Iters: 20, Top: 1}
	var plain, reordered float64
	for i := 0; i < b.N; i++ {
		p, err := heat.Run(cluster.Hydra(4, 1), binding, 16, 8, prob, false, mpi.Config{})
		if err != nil {
			b.Fatal(err)
		}
		r, err := heat.Run(cluster.Hydra(4, 1), binding, 16, 8, prob, true, mpi.Config{})
		if err != nil {
			b.Fatal(err)
		}
		plain, reordered = p.Duration, r.Duration
	}
	b.ReportMetric(plain*1e6, "cyclic-launch-us")
	b.ReportMetric(reordered*1e6, "reordered-us")
}
