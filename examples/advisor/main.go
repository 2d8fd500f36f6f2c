// Advisor: ask the analytic model which rank order to use for a workload
// (here: Figure 3's Alltoall in 32 simultaneous 16-rank communicators on
// Hydra), then verify the top and bottom recommendations against the
// discrete-event simulator.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/advisor"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/perm"
)

func main() {
	sc := advisor.Scenario{
		Spec:         cluster.Hydra(16, 1),
		Hierarchy:    cluster.HydraHierarchy(16),
		Coll:         advisor.Alltoall,
		CommSize:     16,
		Simultaneous: true,
		Bytes:        16 << 20,
	}
	ranked, err := advisor.Rank(context.Background(), sc, nil, advisor.RankOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("analytic ranking of all 24 orders (top 3 and bottom 1):")
	for i := 0; i < 3; i++ {
		fmt.Printf("  %d. %s\n", i+1, advisor.Explain(sc, ranked[i]))
	}
	worst := ranked[len(ranked)-1]
	fmt.Printf("  ⋮\n  24. %s\n\n", advisor.Explain(sc, worst))

	// Verify against the simulator.
	cfg := bench.Config{
		Spec:      sc.Spec,
		Hierarchy: sc.Hierarchy,
		CommSize:  sc.CommSize,
		Coll:      bench.Alltoall,
		Iters:     1,
	}
	for _, pr := range []advisor.Prediction{ranked[0], worst} {
		pt, err := bench.Measure(cfg, pr.Order, sc.Bytes, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("order %s: predicted %6.0f MB/s, simulated %6.0f MB/s\n",
			perm.Format(pr.Order), pr.Bandwidth/1e6, pt.Bandwidth/1e6)
	}
	fmt.Println("\nThe model is first-order — use it to pick candidates, the")
	fmt.Println("simulator (or the real machine) to confirm.")
}
