// The sim suite: one bench.Measure — the MPI runtime, the fluid network
// model and the event engine together — per row, at the Hydra ⟦4,2,2,8⟧
// shape and message size of the paper-grid workload, so a change to the
// simulated message path has a layer-level before/after record. The
// allgather rows at communicator size 64 are the paper-grid scenario that
// costs the most simulation time.

package perf

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/cluster"
)

// simBytes is the collective size of every row: the paper-grid size.
const simBytes = 16 << 20

// SimSuite measures one simulated collective per iteration, with one
// communicator running alone and with all of them at once.
func SimSuite() Suite {
	s := Suite{
		Name:        "sim",
		Description: "bench.Measure at a fixed order: MPI runtime + fluid network + event engine",
		Threshold:   0.25,
	}
	spec := cluster.Hydra(4, 1)
	sigma := cluster.HydraSlurmDefaultOrder()
	for _, row := range []struct {
		coll bench.Collective
		comm int
	}{{bench.Alltoall, 16}, {bench.Allreduce, 16}, {bench.Allgather, 64}} {
		coll, comm := row.coll, row.comm
		cfg := bench.Config{
			Spec:      spec,
			Hierarchy: spec.Hierarchy(),
			CommSize:  comm,
			Coll:      coll,
			Iters:     1,
		}
		for _, simul := range []bool{false, true} {
			mode := "one"
			if simul {
				mode = "all"
			}
			s.Benches = append(s.Benches, Bench{
				Name: fmt.Sprintf("SimMeasure/h=%s/%s/c=%d/%s",
					intsDash(spec.Hierarchy().Arities()), coll, comm, mode),
				F: func(b *B) {
					for i := 0; i < b.N; i++ {
						pt, err := bench.Measure(cfg, sigma, simBytes, simul)
						if err != nil {
							b.Fatalf("%v", err)
						}
						if pt.Bandwidth <= 0 {
							b.Fatalf("bandwidth %v", pt.Bandwidth)
						}
					}
				},
			})
		}
	}
	return s
}
