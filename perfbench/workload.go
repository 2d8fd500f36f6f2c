package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/commmatrix"
	"repro/internal/mapd"
	"repro/internal/perm"
	"repro/internal/procmap"
	"repro/internal/topology"
)

// request is one call a serving workload sends to the gate.
type request struct {
	path string
	body []byte
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own request structs reach here
	}
	return b
}

// referenceAdvice are the two shallow advise requests whose served answer
// is checked against the simulator on the serving workloads: cheap to
// simulate (24 orders of Hydra ⟦4,2,2,8⟧ at comm 16), one with a single
// communicator and one with all of them.
var referenceAdvice = []mapd.AdviseRequest{
	{Machine: "hydra", Nodes: 4, Collective: "alltoall", CommSize: 16},
	{Machine: "hydra", Nodes: 4, Collective: "allgather", CommSize: 16, Simultaneous: true},
}

// hotShapes are fleet-hot's four hierarchies: a small one, the paper's
// Hydra and LUMI nodes, and a LUMI pair. They are the same for every
// seed, so the seed moves which orders and ranks are asked, not how
// costly the mix is.
var hotShapes = []string{"2,2,4", "4,2,2,8", "2,4,2,8", "2,2,4,2,8"}

// hotMix builds fleet-hot's bounded request mix from the seed: for each
// shape, two /v1/map, one /v1/metrics/order and one /v1/select request
// under seeded orders and ranks, plus the two reference advise requests,
// all with distinct cache keys, shuffled into the order the clients
// cycle through.
func hotMix(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	var mix []request
	seen := map[string]bool{}
	add := func(gen func() request) {
		for {
			r := gen()
			k, err := cacheKey(r)
			if err != nil {
				panic(err) // the generators below only make valid requests
			}
			if !seen[k] {
				seen[k] = true
				mix = append(mix, r)
				return
			}
		}
	}
	for _, shape := range hotShapes {
		h := topology.MustParse(shape)
		order := func() string { return perm.Format(rng.Perm(h.Depth())) }
		for j := 0; j < 2; j++ {
			add(func() request {
				rank := rng.Intn(h.Size())
				return request{"/v1/map", mustJSON(mapd.MapRequest{Hierarchy: shape, Order: order(), Rank: &rank})}
			})
		}
		add(func() request {
			return request{"/v1/metrics/order", mustJSON(mapd.OrderMetricsRequest{Hierarchy: shape, Order: order()})}
		})
		add(func() request {
			return request{"/v1/select", mustJSON(mapd.SelectRequest{Hierarchy: shape, Order: order(), N: 4 + 4*rng.Intn(2)})}
		})
	}
	for _, a := range referenceAdvice {
		add(func() request { return request{"/v1/advise", mustJSON(a)} })
	}
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// coldBlock fixes advise-cold's mix within every block of 20 requests:
// 10 Hydra advise, 5 LUMI advise, 3 cloud advise and 2 matrix maps. A
// fixed count per block (shuffled within it) keeps the cost of a run's
// mix the same from seed to seed, which a per-request coin flip would
// not.
var coldBlock = [...]int{
	catHydra, catHydra, catHydra, catHydra, catHydra, catHydra, catHydra, catHydra, catHydra, catHydra,
	catLUMI, catLUMI, catLUMI, catLUMI, catLUMI,
	catCloud, catCloud, catCloud,
	catMatrix, catMatrix,
}

const (
	catHydra = iota
	catLUMI
	catCloud
	catMatrix
	numCats
)

// coldStream is advise-cold's request stream: request i is a pure
// function of the seed and i, and no two requests share a cache key.
// Each category cycles through a seeded shuffle of its parameter
// combinations, and a per-category occurrence counter is folded into
// the request (advise bytes, matrix seed), which keeps keys distinct.
type coldStream struct {
	seed   int64
	combos [numCats][]coldCombo
	slots  [numCats]int // occurrences of each category per block
	mats   []coldMatrix
}

type coldCombo struct {
	machine    string
	nodes      int
	depth      int
	collective string
	comm       int
	simul      bool
	matrix     int // index into coldStream.mats
}

type coldMatrix struct {
	hier   string
	sparse commmatrix.Sparse
}

func newColdStream(seed int64) (*coldStream, error) {
	s := &coldStream{seed: seed}
	for _, c := range coldBlock {
		s.slots[c]++
	}
	colls := []string{"alltoall", "allgather", "allreduce"}
	for _, simul := range []bool{false, true} {
		for _, coll := range colls {
			for _, comm := range []int{16, 32, 64} {
				for n := 2; n <= 16; n++ {
					if (32*n)%comm == 0 {
						s.combos[catHydra] = append(s.combos[catHydra], coldCombo{machine: "hydra", nodes: n, collective: coll, comm: comm, simul: simul})
					}
					s.combos[catLUMI] = append(s.combos[catLUMI], coldCombo{machine: "lumi", nodes: n, collective: coll, comm: comm, simul: simul})
				}
				// Cloud is one communicator of 16 only: an all-
				// communicator search, or a communicator of 32 or 64, at
				// depth 8–10 runs 0.3–3.7 s and would dominate a run on
				// its own.
				if !simul && comm == 16 {
					for d := 6; d <= 10; d++ {
						s.combos[catCloud] = append(s.combos[catCloud], coldCombo{machine: "cloud", depth: d, collective: coll, comm: comm})
					}
				}
			}
		}
	}
	gens := []struct {
		hier string
		gen  func() (*commmatrix.Matrix, error)
	}{
		{"2,4,4", func() (*commmatrix.Matrix, error) { return procmap.Halo(4, 8, 1024) }},
		{"2,2,8", func() (*commmatrix.Matrix, error) { return procmap.Halo(8, 4, 4096) }},
		{"2,2,4", func() (*commmatrix.Matrix, error) {
			return procmap.GridLayers([3]int{2, 2, 4}, [3]float64{10, 1000, 10})
		}},
	}
	for i, g := range gens {
		m, err := g.gen()
		if err != nil {
			return nil, err
		}
		s.mats = append(s.mats, coldMatrix{hier: g.hier, sparse: m.Sparse()})
		s.combos[catMatrix] = append(s.combos[catMatrix], coldCombo{matrix: i})
	}
	rng := rand.New(rand.NewSource(seed))
	for c := range s.combos {
		cs := s.combos[c]
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	}
	return s, nil
}

// at returns request i of the stream.
func (s *coldStream) at(i int) request {
	block, pos := i/len(coldBlock), i%len(coldBlock)
	layout := rand.New(rand.NewSource(s.seed ^ int64(block+1)*0x5851f42d4c957f2d)).Perm(len(coldBlock))
	cat := coldBlock[layout[pos]]
	occ := block * s.slots[cat] // occurrences of cat before this block
	for _, p := range layout[:pos] {
		if coldBlock[p] == cat {
			occ++
		}
	}
	combo := s.combos[cat][occ%len(s.combos[cat])]
	if cat == catMatrix {
		m := s.mats[combo.matrix]
		return request{"/v1/map/matrix", mustJSON(mapd.MatrixMapRequest{Hierarchy: m.hier, Matrix: m.sparse, Seed: int64(occ)})}
	}
	return request{"/v1/advise", mustJSON(mapd.AdviseRequest{
		Machine:      combo.machine,
		Nodes:        combo.nodes,
		Depth:        combo.depth,
		Collective:   combo.collective,
		CommSize:     combo.comm,
		Simultaneous: combo.simul,
		// A distinct size per occurrence makes every key distinct; the
		// 512-byte offset keeps it off the 16 MiB default the reference
		// advice uses.
		Bytes: 1<<20 + 512 + int64(occ)*4096,
	})}
}

// cacheKey is the replica's canonical cache key of a request, which is
// what "every key distinct" is about.
func cacheKey(r request) (string, error) {
	k, err := mapd.RoutingKey(r.path, r.body)
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", r.path, r.body, err)
	}
	return k, nil
}
