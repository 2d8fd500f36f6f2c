package netmodel_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// checkMemoMatchesFresh compares CommPath with a fresh path construction
// for every ordered core pair.
func checkMemoMatchesFresh(t *testing.T, name string, p *netmodel.Platform) {
	t.Helper()
	n := p.NumCores()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			got, gotLat := p.CommPath(a, b)
			want, wantLat := p.ComputePath(a, b)
			if !slices.Equal(got, want) || gotLat != wantLat {
				t.Fatalf("%s: CommPath(%d, %d) = %v, %g; fresh %v, %g", name, a, b, got, gotLat, want, wantLat)
			}
		}
	}
}

// The memo is keyed by innermost-domain pair, which must be all a path
// depends on; degrading a level scales capacities in place, so memoized
// paths stay valid after DegradeLevel.
func TestCommPathMemoMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec netmodel.Spec
	}{
		{"hydra(4,1)", cluster.Hydra(4, 1)},
		{"lumi(2)", cluster.LUMI(2)},
	} {
		e := sim.NewEngine()
		p := netmodel.NewPlatform(e, tc.spec)
		checkMemoMatchesFresh(t, tc.name, p)
		e.At(0, func() { p.DegradeLevel(1, 0.5) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		checkMemoMatchesFresh(t, tc.name+" degraded", p)
	}
}

func TestCommPathWarmAllocsFree(t *testing.T) {
	p := netmodel.NewPlatform(sim.NewEngine(), cluster.Hydra(4, 1))
	n := p.NumCores()
	p.CommPath(3, n-5)
	if allocs := testing.AllocsPerRun(100, func() { p.CommPath(3, n-5) }); allocs != 0 {
		t.Errorf("warm CommPath allocates %v times per call, want 0", allocs)
	}
}

// Several goroutines fill the memo concurrently; under -race this checks
// the fill is synchronized, and every caller still sees the fresh path.
func TestCommPathConcurrentFill(t *testing.T) {
	p := netmodel.NewPlatform(sim.NewEngine(), cluster.Hydra(4, 1))
	n := p.NumCores()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for a := 0; a < n; a++ {
				b := (a*7 + g*13) % n
				got, lat := p.CommPath(a, b)
				want, wantLat := p.ComputePath(a, b)
				if !slices.Equal(got, want) || lat != wantLat {
					t.Errorf("CommPath(%d, %d) = %v, %g; fresh %v, %g", a, b, got, lat, want, wantLat)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
