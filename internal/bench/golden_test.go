package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perm"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenAlltoallGrid simulates Hydra ⟦4,2,2,8⟧ alltoall at
// communicator size 16 under all 24 orders, with one communicator and
// with all of them, and compares the bandwidths bit for bit with the
// golden file. The simulator is deterministic, so the file holds at every
// GOMAXPROCS and on every run; `go test -run TestGoldenAlltoallGrid
// -update ./internal/bench` rewrites it after an intended change.
func TestGoldenAlltoallGrid(t *testing.T) {
	spec := cluster.Hydra(4, 1)
	cfg := Config{
		Spec:      spec,
		Hierarchy: spec.Hierarchy(),
		CommSize:  16,
		Coll:      Alltoall,
		Iters:     1,
	}
	var b strings.Builder
	for _, sigma := range perm.All(cfg.Hierarchy.Depth()) {
		for _, simul := range []bool{false, true} {
			pt, err := Measure(cfg, sigma, 16<<20, simul)
			if err != nil {
				t.Fatal(err)
			}
			mode := "one"
			if simul {
				mode = "all"
			}
			fmt.Fprintf(&b, "%v %s %x\n", sigma, mode, pt.Bandwidth)
		}
	}
	path := filepath.Join("testdata", "alltoall_c16_grid.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden file has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d: got %q, want %q", i+1, gotLines[i], wantLines[i])
		}
	}
}
