package apps

import (
	"sort"
	"strings"
	"testing"

	ivy "repro"
)

// TestRegistry pins what the `ivy` subcommands and the harness rely on:
// Names is the six simulated programs in sorted order (`ivy prof -app
// all` prints in it), a Size override reaches the program's parameters,
// an SPMD-only program refuses Run, and an unknown name's error lists
// the valid ones.
func TestRegistry(t *testing.T) {
	names := Names()
	if got := strings.Join(names, " "); got != "dotprod jacobi matmul pde3d sort tsp" || !sort.StringsAreSorted(names) {
		t.Errorf("Names() = %q", got)
	}
	cfg := ivy.Config{Processors: 2, Seed: 1}
	got, err := Run("dotprod", cfg, Size{N: 4096, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunDotProd(cfg, DotProdParams{N: 4096, Seed: DefaultDotProd().Seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Agrees(want, 0); err != nil || got.Elapsed != want.Elapsed {
		t.Errorf("Run(dotprod, N 4096) differs from RunDotProd: %v (elapsed %v vs %v)", err, got.Elapsed, want.Elapsed)
	}
	if _, err := Run("counter", cfg, Size{}); err == nil {
		t.Error("Run accepted the SPMD-only counter")
	}
	if _, err := Lookup("nosuch"); err == nil || !strings.Contains(err.Error(), "jacobi") {
		t.Errorf("Lookup(nosuch) = %v, want an error listing the names", err)
	}
	if _, err := LookupSPMD("jacobi"); err == nil || !strings.Contains(err.Error(), "counter, dotprod") {
		t.Errorf("LookupSPMD(jacobi) = %v, want an error listing the SPMD names", err)
	}
	for _, a := range registry {
		if a.Run == nil && a.SPMD == nil {
			t.Errorf("%s has neither a Run nor an SPMD body", a.Name)
		}
	}
}
