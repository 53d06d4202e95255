package apps

import (
	"fmt"
	"strings"

	ivy "repro"
)

// Size overrides a program's default (paper) workload; a zero field
// keeps the default. N is the program's one size parameter — matrix or
// grid side, vector length, city count, record count — and Iters the
// iteration count of the iterative solvers (ignored by the others).
type Size struct{ N, Iters int }

func (sz Size) over(n, iters *int) {
	if sz.N > 0 {
		*n = sz.N
	}
	if sz.Iters > 0 && iters != nil {
		*iters = sz.Iters
	}
}

// App is one registered program. Everything that names a program — the
// `ivy` subcommands' -app flags, the harness's figures — resolves it
// here.
type App struct {
	Name  string // the -app spelling
	Paper string // the series name in the paper's figures
	// Run builds a cluster from cfg and runs the program on it; nil for a
	// program that exists only as an SPMD body.
	Run func(cfg ivy.Config, sz Size) (Result, error)
	// SPMD, where non-nil, is the program's per-rank body for a
	// multi-process cluster (`ivy node`).
	SPMD SPMD
}

// registry lists the programs sorted by name, the order Names keeps.
var registry = []App{
	{Name: "counter", SPMD: spmdCounter},
	{Name: "dotprod", Paper: "dot-product", SPMD: spmdDotProd, Run: func(cfg ivy.Config, sz Size) (Result, error) {
		par := DefaultDotProd()
		sz.over(&par.N, nil)
		return RunDotProd(cfg, par)
	}},
	{Name: "jacobi", Paper: "linear-eqn-solver", Run: func(cfg ivy.Config, sz Size) (Result, error) {
		par := DefaultJacobi()
		sz.over(&par.N, &par.Iters)
		return RunJacobi(cfg, par)
	}},
	{Name: "matmul", Paper: "matrix-multiply", Run: func(cfg ivy.Config, sz Size) (Result, error) {
		par := DefaultMatmul()
		sz.over(&par.N, nil)
		return RunMatmul(cfg, par)
	}},
	{Name: "pde3d", Paper: "3d-pde", Run: func(cfg ivy.Config, sz Size) (Result, error) {
		par := DefaultPDE3D()
		sz.over(&par.N, &par.Iters)
		return RunPDE3D(cfg, par)
	}},
	{Name: "sort", Paper: "merge-split-sort", Run: func(cfg ivy.Config, sz Size) (Result, error) {
		par := DefaultSort()
		sz.over(&par.Records, nil)
		return RunSortMerge(cfg, par)
	}},
	{Name: "tsp", Paper: "tsp", Run: func(cfg ivy.Config, sz Size) (Result, error) {
		par := DefaultTSP()
		sz.over(&par.Cities, nil)
		return RunTSP(cfg, par)
	}},
}

// Lookup resolves a program that runs on a simulated cluster. The error
// lists the valid names.
func Lookup(name string) (App, error) {
	for _, a := range registry {
		if a.Name == name && a.Run != nil {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("unknown app %q (have %s)", name, strings.Join(Names(), ", "))
}

// LookupSPMD resolves a program's per-rank body for a multi-process
// cluster. The error lists the valid names.
func LookupSPMD(name string) (SPMD, error) {
	var have []string
	for _, a := range registry {
		if a.SPMD == nil {
			continue
		}
		if a.Name == name {
			return a.SPMD, nil
		}
		have = append(have, a.Name)
	}
	return nil, fmt.Errorf("unknown SPMD app %q (have %s)", name, strings.Join(have, ", "))
}

// Run runs the named program on a cluster built from cfg.
func Run(name string, cfg ivy.Config, sz Size) (Result, error) {
	a, err := Lookup(name)
	if err != nil {
		return Result{}, err
	}
	return a.Run(cfg, sz)
}

// Names returns the names Lookup accepts, sorted.
func Names() []string {
	var out []string
	for _, a := range registry {
		if a.Run != nil {
			out = append(out, a.Name)
		}
	}
	return out
}
