package harness

import (
	"fmt"
	"testing"

	"repro/internal/apps"
)

// TestProfOdd exercises the suite at processor counts that do not
// divide the problem sizes evenly, reporting each run's virtual elapsed
// time. Virtual time (apps.Result.Elapsed) rather than the wall clock
// keeps the output — and the harness package itself — deterministic:
// identical configs print identical times on every machine, so a
// changed line here is a behavior change, not noise. (Wall-clock
// profiling of the simulator belongs in `go test -bench`, where
// testing.B owns the timer.)
func TestProfOdd(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		fn    func(int) (apps.Result, error)
	}{
		{"jacobi", 3, func(p int) (apps.Result, error) { return apps.RunJacobi(seed1().config(p), apps.DefaultJacobi()) }},
		{"jacobi", 7, func(p int) (apps.Result, error) { return apps.RunJacobi(seed1().config(p), apps.DefaultJacobi()) }},
		{"pde", 3, func(p int) (apps.Result, error) { return apps.RunPDE3D(seed1().config(p), apps.DefaultPDE3D()) }},
		{"pde", 7, func(p int) (apps.Result, error) { return apps.RunPDE3D(seed1().config(p), apps.DefaultPDE3D()) }},
		{"tsp", 2, func(p int) (apps.Result, error) { return apps.RunTSP(seed1().config(p), apps.DefaultTSP()) }},
		{"tsp", 3, func(p int) (apps.Result, error) { return apps.RunTSP(seed1().config(p), apps.DefaultTSP()) }},
	}
	for _, c := range cases {
		res, err := c.fn(c.procs)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("%s-%d: %v virtual\n", c.name, c.procs, res.Elapsed)
	}
}
