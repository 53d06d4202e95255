package ivy_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds vets _bench/, the benchmark, which is a module
// of its own (replace repro => ../) that the root module's ./... never
// reaches. The benchmark compiles against this module's packages, so a
// root API move that breaks its build fails here, in tier-1, rather
// than in the bench-module CI job a step later.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool over a second module")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "_bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in _bench: %v\n%s", err, out)
	}
}
