package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/racedemo.txt from this build's output")

// TestDemo is the fail-closed drace gate: the planted race must be
// caught, identically on both runs, and the report must stay
// byte-identical to the one recorded before the observer seam existed
// (same report count, same first report, same virtual timestamp).
func TestDemo(t *testing.T) {
	const golden = "../../testdata/golden/racedemo.txt"
	var out bytes.Buffer
	if status := demo(&out); status != 0 {
		t.Fatalf("status %d, output:\n%s", status, out.Bytes())
	}
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from %s:\n got: %q\nwant: %q", golden, out.Bytes(), want)
	}
}
