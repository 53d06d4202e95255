package main

import (
	"bytes"
	"os"
	"testing"
)

// TestDemo is the fail-closed drace gate: the planted race must be
// caught, identically on both runs, and the report must stay
// byte-identical to the one recorded before the observer seam existed
// (same report count, same first report, same virtual timestamp).
func TestDemo(t *testing.T) {
	want, err := os.ReadFile("../../testdata/pr16/racedemo.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if status := demo(&out); status != 0 {
		t.Fatalf("status %d, output:\n%s", status, out.Bytes())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from testdata/pr16/racedemo.txt:\n got: %q\nwant: %q", out.Bytes(), want)
	}
}
