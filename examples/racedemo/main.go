// Racedemo: a planted data race the drace detector must catch.
//
// A writer fills a shared buffer and then raises a plain flag word — no
// eventcount, no lock. A reader spins on the flag and then reads the
// buffer. On IVY the reader always sees the writer's values: page
// coherence moves the whole page, and the flag is written last. But
// nothing in the *program's* synchronization orders the buffer accesses;
// the ordering is a coincidence of page-invalidation timing. This is
// exactly the bug class the detector exists for: with -race-style
// happens-before tracking over eventcounts/locks/spawn/join only, both
// the flag spin and the buffer reads are unordered with the writes.
//
// The demo runs the same seed twice, shows that the reports are
// deterministic, prints the first race, and exits 0 only when the race
// was caught both times. TestDemo runs it as the fail-closed check that
// the detector stays armed, and holds its output byte-identical to
// testdata/golden/racedemo.txt.
//
//	go run ./examples/racedemo
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	ivy "repro"
)

const (
	words    = 32
	flagSlot = words // flag word sits after the data words
)

// run executes the planted-race program once and returns the reports.
func run(seed int64) ([]ivy.RaceReport, error) {
	cluster := ivy.New(ivy.Config{Processors: 2, Seed: seed, DRace: true})
	sawData := false
	err := cluster.Run(func(p *ivy.Proc) {
		buf := p.MustMalloc(8 * (words + 1))
		at := func(i int) uint64 { return buf + 8*uint64(i) }
		p.WriteU64(at(flagSlot), 0)

		done := p.NewEventcount(2)
		p.CreateOn(1, func(q *ivy.Proc) {
			// Reader: spin on the flag word, then consume the buffer.
			// The spin "synchronizes" only through the coherence
			// protocol — the planted bug.
			for q.ReadU64(at(flagSlot)) == 0 {
				q.Sleep(time.Millisecond)
			}
			sum := uint64(0)
			for i := 0; i < words; i++ {
				sum += q.ReadU64(at(i))
			}
			sawData = sum != 0
			done.Advance(q)
		}, ivy.WithName("reader"))

		// Writer (the main process): fill the buffer, then raise the flag
		// with a plain write.
		for i := 0; i < words; i++ {
			p.WriteU64(at(i), uint64(i+1))
		}
		p.WriteU64(at(flagSlot), 1)

		done.Wait(p, 1) // spawn/join edges are real; only the flag is racy
	})
	if err == nil && !sawData {
		err = errors.New("reader saw no data (coherence bug?)")
	}
	return cluster.RaceReports(), err
}

// demo runs the program twice, reports on w, and returns the exit
// status: 0 only when the race was caught, identically, both times.
func demo(w io.Writer) int {
	first, err := run(7)
	if err != nil {
		fmt.Fprintf(w, "FAIL: %v\n", err)
		return 1
	}
	second, err := run(7)
	if err != nil {
		fmt.Fprintf(w, "FAIL: %v\n", err)
		return 1
	}

	if len(first) == 0 {
		fmt.Fprintln(w, "FAIL: planted race not detected")
		return 1
	}
	if len(first) != len(second) {
		fmt.Fprintf(w, "FAIL: report count not deterministic (%d vs %d)\n", len(first), len(second))
		return 1
	}
	for i := range first {
		if first[i] != second[i] {
			fmt.Fprintf(w, "FAIL: report %d differs between identical runs:\n  %v\n  %v\n", i, first[i], second[i])
			return 1
		}
	}

	fmt.Fprintf(w, "caught %d race reports, deterministic across runs\n", len(first))
	fmt.Fprintf(w, "first race: %v\n", first[0])
	return 0
}

func main() { os.Exit(demo(os.Stdout)) }
