package apps

import (
	"fmt"
	"time"

	ivy "repro"
)

// SPMD is one rank's body of a program written for a cluster of
// separate OS processes (ivy.NewNode): the same body starts on every
// rank, and the ranks rendezvous through eventcounts at fixed shared
// addresses (rank 0 does the setup, the others wait on the init
// eventcount — attaching to a never-written eventcount is legal, it
// just reads as value 0). n sizes the problem and seed its data. On
// rank 0 it returns the program's check value and the line that reports
// it; on every other rank, zero values.
type SPMD func(p *ivy.Proc, rank, size, n int, seed uint64) (check float64, report string)

// layout carves the fixed rendezvous addresses every rank agrees on out
// of the start of the shared space: three eventcount pages (init, part,
// done) followed by the app's data. No rank calls Malloc — the layout
// IS the allocation, computed identically everywhere.
type layout struct {
	ecInit, ecPart, ecDone uint64
	data                   uint64
}

func makeLayout(p *ivy.Proc) layout {
	base := p.Cluster().Base()
	page := uint64(p.Cluster().PageSize())
	return layout{
		ecInit: base,
		ecPart: base + page,
		ecDone: base + 2*page,
		data:   base + 3*page,
	}
}

// finale runs the two-phase shutdown every SPMD program needs: all
// ranks advance part; rank 0 waits for everyone, runs report (the last
// reads of shared memory — every other rank is still alive to serve its
// pages), then advances done; everyone else blocks on done. Only after
// done may a rank return, so no rank's engine stops while its pages are
// still needed.
func finale(p *ivy.Proc, lay layout, rank, size int, report func()) {
	part := p.AttachEventcount(lay.ecPart, size+1)
	done := p.AttachEventcount(lay.ecDone, size+1)
	part.Advance(p)
	if rank == 0 {
		part.Wait(p, int64(size))
		report()
		done.Advance(p)
		return
	}
	done.Wait(p, 1)
}

// spmdDotProd computes S = sum x_i*y_i: rank 0 initializes both vectors
// (the paper's "weak side" setup — all data starts on one processor),
// every rank pulls its slice through the shared memory and writes a
// partial sum, rank 0 reduces. Data (dotVectors), partition
// (splitRange), per-worker kernel (dotPartial) and reduction order are
// RunDotProd's, so S equals its Check bit for bit at equal size, n and
// seed.
func spmdDotProd(p *ivy.Proc, rank, size, n int, seed uint64) (check float64, report string) {
	lay := makeLayout(p)
	x := F64{Base: lay.data}
	y := F64{Base: x.At(n)}
	partial := F64{Base: y.At(n)} // slots 128 bytes apart to limit false sharing
	init := p.AttachEventcount(lay.ecInit, size+1)

	if rank == 0 {
		xv, yv := dotVectors(n, seed)
		x.WriteSlice(p, 0, xv)
		y.WriteSlice(p, 0, yv)
		init.Advance(p)
	} else {
		init.Wait(p, 1)
	}

	lo, hi := splitRange(n, size, rank)
	partial.Write(p, rank*16, dotPartial(p, x, y, lo, hi))

	finale(p, lay, rank, size, func() {
		for w := 0; w < size; w++ {
			check += partial.Read(p, w*16)
		}
		report = fmt.Sprintf("dotprod: S = %g (n=%d over %d ranks)", check, n, size)
	})
	return check, report
}

// spmdCounter has every rank perform n increments of one shared counter
// under a test-and-set lock — the smallest program that exercises page
// ownership ping-pong, mutual exclusion, and cross-process eventcounts.
// The final count, its check value, must be exactly size*n.
func spmdCounter(p *ivy.Proc, rank, size, n int, _ uint64) (check float64, report string) {
	lay := makeLayout(p)
	lockAddr := lay.data
	countAddr := lay.data + 8
	for i := 0; i < n; i++ {
		backoff := 200 * time.Microsecond
		for !p.TestAndSet(lockAddr) {
			p.Sleep(backoff)
			if backoff < 8*time.Millisecond {
				backoff *= 2
			}
		}
		p.WriteU64(countAddr, p.ReadU64(countAddr)+1)
		p.ClearFlag(lockAddr)
	}
	finale(p, lay, rank, size, func() {
		got := p.ReadU64(countAddr)
		check = float64(got)
		if want := uint64(size * n); got != want {
			report = fmt.Sprintf("counter: FAILED: %d increments, want %d", got, want)
			return
		}
		report = fmt.Sprintf("counter: %d increments across %d ranks, all accounted for", got, size)
	})
	return check, report
}
