package main

import (
	"strconv"
	"time"
)

// The calibration kernel. The sandbox's speed is not constant (README.md,
// "Why host times are normalised"), so every host time behind an
// end-to-end metric is multiplied by nominalKernelMs over the kernel's
// time measured right before and right after it. The kernel is none of
// the repository's code but a miniature of what the simulator spends its
// time on — a token handed between two goroutines over unbuffered
// channels, a page-sized copy and a map update per round trip, now and
// then a formatted number. A burst allocates nothing, so its time does
// not depend on the heap the system under test has left behind
// (README.md has the measurement, a test pins the allocations).

// nominalKernelMs is one burst's time on the 2-vCPU sandbox in its usual
// state; a normalised time reads in milliseconds of a host in that state.
const nominalKernelMs = 1.0

const (
	kernelBursts = 7    // a sample is the median burst, which a hiccup of the host does not move
	kernelTrips  = 2000 // token round trips per burst
)

// calibrator owns the kernel's state and the goroutine that hands the
// token back.
type calibrator struct {
	ping, pong chan int
	src, dst   [1024]byte
	frames     map[uint32]int
	digits     []byte
}

func newCalibrator() *calibrator {
	c := &calibrator{
		ping:   make(chan int),
		pong:   make(chan int),
		frames: make(map[uint32]int, 256),
		digits: make([]byte, 0, 32),
	}
	for i := uint32(0); i < 256; i++ {
		c.frames[i] = 0
	}
	go func() {
		for v := range c.ping {
			c.pong <- v
		}
		close(c.pong)
	}()
	return c
}

// stop ends the echo goroutine and waits for it.
func (c *calibrator) stop() {
	close(c.ping)
	<-c.pong
}

// sample runs the kernel and returns the median burst in milliseconds.
func (c *calibrator) sample() float64 {
	var bursts [kernelBursts]float64
	for i := range bursts {
		bursts[i] = c.burst()
	}
	return median(bursts[:])
}

func (c *calibrator) burst() float64 {
	sink := 0
	t0 := time.Now()
	for i := 0; i < kernelTrips; i++ {
		c.ping <- i
		<-c.pong
		copy(c.dst[:], c.src[:])
		c.frames[uint32(i)&255] += i
		if i&7 == 0 {
			c.digits = strconv.AppendInt(c.digits[:0], int64(i), 10)
			sink += len(c.digits)
		}
	}
	d := time.Since(t0)
	if sink == 0 {
		panic("bench: calibration kernel did no work")
	}
	return ms(d)
}
