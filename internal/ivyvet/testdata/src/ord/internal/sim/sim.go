// Package sim stubs the simulated machinery: a call into it from a
// map-range body makes Go's randomized iteration order observable by
// the simulation.
package sim

// Wake schedules a fiber — a simulation decision.
func Wake(id int) {}

// Fiber is a simulated process.
type Fiber struct{}

// Unpark wakes the fiber — a simulation decision.
func (f *Fiber) Unpark() {}
