//go:build !poison

package sim

// Poison reports whether this is a `-tags poison` build (see
// internal/wire's Poison): a fiber that has ended is then never reused
// but kept freed, so that a wake-up scheduled for it through a handle
// kept past its end panics and names it instead of resuming whichever
// fiber the struct went to next.
const Poison = false
