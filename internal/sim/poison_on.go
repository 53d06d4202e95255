//go:build poison

package sim

// Poison: see poison_off.go.
const Poison = true
