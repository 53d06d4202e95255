package core

import (
	"time"

	"repro/internal/sim"
)

// ChargeCtx is the test rig's Ctx: like proc.Process, it batches charges
// and holds the node CPU only while settling them, so remote-request
// handlers interleave with user computation at quantum granularity, and
// it charges and flushes through its TLB.
type ChargeCtx struct {
	fiber   *sim.Fiber
	cpu     *sim.Resource
	quantum time.Duration
	debt    time.Duration
	tlb     *TLB
}

// NewChargeCtx builds a charging context for a fiber running on the node
// that owns cpu.
func NewChargeCtx(f *sim.Fiber, cpu *sim.Resource, quantum time.Duration) *ChargeCtx {
	c := &ChargeCtx{fiber: f, cpu: cpu, quantum: quantum}
	c.tlb = NewTLB(&c.debt, quantum)
	return c
}

func (c *ChargeCtx) Fiber() *sim.Fiber { return c.fiber }

func (c *ChargeCtx) TLB() *TLB { return c.tlb }

// Charge accumulates compute time, settling a full quantum when reached.
func (c *ChargeCtx) Charge(d time.Duration) {
	if c.tlb.Charge(&c.debt, c.quantum, d) {
		c.Flush()
	}
}

// Flush settles accumulated debt against the CPU in quantum-sized holds,
// releasing between chunks.
func (c *ChargeCtx) Flush() {
	for d := c.tlb.Hold(&c.debt, c.quantum); d > 0; d = c.tlb.Hold(&c.debt, c.quantum) {
		c.cpu.Acquire(c.fiber)
		c.fiber.Sleep(d)
		c.cpu.Release()
	}
}
