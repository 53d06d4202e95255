package ivy

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/proc"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Proc is a lightweight IVY process — the handle client programs use for
// everything: shared-memory access, allocation, synchronization, process
// creation, and migration. Accesses are charged to whatever node the
// process currently occupies.
type Proc struct {
	inner *proc.Process
	c     *Cluster
}

// Cluster returns the cluster this process runs in.
func (p *Proc) Cluster() *Cluster { return p.c }

// NodeID returns the processor the process currently occupies.
func (p *Proc) NodeID() int { return int(p.inner.Node().ID()) }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.inner.Name() }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.inner.Fiber().Now().Duration() }

// --- Shared memory access ------------------------------------------------
//
// The 64-bit accessors go through the core's *T entry points, resolving
// the process's TLB with a concrete (inlinable) call so the common
// TLB-hit access involves no interface dispatch at all.

// ReadF64 reads a float64 from shared memory.
func (p *Proc) ReadF64(addr uint64) float64 {
	return math.Float64frombits(p.inner.Node().SVM().ReadU64T(p.inner.TLB(), p.inner, addr))
}

// WriteF64 writes a float64 to shared memory.
func (p *Proc) WriteF64(addr uint64, v float64) {
	p.inner.Node().SVM().WriteU64T(p.inner.TLB(), p.inner, addr, math.Float64bits(v))
}

// ReadF32 reads a float32 (the era's 4-byte Pascal "real").
func (p *Proc) ReadF32(addr uint64) float32 { return p.inner.Node().SVM().ReadF32(p.inner, addr) }

// WriteF32 writes a float32.
func (p *Proc) WriteF32(addr uint64, v float32) { p.inner.Node().SVM().WriteF32(p.inner, addr, v) }

// ReadU64 reads a uint64 from shared memory.
func (p *Proc) ReadU64(addr uint64) uint64 {
	return p.inner.Node().SVM().ReadU64T(p.inner.TLB(), p.inner, addr)
}

// WriteU64 writes a uint64 to shared memory.
func (p *Proc) WriteU64(addr uint64, v uint64) {
	p.inner.Node().SVM().WriteU64T(p.inner.TLB(), p.inner, addr, v)
}

// ReadI64 reads an int64 from shared memory.
func (p *Proc) ReadI64(addr uint64) int64 {
	return int64(p.inner.Node().SVM().ReadU64T(p.inner.TLB(), p.inner, addr))
}

// WriteI64 writes an int64 to shared memory.
func (p *Proc) WriteI64(addr uint64, v int64) {
	p.inner.Node().SVM().WriteU64T(p.inner.TLB(), p.inner, addr, uint64(v))
}

// ReadU32 reads a uint32 from shared memory.
func (p *Proc) ReadU32(addr uint64) uint32 { return p.inner.Node().SVM().ReadU32(p.inner, addr) }

// WriteU32 writes a uint32 to shared memory.
func (p *Proc) WriteU32(addr uint64, v uint32) { p.inner.Node().SVM().WriteU32(p.inner, addr, v) }

// ReadU8 reads a byte from shared memory.
func (p *Proc) ReadU8(addr uint64) uint8 { return p.inner.Node().SVM().ReadU8(p.inner, addr) }

// WriteU8 writes a byte to shared memory.
func (p *Proc) WriteU8(addr uint64, v uint8) { p.inner.Node().SVM().WriteU8(p.inner, addr, v) }

// ReadBytes copies n bytes out of shared memory (may span pages).
func (p *Proc) ReadBytes(addr uint64, n int) []byte {
	return p.inner.Node().SVM().ReadBytes(p.inner, addr, n)
}

// WriteBytes copies data into shared memory (may span pages).
func (p *Proc) WriteBytes(addr uint64, data []byte) {
	p.inner.Node().SVM().WriteBytes(p.inner, addr, data)
}

// ReadU64s fills dst with consecutive words starting at addr (8-aligned),
// checking access once per page run instead of once per word.
func (p *Proc) ReadU64s(addr uint64, dst []uint64) {
	p.inner.Node().SVM().ReadU64s(p.inner, addr, dst)
}

// WriteU64s stores src as consecutive words starting at addr (8-aligned).
func (p *Proc) WriteU64s(addr uint64, src []uint64) {
	p.inner.Node().SVM().WriteU64s(p.inner, addr, src)
}

// ReadF64s fills dst with consecutive float64s starting at addr.
func (p *Proc) ReadF64s(addr uint64, dst []float64) {
	p.inner.Node().SVM().ReadF64s(p.inner, addr, dst)
}

// WriteF64s stores src as consecutive float64s starting at addr.
func (p *Proc) WriteF64s(addr uint64, src []float64) {
	p.inner.Node().SVM().WriteF64s(p.inner, addr, src)
}

// CopyWords copies n 8-byte words from src to dst within shared memory,
// checking each page once per run (overlap-safe, like memmove).
func (p *Proc) CopyWords(dst, src uint64, n int) {
	p.inner.Node().SVM().CopyWords(p.inner, dst, src, n)
}

// TestAndSet atomically sets the byte at addr, reporting whether it was
// clear — the primitive IVY's locks are built from.
func (p *Proc) TestAndSet(addr uint64) bool {
	return p.inner.Node().SVM().TestAndSet(p.inner, addr)
}

// ClearFlag atomically clears the byte at addr (lock release).
func (p *Proc) ClearFlag(addr uint64) { p.inner.Node().SVM().Clear(p.inner, addr) }

// MarkAtomic declares [addr, addr+n) a benign shared atomic to the race
// detector: unordered accesses to these words are intentional program
// idiom (a monotonic bound read without its lock, a statistics cell) and
// must not be reported. No-op with the detector off. Use sparingly — it
// silences real races on those words too.
func (p *Proc) MarkAtomic(addr, n uint64) {
	p.inner.Node().SVM().Observe(p.inner, core.OpMarkSync, addr, n)
}

// LabelRegion names the address range [addr, addr+size) for the
// coherence profiler, so ivyprof reports attribute pages to application
// arrays ("A", "result", ...) instead of bare page numbers. No-op with
// profiling off.
func (p *Proc) LabelRegion(name string, addr, size uint64) { p.c.LabelRegion(name, addr, size) }

// --- Computation charging -------------------------------------------------

// Compute charges d of private-memory computation to the current node.
func (p *Proc) Compute(d time.Duration) { p.inner.Compute(d) }

// LocalOps charges n local operations at the calibrated per-op cost.
func (p *Proc) LocalOps(n int) { p.inner.LocalOps(n) }

// --- Memory allocation -----------------------------------------------------

// Malloc allocates n bytes of shared memory (page-aligned, from the
// central first-fit manager or the node's two-level allocator).
func (p *Proc) Malloc(n uint64) (uint64, error) {
	svc := p.c.allocFor(p.NodeID())
	return svc.Alloc(p.inner.Fiber(), n)
}

// MustMalloc is Malloc for programs that cannot go on without the
// memory: on exhaustion it ends the whole run, and Cluster.Run returns an
// error naming the bytes asked for and the size of the shared space.
func (p *Proc) MustMalloc(n uint64) uint64 {
	addr, err := p.Malloc(n)
	if err != nil {
		cfg := p.c.cfg
		panic(sim.Abort{Err: fmt.Errorf("malloc %d bytes: %w (the shared space is %d pages of %d bytes)",
			n, err, cfg.SharedPages, cfg.PageSize)})
	}
	return addr
}

// FreeMem releases a block obtained from Malloc.
func (p *Proc) FreeMem(addr uint64) error {
	svc := p.c.allocFor(p.NodeID())
	return svc.Free(p.inner.Fiber(), addr)
}

// syncMalloc allocates synchronization state: from the sync arena under
// release consistency (locks, eventcounts, sequencers, and stacks need
// SC semantics — test-and-set atomicity, migration — that RC data pages
// do not provide), from ordinary shared memory otherwise.
func (p *Proc) syncMalloc(n uint64) uint64 {
	if p.inner.Node().SVM().RC() == nil {
		return p.MustMalloc(n)
	}
	svc := p.c.allocFor(p.NodeID())
	addr, err := svc.AllocSync(p.inner.Fiber(), n)
	if err != nil {
		panic(fmt.Sprintf("ivy: sync-arena malloc %d bytes: %v", n, err))
	}
	return addr
}

// --- Eventcounts -----------------------------------------------------------

// EC is an eventcount: Init/Read/Wait/Advance, implemented in shared
// memory so operations are local once the page has migrated here.
type EC struct {
	inner *ec.EC
	addr  uint64
	cap   int
}

// NewEventcount allocates and initializes an eventcount able to hold
// capacity simultaneous waiters.
func (p *Proc) NewEventcount(capacity int) *EC {
	addr := p.syncMalloc(uint64(ec.SizeFor(capacity)))
	return &EC{inner: ec.Init(p.inner, addr, capacity), addr: addr, cap: capacity}
}

// AttachEventcount returns a handle to an eventcount initialized by
// another process (after learning its address through shared memory).
func (p *Proc) AttachEventcount(addr uint64, capacity int) *EC {
	return &EC{inner: ec.Attach(addr, capacity), addr: addr, cap: capacity}
}

// Addr returns the eventcount's shared address, for handing to other
// processes.
func (e *EC) Addr() uint64 { return e.addr }

// Read returns the current value.
func (e *EC) Read(p *Proc) int64 { return e.inner.Read(p.inner) }

// Wait suspends p until the value reaches target.
func (e *EC) Wait(p *Proc, target int64) { e.inner.AwaitValue(p.inner, target) }

// Advance increments the value and wakes satisfied waiters, returning
// the new value.
func (e *EC) Advance(p *Proc) int64 { return e.inner.Advance(p.inner) }

// Sequencer hands out strictly increasing tickets — the companion
// primitive to eventcounts in Reed & Kanodia's mechanism (the paper's
// citation for eventcounts). Ticket-then-Wait gives totally ordered
// mutual exclusion.
type Sequencer struct {
	inner *ec.Sequencer
}

// NewSequencer allocates and initializes a sequencer.
func (p *Proc) NewSequencer() *Sequencer {
	addr := p.syncMalloc(uint64(ec.SequencerSize()))
	return &Sequencer{inner: ec.InitSequencer(p.inner, addr)}
}

// AttachSequencer wraps a sequencer initialized by another process.
func (p *Proc) AttachSequencer(addr uint64) *Sequencer {
	return &Sequencer{inner: ec.AttachSequencer(addr)}
}

// Addr returns the sequencer's shared address.
func (s *Sequencer) Addr() uint64 { return s.inner.Addr() }

// Ticket returns the next value; concurrent callers anywhere in the
// cluster receive distinct, gap-free values.
func (s *Sequencer) Ticket(p *Proc) int64 { return s.inner.Ticket(p.inner) }

// --- Process management -----------------------------------------------------

// CreateOpt tweaks process creation.
type CreateOpt func(*createCfg)

type createCfg struct {
	name       string
	migratable bool
}

// WithName names the process in traces and deadlock reports.
func WithName(name string) CreateOpt { return func(c *createCfg) { c.name = name } }

// NotMigratable pins the process to its node.
func NotMigratable() CreateOpt { return func(c *createCfg) { c.migratable = false } }

// Create spawns a process on the caller's current node (system
// scheduling: the load balancer may move it if it is migratable).
func (p *Proc) Create(body func(q *Proc), opts ...CreateOpt) {
	p.createOn(p.inner.Node(), body, opts...)
}

// CreateOn spawns a process on a specific node — the paper's manual
// scheduling option. The process is created locally and pushed to the
// target with a real migration, so remote creation costs what it should.
func (p *Proc) CreateOn(node int, body func(q *Proc), opts ...CreateOpt) {
	if node == p.NodeID() {
		p.createOn(p.inner.Node(), body, opts...)
		return
	}
	child := p.createOn(p.inner.Node(), body, opts...)
	wasMigratable := child.Migratable()
	child.SetMigratable(true)
	if !p.inner.Node().MigrateOut(p.inner.Fiber(), child, ring.NodeID(node)) {
		panic(fmt.Sprintf("ivy: CreateOn(%d) migration rejected", node))
	}
	child.SetMigratable(wasMigratable)
}

func (p *Proc) createOn(n *proc.Node, body func(q *Proc), opts ...CreateOpt) *proc.Process {
	cfg := createCfg{migratable: true}
	for _, o := range opts {
		o(&cfg)
	}
	var stackBase uint64
	stackPages := p.c.cfg.StackPages
	if stackPages > 0 {
		stackBase = p.syncMalloc(uint64(stackPages * p.c.cfg.PageSize))
	}
	p.Compute(p.c.cfg.Costs.ProcCreate)
	return n.Create(func(inner *proc.Process) {
		body(&Proc{inner: inner, c: p.c})
	}, proc.CreateOpts{
		Name:       cfg.name,
		Migratable: cfg.migratable,
		StackBase:  stackBase,
		StackPages: stackPages,
	})
}

// Migrate moves the calling process to another node and continues there.
func (p *Proc) Migrate(node int) { p.inner.MigrateTo(ring.NodeID(node)) }

// SetMigratable toggles eligibility for load balancing at run time.
func (p *Proc) SetMigratable(v bool) { p.inner.SetMigratable(v) }

// Suspend blocks the process until another process resumes it by PID.
func (p *Proc) Suspend(reason string) { p.inner.Suspend(reason) }

// PID returns the process identity (processor number, PCB handle).
func (p *Proc) PID() proc.PID { return p.inner.PID() }

// Resume wakes the process identified by pid, locally or remotely.
func (p *Proc) Resume(pid proc.PID) { p.inner.Node().Resume(p.inner.Fiber(), pid) }

// Yield cooperatively hands the CPU to the next ready process.
func (p *Proc) Yield() { p.inner.Yield() }

// Sleep advances virtual time without charging the CPU (a timer, not a
// spin).
func (p *Proc) Sleep(d time.Duration) {
	p.inner.Flush()
	p.inner.Fiber().Sleep(d)
}

// --- Locks -----------------------------------------------------------------

// Lock is a binary spinlock in shared memory built on test-and-set, the
// mutual-exclusion idiom the paper's programs use ("two 68000
// instructions for each locking"). Contention moves the lock's page
// between nodes, so heavy contention costs what it did on the prototype.
type Lock struct {
	addr uint64
}

// NewLock allocates a shared lock.
func (p *Proc) NewLock() *Lock {
	addr := p.syncMalloc(1)
	// The lock byte is synchronization state; Acquire's plain-read probe
	// precedes the first test-and-set (which would otherwise be what
	// marks it), so mark it eagerly.
	p.inner.Node().SVM().Observe(p.inner, core.OpMarkSync, addr, 1)
	return &Lock{addr: addr}
}

// AttachLock wraps a lock byte at a known address.
func AttachLock(addr uint64) *Lock { return &Lock{addr: addr} }

// Addr returns the lock's shared address.
func (l *Lock) Addr() uint64 { return l.addr }

// Acquire spins until the lock is held, testing with a plain read
// before each test-and-set (a read shares the lock's page; test-and-set
// steals it exclusively) and backing off exponentially — without this, a
// remote spinner bounces the page on every probe.
func (l *Lock) Acquire(p *Proc) {
	backoff := 100 * time.Microsecond
	for {
		if p.ReadU8(l.addr) == 0 && p.TestAndSet(l.addr) {
			return
		}
		p.Sleep(backoff)
		if backoff < 8*time.Millisecond {
			backoff *= 2
		}
	}
}

// Release frees the lock.
func (l *Lock) Release(p *Proc) { p.ClearFlag(l.addr) }
