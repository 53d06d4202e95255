// Package core is hookcover-analyzer golden input: a miniature of the
// simulator's SVM accessor shapes. PeekWord below is the bug the
// analyzer exists for — a new exported accessor that hands out frame
// bytes without reporting the access to the observer seam — and
// FaultOnlyPeek is the subtler one: it reaches the seam's fault side,
// which every accessor does through the slow path and which therefore
// proves nothing about the access itself.
package core

type Ctx interface {
	Charge(n int)
}

type SVM struct {
	frames [][]byte
	obs    *observer
}

type observer struct{}

// frameForRead is the frame-returning tail every accessor funnels
// through.
func (s *SVM) frameForRead(ctx Ctx, p int) []byte { return s.frames[p] }

// frameForWrite is the write-mode tail.
func (s *SVM) frameForWrite(ctx Ctx, p int) []byte { return s.frames[p] }

// Observe reports a checked access to the armed observer.
func (s *SVM) Observe(ctx Ctx, op int, addr, n uint64) {}

// event reports a fault or phase — the seam's fault side.
func (s *SVM) event(ev, at, p int) {}

// ReadWord is a clean accessor: it touches a frame and reports the
// access.
func (s *SVM) ReadWord(ctx Ctx, addr uint64) byte {
	frame := s.frameForRead(ctx, int(addr))
	s.Observe(ctx, 0, addr, 1)
	return frame[0]
}

// ReadWordIndirect reaches the frame and the seam transitively — also
// clean.
func (s *SVM) ReadWordIndirect(ctx Ctx, addr uint64) byte {
	return s.ReadWord(ctx, addr)
}

// PeekWord hands out frame bytes with no seam call anywhere on its call
// graph — the coverage hole hookcover must flag.
func (s *SVM) PeekWord(ctx Ctx, addr uint64) byte { // want `PeekWord reaches page frames without reaching the observer seam`
	return s.frameForRead(ctx, int(addr))[0]
}

// FaultOnlyPeek reports a fault but never the access: counted by the
// profiler's fault columns, invisible to the race detector and the
// dirty-word map.
func (s *SVM) FaultOnlyPeek(ctx Ctx, addr uint64) byte { // want `FaultOnlyPeek reaches page frames without reaching the observer seam`
	s.event(0, 0, int(addr))
	return s.frameForRead(ctx, int(addr))[0]
}

// TestAndSet reports an acquire rather than a read or a write — a
// synchronization primitive is observed differently, not unobserved.
func (s *SVM) TestAndSet(ctx Ctx, addr uint64) bool {
	frame := s.frameForWrite(ctx, int(addr))
	if frame[0] != 0 {
		return false
	}
	frame[0] = 1
	s.Observe(ctx, 2, addr, 1)
	return true
}

// DebugDump deliberately bypasses the seam (diagnostics must not
// perturb epochs or counters); the reasoned ignore documents that at
// the site.
//
//ivyvet:ignore diagnostic dump must not perturb detector epochs or fault counters
func (s *SVM) DebugDump(ctx Ctx, addr uint64) byte {
	return s.frameForRead(ctx, int(addr))[0]
}

// Base touches no frames: exported Ctx-taking methods without frame
// access are out of scope.
func (s *SVM) Base(ctx Ctx) uint64 { return 0 }

// residentFrame is unexported: serve-side internals are reachable only
// through handlers, which the entry-point rule does not cover.
func (s *SVM) residentFrame(ctx Ctx, p int) []byte { return s.frameForRead(ctx, p) }
