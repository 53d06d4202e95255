package sim

import (
	"runtime"
	"sync/atomic"
)

// retiredBytes is the host memory of the worlds retired (Retire) since New
// last collected the heap, summed over the whole process: the heap is the
// process's, and engines run side by side on host threads
// (internal/parallel). Only the two //ivy:hostworld functions below touch
// it, through sync/atomic's functions — worldsplit admits sync/atomic in
// internal/sim only inside such functions, so the variable cannot have an
// atomic type.
var retiredBytes int64

// collectAfter is the retired memory at which New collects. A collection
// drops the collector's goal to the little that is still live, and the
// background scavenger then returns the freed memory to the OS, which the
// next world faults back in. That costs more than it saves when the dead
// memory is small: collecting after the Figure 5 solver's 8 MB
// one-processor run as well made each 1-then-8-processor iteration 8 %
// slower. Below collectAfter, dead worlds are left to the collector's own
// pacing.
const collectAfter = 12 << 20

// Retire reports that a finished world held bytes of host memory that is
// garbage once its owner lets go of it — for a cluster, its page frames.
// The next New collects the heap before it builds a world once the memory
// retired since its last collection reaches collectAfter.
//
// The collector lets the heap grow to twice what it found live at its
// last cycle before it looks again. A world built while a finished one
// still awaits collection therefore fills the heap up to twice whatever
// part of the old one was live when that cycle ran, and where the cycle
// fell moves from run to run. With the Figure 5 solver at 1 then 8
// processors, run again and again in one process on a 2-vCPU host, the
// resident peak ranged from 29 to 45 MB; collecting here holds it between
// 26.4 and 27.2 MB, about one world's memory. The collection itself takes
// 0.3 to 1.5 ms there.
//
//ivy:hostworld adds to the process-wide tally of retired memory that New reads
func Retire(bytes int) { atomic.AddInt64(&retiredBytes, int64(bytes)) }

//ivy:hostworld collects the heap once the memory of finished worlds reaches collectAfter
func collectRetired() {
	if atomic.LoadInt64(&retiredBytes) >= collectAfter && atomic.SwapInt64(&retiredBytes, 0) >= collectAfter {
		runtime.GC()
	}
}
