package ivy_test

// Microbenchmarks of the system's primitive operations in virtual time —
// the style of numbers the original work reported (remote fault service
// times, eventcount operation costs, migration cost). Each benchmark
// measures the simulated latency of one primitive and reports it as a
// custom metric in virtual microseconds; wall-clock ns/op measures the
// simulator.

import (
	"fmt"
	"testing"
	"time"

	ivy "repro"
)

// measure runs setup once, then measures the virtual time of op averaged
// over iters executions inside a cluster of the given size.
func measureVirtual(b *testing.B, procs, iters int, body func(p *ivy.Proc, iters int) time.Duration) time.Duration {
	b.Helper()
	var avg time.Duration
	c := ivy.New(ivy.Config{Processors: procs, Seed: 1})
	if err := c.Run(func(p *ivy.Proc) {
		avg = body(p, iters) / time.Duration(iters)
	}); err != nil {
		b.Fatal(err)
	}
	return avg
}

// BenchmarkMicroLocalAccess measures a resident shared-memory reference.
// The access loop is long enough (200k reads per cluster) that wall-clock
// ns/op tracks the accessor fast path rather than the per-iteration
// cluster setup and its GC tail.
func BenchmarkMicroLocalAccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := measureVirtual(b, 1, 200000, func(p *ivy.Proc, iters int) time.Duration {
			addr := p.MustMalloc(1024)
			p.WriteU64(addr, 1)
			start := p.Now()
			for k := 0; k < iters; k++ {
				_ = p.ReadU64(addr)
			}
			return p.Now() - start
		})
		b.ReportMetric(float64(v.Nanoseconds())/1e3, "virt_us/op")
	}
}

// remoteReadFaultBody is the remote-read-fault measurement shared by the
// traced and untraced benchmark variants: node 0 owns all pages, node 1
// faults each one in once.
func remoteReadFaultBody(p *ivy.Proc, iters int) time.Duration {
	addr := p.MustMalloc(uint64(iters) * 1024)
	for k := 0; k < iters; k++ {
		p.WriteU64(addr+uint64(k*1024), uint64(k)) // node 0 owns all pages
	}
	var total time.Duration
	done := p.NewEventcount(4)
	p.CreateOn(1, func(q *ivy.Proc) {
		start := q.Now()
		for k := 0; k < iters; k++ {
			_ = q.ReadU64(addr + uint64(k*1024)) // each faults once
		}
		total = q.Now() - start
		done.Advance(q)
	})
	done.Wait(p, 1)
	return total
}

// BenchmarkMicroRemoteReadFault measures an end-to-end remote read fault
// (1 KB page): trap, request, owner service, page transfer, install.
func BenchmarkMicroRemoteReadFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := measureVirtual(b, 2, 64, remoteReadFaultBody)
		b.ReportMetric(float64(v.Nanoseconds())/1e3, "virt_us/fault")
	}
}

// BenchmarkMicroRemoteReadFaultTraced is the same measurement with the
// span tracer collecting (no output writer). Wall-clock ns/op against
// the untraced benchmark is the tracing overhead; virt_us/fault must be
// identical — tracing never changes virtual time.
func BenchmarkMicroRemoteReadFaultTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var avg time.Duration
		c := ivy.New(ivy.Config{Processors: 2, Seed: 1, Trace: &ivy.TraceConfig{}})
		if err := c.Run(func(p *ivy.Proc) {
			avg = remoteReadFaultBody(p, 64) / 64
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(avg.Nanoseconds())/1e3, "virt_us/fault")
	}
}

// BenchmarkMicroRemoteWriteFault measures an ownership transfer.
func BenchmarkMicroRemoteWriteFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := measureVirtual(b, 2, 64, func(p *ivy.Proc, iters int) time.Duration {
			addr := p.MustMalloc(uint64(iters) * 1024)
			for k := 0; k < iters; k++ {
				p.WriteU64(addr+uint64(k*1024), uint64(k))
			}
			var total time.Duration
			done := p.NewEventcount(4)
			p.CreateOn(1, func(q *ivy.Proc) {
				start := q.Now()
				for k := 0; k < iters; k++ {
					q.WriteU64(addr+uint64(k*1024), uint64(k))
				}
				total = q.Now() - start
				done.Advance(q)
			})
			done.Wait(p, 1)
			return total
		})
		b.ReportMetric(float64(v.Nanoseconds())/1e3, "virt_us/fault")
	}
}

// BenchmarkMicroEventcountLocal measures Advance on a resident page —
// the paper's point that eventcount primitives "become local operations
// when the eventcount data structure has been paged into the local
// processor".
func BenchmarkMicroEventcountLocal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := measureVirtual(b, 1, 1000, func(p *ivy.Proc, iters int) time.Duration {
			ec := p.NewEventcount(8)
			start := p.Now()
			for k := 0; k < iters; k++ {
				ec.Advance(p)
			}
			return p.Now() - start
		})
		b.ReportMetric(float64(v.Nanoseconds())/1e3, "virt_us/advance")
	}
}

// BenchmarkMicroEventcountRemote measures Advance when the eventcount
// page lives on another node and must migrate first.
func BenchmarkMicroEventcountRemote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := measureVirtual(b, 2, 32, func(p *ivy.Proc, iters int) time.Duration {
			ec := p.NewEventcount(8)
			var total time.Duration
			done := p.NewEventcount(4)
			p.CreateOn(1, func(q *ivy.Proc) {
				rec := q.AttachEventcount(ec.Addr(), 8)
				for k := 0; k < iters; k++ {
					// Each Advance pays the page migration: node 0
					// pulls the page home between iterations.
					start := q.Now()
					rec.Advance(q)
					total += q.Now() - start
					done.Advance(q)
					done.Wait(q, int64(2*k+2))
				}
			})
			for k := 0; k < iters; k++ {
				done.Wait(p, int64(2*k+1))
				ec.Advance(p) // pull the page home
				done.Advance(p)
			}
			return total
		})
		b.ReportMetric(float64(v.Nanoseconds())/1e3, "virt_us/advance")
	}
}

// BenchmarkMicroMigration measures one process migration (PCB + current
// stack page + upper-page ownership transfer).
func BenchmarkMicroMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var avg time.Duration
		c := ivy.New(ivy.Config{Processors: 2, Seed: 1})
		if err := c.Run(func(p *ivy.Proc) {
			const hops = 16
			done := p.NewEventcount(4)
			var total time.Duration
			p.Create(func(q *ivy.Proc) {
				for k := 0; k < hops; k++ {
					start := q.Now()
					q.Migrate(1 - q.NodeID())
					total += q.Now() - start
				}
				done.Advance(q)
			}, ivy.WithName(fmt.Sprintf("hopper%d", i)))
			done.Wait(p, 1)
			avg = total / hops
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(avg.Nanoseconds())/1e3, "virt_us/migration")
	}
}

// BenchmarkMicroAlloc measures a central allocation round trip from a
// remote node.
func BenchmarkMicroAlloc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := measureVirtual(b, 2, 64, func(p *ivy.Proc, iters int) time.Duration {
			var total time.Duration
			done := p.NewEventcount(4)
			p.CreateOn(1, func(q *ivy.Proc) {
				start := q.Now()
				for k := 0; k < iters; k++ {
					q.MustMalloc(256)
				}
				total = q.Now() - start
				done.Advance(q)
			})
			done.Wait(p, 1)
			return total
		})
		b.ReportMetric(float64(v.Nanoseconds())/1e3, "virt_us/alloc")
	}
}
