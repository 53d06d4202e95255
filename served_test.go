package ivy

import (
	"testing"

	"repro/internal/wire"
)

// TestEveryRequestKindIsServed: every request and notice kind of the wire
// vocabulary has a handler on a built cluster, so none of them arrives
// only to be dropped at dispatch, and no reply kind has one. An SC
// cluster under the dynamic manager (which serves OwnerQuery) and an RC
// cluster under a directory manager (MgrConfirm, and RC's own four kinds)
// install every one between them. KindPing is exempt: only tests and the
// benchmark's probes serve it.
func TestEveryRequestKindIsServed(t *testing.T) {
	var served [wire.NumKinds]bool
	for _, cfg := range []Config{
		{Processors: 2},
		{Processors: 2, Coherence: CoherenceRC, Algorithm: FixedDistributed},
	} {
		c := New(cfg)
		if err := c.Run(func(*Proc) {}); err != nil {
			t.Fatal(err)
		}
		for _, svm := range c.svms {
			for k := range served {
				served[k] = served[k] || svm.Endpoint().Handles(wire.Kind(k))
			}
		}
	}
	for k := wire.KindInvalid + 1; int(k) < wire.NumKinds; k++ {
		if want := k.Class() != wire.ClassReply && k != wire.KindPing; served[k] != want {
			t.Errorf("%v (a %v): served = %v, want %v", k, k.Class(), served[k], want)
		}
	}
}
