package parallel

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got, want := Workers(-5), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	sq := func(i int) int { return i * i }
	want := Map(1, 100, sq)
	for _, w := range []int{2, 4, 7, 100, 200} {
		got := Map(w, 100, sq)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

// TestMapErrReportsLowestFailingIndex: the error returned is a function
// of the jobs, not of which worker failed first.
func TestMapErrReportsLowestFailingIndex(t *testing.T) {
	for _, w := range []int{1, 4, 50} {
		got, err := MapErr(w, 50, func(i int) (int, error) {
			if i%7 == 3 {
				return 0, fmt.Errorf("job %d", i)
			}
			return i, nil
		})
		if got != nil || err == nil || err.Error() != "job 3" {
			t.Fatalf("workers=%d: MapErr = %v, %v; want nil, job 3", w, got, err)
		}
		got, err = MapErr(w, 50, func(i int) (int, error) { return i, nil })
		if err != nil || len(got) != 50 || got[49] != 49 {
			t.Fatalf("workers=%d: MapErr = %v, %v", w, got, err)
		}
	}
}

func TestForEachRunsEveryJobExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		counts := make([]atomic.Int32, 50)
		ForEach(w, 50, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", w, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("job ran for n=0") })
	ForEach(0, -1, func(int) { t.Fatal("job ran for n<0") })
}

func TestForEachSequentialWhenOneWorker(t *testing.T) {
	var order []int
	ForEach(1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("one-worker execution out of order: %v", order)
		}
	}
}

// TestForEachPanicDeterministic pins failure surfacing: whichever worker
// panics first, the re-raised panic is always the lowest job index's.
func TestForEachPanicDeterministic(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: no panic", w)
				}
				msg, _ := r.(string)
				if !strings.Contains(msg, "job 3 panicked: bad 3") {
					t.Fatalf("workers=%d: panic = %v, want lowest index 3", w, r)
				}
			}()
			ForEach(w, 20, func(i int) {
				if i == 3 || i == 11 {
					panic("bad " + string(rune('0'+i%10)))
				}
			})
		}()
	}
}
