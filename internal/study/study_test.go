package study

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/sim"
)

func TestRunOrdersResultsByPoint(t *testing.T) {
	for _, parallel := range []int{1, 2, 4, 16, 0} {
		got := Run(parallel, 50, func(i int) int {
			// Finish out of order on purpose: late points sleep less.
			time.Sleep(time.Duration(50-i) * 10 * time.Microsecond)
			return i * i
		})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: point %d = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestRunMatchesSequentialExactly(t *testing.T) {
	point := func(i int) [2]int { return [2]int{i, 3 * i} }
	seq := Run(1, 33, point)
	for _, parallel := range []int{2, 3, 8} {
		if got := Run(parallel, 33, point); !reflect.DeepEqual(got, seq) {
			t.Fatalf("parallel=%d diverged from sequential", parallel)
		}
	}
}

func TestRunBoundsWorkers(t *testing.T) {
	var live, peak atomic.Int64
	Run(3, 24, func(i int) int {
		n := live.Add(1)
		defer live.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		return i
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent points with parallel=3", p)
	}
}

func TestRunEmpty(t *testing.T) {
	if got := Run(4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("Run with 0 points = %v, want nil", got)
	}
}

func TestRunPanicPropagatesLowestIndex(t *testing.T) {
	// Points 3, 7 and 11 all panic; the lowest index must win — wrapped
	// the same way at every pool width, so even failures are
	// interleaving-free.
	for _, parallel := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("parallel=%d: panic did not propagate", parallel)
				}
				if msg := r.(error).Error(); !strings.Contains(msg, "point 3") {
					t.Fatalf("parallel=%d: propagated panic = %q, want point 3's", parallel, msg)
				}
			}()
			Run(parallel, 16, func(i int) int {
				if i%4 == 3 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

func TestRunPanicInSimThread(t *testing.T) {
	// A panic inside a simulation thread surfaces from the point's
	// Engine.Run on the point's own goroutine, so the lowest-index
	// contract holds for model failures too, not only for panics in
	// the point function itself.
	for _, parallel := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok {
					t.Fatalf("parallel=%d: propagated panic = %v, want an error", parallel, r)
				}
				if want := "point 2 panicked: thread 2 failed"; !strings.Contains(err.Error(), want) {
					t.Fatalf("parallel=%d: propagated panic = %q, want it to contain %q", parallel, err, want)
				}
			}()
			Run(parallel, 8, func(i int) int {
				e := sim.NewEngine()
				defer e.Close()
				e.Go("model", func(th *sim.Thread) {
					th.Sleep(sim.Time(8-i) * sim.NS)
					if i >= 2 && i%2 == 0 {
						panic(fmt.Sprintf("thread %d failed", i))
					}
				})
				e.Run(0)
				return i
			})
		}()
	}
}

func TestMap(t *testing.T) {
	items := []string{"a", "bb", "ccc", "dddd"}
	got := Map(2, items, func(s string) int { return len(s) })
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Map = %v, want %v", got, want)
	}
}

func TestParallelism(t *testing.T) {
	if Parallelism(5) != 5 {
		t.Fatal("explicit width not honored")
	}
	if Parallelism(0) < 1 || Parallelism(-1) < 1 {
		t.Fatal("defaulted width not positive")
	}
}
