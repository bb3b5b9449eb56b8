package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForRunsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64, 100} {
		const n = 64
		var calls [n]atomic.Int32
		if err := For(workers, n, func(i int) error {
			calls[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// concurrency runs For with calls that stay in flight for a while and
// returns the most calls that were ever in flight at once. Each call
// yields until its spin budget runs out, or at once when more calls than
// the bound are in flight, so a bounded pool reaches its bound and an
// unbounded one exceeds it.
func concurrency(t *testing.T, workers, n int) int32 {
	t.Helper()
	bound := int32(workers)
	if workers <= 0 {
		bound = int32(runtime.GOMAXPROCS(0))
	}
	bound = min(bound, int32(n))
	var cur, peak atomic.Int32
	if err := For(workers, n, func(i int) error {
		c := cur.Add(1)
		for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
		}
		for spin := 0; spin < 2000 && cur.Load() <= bound; spin++ {
			runtime.Gosched()
		}
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return peak.Load()
}

func TestForBoundsConcurrency(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 32}, {2, 32}, {4, 32}, {8, 5}} {
		peak := concurrency(t, tc.workers, tc.n)
		if bound := int32(min(tc.workers, tc.n)); peak != bound {
			t.Errorf("workers=%d n=%d: peak %d calls in flight, want %d", tc.workers, tc.n, peak, bound)
		}
	}
}

func TestForDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, workers := range []int{0, -2} {
		if peak := concurrency(t, workers, 32); peak != 3 {
			t.Errorf("workers=%d under GOMAXPROCS 3: peak %d calls in flight, want 3", workers, peak)
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	// Index 7 fails first and index 2 fails last; For must still report
	// index 2, and every call must have run.
	const n = 16
	late := make(chan struct{})
	var ran atomic.Int32
	err := For(4, n, func(i int) error {
		ran.Add(1)
		switch i {
		case 7:
			defer close(late)
			return fmt.Errorf("fail %d", i)
		case 2:
			<-late
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail 2" {
		t.Fatalf("err = %v, want fail 2", err)
	}
	if ran.Load() != n {
		t.Fatalf("%d calls ran, want %d", ran.Load(), n)
	}
}

func TestForPassesErrorThrough(t *testing.T) {
	sentinel := errors.New("sentinel")
	err := For(2, 4, func(i int) error {
		if i == 3 {
			return fmt.Errorf("wrapped: %w", sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want it to wrap the sentinel", err)
	}
}

func TestForEmpty(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 8} {
		if err := For(workers, 0, func(int) error {
			t.Error("f called with n = 0")
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
