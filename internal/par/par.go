// Package par is the one bounded fan-out the analysis pipeline uses to
// spread per-program work (compile, profile, featurize, train a fold) over
// processors.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls f(i) for every i in [0, n) on at most min(workers, n)
// goroutines; workers <= 0 means GOMAXPROCS. Every call runs, even after
// one fails, and For returns once all have returned. The result is the
// error of the lowest failing i, or nil, so it does not depend on
// scheduling. f must write its results by index: calls run concurrently
// and in no fixed order.
func For(workers, n int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
