// Package par is the repository's one bounded worker pool: the study's
// concurrent campaigns, the injection, two-level and beam trial loops,
// and the daemon's rounds all fan their index-addressed work out
// through ForEach.
package par

import (
	"runtime"
	"sync"
)

// ForEach calls fn(i) for every i in [0, n) on at most workers
// goroutines (workers <= 0: GOMAXPROCS; never more than n) and returns
// the first error a call reported. Every index runs even after an
// error, so callers that write per-index results see a complete slice
// or an error, never a silently short one.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return firstErr
}
