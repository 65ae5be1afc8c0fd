package dataset

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(i) for every i in [0, n) on min(GOMAXPROCS, n) goroutines
// and returns when all of them have exited. It is how every dataset gets into
// memory or onto disk: fn writes sample i's result to slot i of a slice the
// caller sized beforehand, so the output is the serial loop's in whatever
// order workers finish. Indices are handed out in increasing order and only
// until an fn has failed, so every index below a failing one has run: the
// error returned is the lowest failing index's — what the serial loop
// returned. n <= 0 starts nothing.
func ForEach(n int, fn func(i int) error) error {
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		first    = n
		firstErr error
		wg       sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < first {
						first, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
