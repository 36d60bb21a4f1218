// Package pool is the bounded, index-addressed worker pool shared by the
// corpus analysis, the serving fleet's reloads, the anonymizer, and
// netgen's corpus writer.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run distributes n index-addressed work items over a bounded worker
// pool (parallelism <= 0 means GOMAXPROCS; a pool of 1 runs inline).
// Work items must only touch their own index, so results land in input
// order whatever the scheduling. A cancelled ctx drains the queue early:
// items not yet started never run, already running items finish.
func Run(ctx context.Context, parallelism, n int, work func(i int)) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			work(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
}
