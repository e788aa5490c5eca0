package index

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// BatchItem is one query's outcome in a SearchBatch call.
type BatchItem struct {
	Results []Result
	Stats   SearchStats
	Err     error
}

// SearchBatch pipelines n queries through a bounded worker pool for
// throughput workloads: search(i) runs query i — on one index, or
// scattered across a database's shards — and its outcome lands in slot
// i. It is the module's only batch pool. workers <= 0 selects
// GOMAXPROCS. search must be safe for concurrent use and should run its
// query sequentially (SearchParallel with parallelism 1): inter-query
// parallelism already saturates the pool, and nesting intra-query
// fan-out on top would only oversubscribe it. Per-query Stats remain
// exact: each query accumulates its own counters.
func SearchBatch(n, workers int, search func(i int) BatchItem) []BatchItem {
	out := make([]BatchItem, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = search(i)
			}
		}()
	}
	wg.Wait()
	return out
}
