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

// SearchBatch pipelines n queries through a worker pool of GOMAXPROCS
// goroutines for throughput workloads: search(i) runs query i — on one
// index, or scattered across a database's shards — and its outcome lands
// in slot i. It is the module's only search pool: a query runs its scans
// sequentially, so concurrency lives at the query grain, where it pays.
// search must be safe for concurrent use. Per-query Stats remain exact:
// each query accumulates its own counters.
func SearchBatch(n int, search func(i int) BatchItem) []BatchItem {
	out := make([]BatchItem, n)
	workers := min(runtime.GOMAXPROCS(0), n)
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
