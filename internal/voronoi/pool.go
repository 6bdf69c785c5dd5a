package voronoi

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor executes fn over the index range [0, n) on a pool of worker
// goroutines. Workers claim chunks of consecutive indices from a shared
// atomic cursor, so load balances dynamically (cells in clustered regions
// cost far more than cells in voids) without any per-index channel
// traffic. fn receives a half-open range [lo, hi) and the worker's index
// in [0, workers); per-worker state (a *Scratch, a partial count) is
// indexed by that worker number.
//
// workers <= 0 uses GOMAXPROCS; the count is clamped to n. ParallelFor
// returns when every index has been processed. With one worker it runs fn
// inline, so single-threaded callers pay no synchronization at all.
func ParallelFor(n, workers int, fn func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	workers = PoolWorkers(workers, n)
	if workers == 1 {
		fn(0, n, 0)
		return
	}
	chunk := ChunkSize(n, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				hi := int(cursor.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				fn(lo, hi, worker)
			}
		}(w)
	}
	wg.Wait()
}

// PoolWorkers resolves a requested worker count against the problem size:
// nonpositive means GOMAXPROCS, and the result never exceeds n (so a
// caller can size per-worker state by the return value and index it with
// the worker numbers ParallelFor hands out).
func PoolWorkers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > n {
		requested = n
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// ChunkSize is the length of the ranges ParallelFor(n, workers, fn) hands
// fn: every range but the last is this long, so lo/ChunkSize numbers the
// ranges in index order from 0 to ceil(n/ChunkSize)-1. With one worker the
// whole range is one chunk; otherwise there are ~8 chunks per worker,
// coarse enough that cursor contention is negligible, fine enough that one
// expensive chunk cannot leave the pool idle for long.
func ChunkSize(n, workers int) int {
	workers = PoolWorkers(workers, n)
	if workers == 1 {
		return max(n, 1)
	}
	return max(n/(workers*8), 1)
}
