package core

import (
	"fmt"
	"runtime"
	"sync"
)

// WorkerBudget arbitrates the machine's cores among every concurrently
// running tessellation pipeline in the process. Each open Session
// registers its rank count with the budget for its whole lifetime
// (OpenSession to Close), and EffectiveWorkers divides GOMAXPROCS by the
// number of ranks active across *all* registered pipelines — so N
// concurrent sessions share the machine fairly instead of each assuming it
// owns it, whether they are a multi-tenant daemon's jobs or two plain Runs
// racing in one process.
//
// The division is advisory scheduling only: worker counts never change any
// computed value (pinned by the determinism tests), so the budget can
// resize under a running session without affecting its output.
type WorkerBudget struct {
	mu        sync.Mutex
	ranks     int // sum of rank counts of active pipelines
	pipelines int // number of active pipelines
}

// sharedBudget is the process-wide budget every Session (and therefore
// every Run) draws on.
var sharedBudget = new(WorkerBudget)

// SharedWorkerBudget returns the process-wide budget.
func SharedWorkerBudget() *WorkerBudget { return sharedBudget }

// Total returns the budget's worker total: runtime.GOMAXPROCS(0) at query
// time, so the budget follows later GOMAXPROCS changes.
func (b *WorkerBudget) Total() int { return runtime.GOMAXPROCS(0) }

// Active returns the number of registered pipelines and the sum of their
// rank counts.
func (b *WorkerBudget) Active() (pipelines, ranks int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pipelines, b.ranks
}

// acquire registers a pipeline of ranks concurrent ranks with the budget.
func (b *WorkerBudget) acquire(ranks int) {
	if ranks <= 0 {
		panic(fmt.Sprintf("core: budget acquire of %d ranks", ranks))
	}
	b.mu.Lock()
	b.ranks += ranks
	b.pipelines++
	b.mu.Unlock()
}

// release deregisters a pipeline previously registered with acquire.
func (b *WorkerBudget) release(ranks int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ranks -= ranks
	b.pipelines--
	if b.ranks < 0 || b.pipelines < 0 {
		panic(fmt.Sprintf("core: budget release underflow (ranks %d, pipelines %d)", b.ranks, b.pipelines))
	}
}

// WorkersPerRank returns the fair per-rank worker count for a pipeline of
// ranks concurrent ranks drawing on the budget now: the total divided by
// the ranks active across all registered pipelines (at least the asking
// pipeline's own, so an unregistered caller gets the classic single-tenant
// division), never below one worker per rank.
func (b *WorkerBudget) WorkersPerRank(ranks int) int {
	if ranks < 1 {
		ranks = 1
	}
	b.mu.Lock()
	active := b.ranks
	b.mu.Unlock()
	if active < ranks {
		active = ranks
	}
	w := b.Total() / active
	if w < 1 {
		w = 1
	}
	return w
}
