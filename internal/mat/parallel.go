package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The kernel's parallelism: matrix products (and batch loops built on
// ParallelFor) are sharded over a persistent package-level worker pool.
//
// Design constraints, in priority order:
//
//  1. Bit-identical results. Shards own disjoint output rows and perform the
//     same per-row accumulation order as the serial kernel, so the parallel
//     and serial paths produce identical floats (tested property in
//     parallel_test.go).
//  2. Allocation-free steady state. Shard descriptors are plain structs sent
//     by value over a channel, shard kernels are top-level functions (no
//     closure captures), and WaitGroups are pooled (wgPool) — a parallel
//     MulInto does not allocate.
//  3. No oversubscription, no deadlock. The pool holds at most
//     Parallelism()−1 workers; a submitting goroutine always runs one shard
//     inline and falls back to inline execution when no worker is free, so
//     concurrent callers (e.g. parallel protocol runs in experiments)
//     self-throttle instead of stacking goroutines.

// parallelism is the target shard count, defaulting to GOMAXPROCS(0) (not
// NumCPU: GOMAXPROCS respects container CPU quotas and taskset masks).
var parallelism atomic.Int32

func init() { parallelism.Store(int32(runtime.GOMAXPROCS(0))) }

// Parallelism returns the kernel's current target parallelism. It is the
// shared default for every worker knob in this repository (see
// experiments.Options.Workers).
func Parallelism() int { return int(parallelism.Load()) }

// SetParallelism sets the kernel's target parallelism. Values ≤ 0 reset to
// runtime.GOMAXPROCS(0). 1 forces the serial path. Safe for concurrent use;
// in-flight operations keep the value they started with.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism.Store(int32(n))
}

// parallelFlopThreshold is the minimum number of multiply–adds before a
// product is sharded: below it the goroutine handoff costs more than the
// arithmetic saves. A var (not const) so the boundary is testable.
var parallelFlopThreshold = 1 << 16

// shardCount caps the target shard count so that every shard carries at
// least parallelFlopThreshold multiply–adds: sharding a product into pieces
// below the handoff break-even just moves work behind channel sends. At
// parallelism 1 the result is always 1, so the "parallel" entry points run
// the very same inline code path as the serial ones — parallel can never
// lose to serial there (TestNoPoolDispatchAtParallelism1 asserts that no
// shard reaches the pool).
func shardCount(flops int) int {
	p := Parallelism()
	if maxShards := flops / parallelFlopThreshold; p > maxShards {
		p = maxShards
	}
	if p < 1 {
		p = 1
	}
	return p
}

// poolDispatches counts shards actually handed to pool workers (not run
// inline). Observability for the scheduling tests: at parallelism 1 the
// counter must not move, proving serial and parallel calls share one code
// path rather than merely producing equal results.
var poolDispatches atomic.Uint64

// PoolDispatches returns the cumulative number of shards executed by pool
// workers since process start.
func PoolDispatches() uint64 { return poolDispatches.Load() }

// shard is one unit of pool work: rows [Lo, Hi) of an operation. Matmul
// kernels read the operands from the descriptor itself so that no closure is
// allocated; ParallelFor carries a closure in fn for generic callers.
type shard struct {
	kernel    func(s shard) // top-level function, never a closure
	fn        func(lo, hi int)
	dst, a, b *Dense
	lo, hi    int
	wg        *sync.WaitGroup
}

var (
	shardCh   = make(chan shard)
	workersMu sync.Mutex
	workers   int
)

// ensureWorkers grows the resident worker set to n goroutines. Workers are
// never torn down; idle ones block on shardCh and cost only their stacks.
func ensureWorkers(n int) {
	if n <= 0 {
		return
	}
	workersMu.Lock()
	for workers < n {
		workers++
		go func() {
			for s := range shardCh {
				s.kernel(s)
				s.wg.Done()
			}
		}()
	}
	workersMu.Unlock()
}

// wgPool holds the WaitGroups of sharded passes. It stays a sync.Pool
// because MulInto's callers own no struct that could hold a WaitGroup.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// runSharded splits [0, n) into at most p contiguous blocks and runs tmpl's
// kernel on each. The caller's goroutine always executes the first block
// itself; remaining blocks are offered to the pool and run inline when every
// worker is busy (opportunistic handoff — an unbuffered send only succeeds
// when a worker is already parked in receive).
func runSharded(n, p int, tmpl shard) {
	if p > n {
		p = n
	}
	if p <= 1 {
		tmpl.lo, tmpl.hi = 0, n
		tmpl.kernel(tmpl)
		return
	}
	ensureWorkers(p - 1)
	wg := wgPool.Get().(*sync.WaitGroup)
	tmpl.wg = wg
	chunk := (n + p - 1) / p
	for lo := chunk; lo < n; lo += chunk {
		s := tmpl
		s.lo, s.hi = lo, min(lo+chunk, n)
		wg.Add(1)
		select {
		case shardCh <- s:
			poolDispatches.Add(1)
		default:
			s.kernel(s)
			wg.Done()
		}
	}
	tmpl.lo, tmpl.hi = 0, chunk
	tmpl.kernel(tmpl)
	wg.Wait()
	wgPool.Put(wg)
}

// parallelForKernel adapts a ParallelFor closure to the shard interface.
func parallelForKernel(s shard) { s.fn(s.lo, s.hi) }

// ParallelFor runs fn over the disjoint cover of [0, n) on the kernel's
// worker pool, serially when n < 2·minGrain or the parallelism knob is 1.
// fn must be safe to call concurrently on disjoint ranges. Used by gda to
// shard per-sample density scoring across the same pool as the matmuls.
func ParallelFor(n, minGrain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := Parallelism()
	if minGrain > 0 && p > n/minGrain {
		p = n / minGrain
	}
	if p <= 1 {
		fn(0, n)
		return
	}
	runSharded(n, p, shard{kernel: parallelForKernel, fn: fn})
}
