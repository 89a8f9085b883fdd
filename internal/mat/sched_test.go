package mat

import (
	"math/rand"
	"testing"
)

// Scheduling properties of the worker pool: at parallelism 1 the "parallel"
// entry points must BE the serial path, not merely match it — zero shards
// handed to pool workers, identical code, and therefore identical cost.

// At parallelism 1 no shard may cross the pool channel: runSharded inlines,
// and shardCount caps marginal products to one shard. The dispatch counter
// proves the code path, so the no-regression guarantee does not rest on
// noisy timing.
func TestNoPoolDispatchAtParallelism1(t *testing.T) {
	old := Parallelism()
	SetParallelism(1)
	defer SetParallelism(old)
	rng := rand.New(rand.NewSource(61))
	x := randDense(rng, 96, 96)
	y := randDense(rng, 96, 96)
	dst := NewDense(96, 96)
	base := PoolDispatches()
	MulInto(dst, x, y)
	MulTAInto(dst, x, y)
	MulTBInto(dst, x, y)
	ParallelFor(1024, 1, func(lo, hi int) {})
	stack, _, _ := whitenFixtureStack(t, 16, 2, 8, 67)
	z := randDense(rng, 40, 16)
	stack.MahalanobisInto(make([]float64, 40*2), z)
	if got := PoolDispatches(); got != base {
		t.Fatalf("parallelism 1 dispatched %d shard(s) to pool workers, want 0", got-base)
	}
}

// shardCount must never produce shards below the handoff break-even: a
// product barely over the flop threshold stays single-shard even when the
// pool is wide, and the cap never exceeds the parallelism knob.
func TestShardCountFlopCap(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(16)
	if got := shardCount(parallelFlopThreshold); got != 1 {
		t.Fatalf("threshold flops: shardCount = %d, want 1", got)
	}
	if got := shardCount(3 * parallelFlopThreshold); got != 3 {
		t.Fatalf("3x threshold: shardCount = %d, want 3", got)
	}
	if got := shardCount(1 << 30); got != 16 {
		t.Fatalf("huge product: shardCount = %d, want parallelism 16", got)
	}
	SetParallelism(1)
	if got := shardCount(1 << 30); got != 1 {
		t.Fatalf("parallelism 1: shardCount = %d, want 1", got)
	}
}
