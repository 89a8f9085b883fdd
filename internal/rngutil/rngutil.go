// Package rngutil provides the deterministic random-number plumbing shared by
// every stochastic component in the repository: seeded streams, derived
// sub-streams (so each run / task / method draws from an independent source),
// Bernoulli trials, permutations and normal draws.
package rngutil

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// New returns a rand.Rand seeded with seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Derive returns a deterministic sub-stream of base seed identified by labels.
// Identical (seed, labels) always give an identical stream; different labels
// give uncorrelated streams. This is how experiments split a single base seed
// into per-run, per-method, per-task sources.
func Derive(seed int64, labels ...string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, l := range labels {
		h.Write([]byte{0})
		h.Write([]byte(l))
	}
	return New(int64(h.Sum64()))
}

// DeriveSeed returns the derived seed itself, for callers that need to pass
// a seed onward rather than a stream.
func DeriveSeed(seed int64, labels ...string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", seed)
	for _, l := range labels {
		h.Write([]byte{0})
		h.Write([]byte(l))
	}
	return int64(h.Sum64())
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func Bernoulli(rng *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// Perm returns a random permutation of [0, n).
func Perm(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// Shuffle permutes xs in place.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SampleWithoutReplacement returns k distinct indices from [0, n).
// It panics if k > n.
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("rngutil: sample %d from %d", k, n))
	}
	perm := rng.Perm(n)
	return perm[:k]
}

// NormalVec fills a length-d slice with N(0,1) draws.
func NormalVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
