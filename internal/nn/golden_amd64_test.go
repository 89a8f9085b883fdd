//go:build amd64 && !amd64.v3

// The golden digests below were recorded on amd64, without FMA, with the
// single-term product loops and the masked ReLU the current kernels replaced.
// arm64 fuses x*y + z into one rounding, and the Go spec lets amd64 do so
// from GOAMD64=v3, so the digests hold only where this file builds; the
// kernel reference tests cover every target.

package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"faction/internal/mat"
)

// goldenPaperTrain runs one Train call of the protocol-paper network
// (paperFixture; Adam, μ = 0.7, ε = 0.01, clip 5, batch 32) on a ragged
// 150-row set, then one inference pass over a 2,200-row pool, the shape
// FACTION scores each round. It returns the SHA-256 of the trained weights
// with the final-epoch loss, and of the pool's logits and features, each
// element as its IEEE bits.
func goldenPaperTrain() (weights, pool string) {
	c, x, y, s := paperFixture(150)
	opts := TrainOpts{Epochs: 15, BatchSize: 32, Fair: paperFair, MaxGradNorm: 5}
	stats := c.Train(x, y, s, NewAdam(0.01), opts, rand.New(rand.NewSource(13)))

	h := sha256.New()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, p := range c.net.Params() {
		put(p.Value.Data...)
	}
	put(stats.Loss)
	weights = hex.EncodeToString(h.Sum(nil))

	rng := rand.New(rand.NewSource(11))
	px := mat.NewDense(2200, x.Cols)
	for i := range px.Data {
		px.Data[i] = rng.NormFloat64()
	}
	logits, features := c.LogitsAndFeatures(px, nil)
	h.Reset()
	put(logits.Data...)
	put(features.Data...)
	return weights, hex.EncodeToString(h.Sum(nil))
}

// TestPaperTrainGoldenDigest pins the bits of the paper-shape training step
// and inference pass: every kernel rewrite must leave each weight, the
// final-epoch loss and every pool logit and feature exactly as the plain
// loops computed them.
func TestPaperTrainGoldenDigest(t *testing.T) {
	const (
		wantWeights = "5af6914635aeb393a50b7f5ad106a134895b8e20e58419bbb6e9985af5f6e96f"
		wantPool    = "2a0fb82bcf0d95ecc8584ca56467b370b6d27d7c6a83ac43c79dae6046f07c61"
	)
	for _, par := range []int{1, 2} {
		old := mat.Parallelism()
		mat.SetParallelism(par)
		weights, pool := goldenPaperTrain()
		mat.SetParallelism(old)
		if weights != wantWeights {
			t.Errorf("parallelism %d: trained weights digest %s, want %s", par, weights, wantWeights)
		}
		if pool != wantPool {
			t.Errorf("parallelism %d: pool logits and features digest %s, want %s", par, pool, wantPool)
		}
	}
}
