// Package resilience provides the fault-tolerance primitives of the serving
// layer: bounded retry with exponential backoff, atomic checksummed snapshot
// files with checkpoint rotation and corrupt/truncated-file detection, and a
// graceful HTTP server lifecycle. It has no dependencies on the model
// packages, so both persist layers (nn, gda) and the binaries can build on
// it without cycles.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// RetryPolicy bounds a retried operation. Zero fields take the documented
// defaults.
type RetryPolicy struct {
	// Attempts is the maximum number of tries, including the first
	// (default 3).
	Attempts int
	// BaseDelay is the sleep after the first failure; it doubles per retry
	// (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// Jitter spreads each backoff sleep uniformly over
	// [delay·(1−Jitter), delay·(1+Jitter)], so retry loops that failed
	// together (several checkpointers hitting one full disk, say) don't
	// thunder back in lockstep. Zero takes the default 0.2; a negative
	// value disables jitter.
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// jitterRand is the uniform [0,1) source for backoff jitter, a package
// variable so tests can pin it.
var jitterRand = rand.Float64

// backoffTimer starts the timer a Retry backoff waits on, a package
// variable so tests can observe the delay without waiting it out.
var backoffTimer = time.NewTimer

// jittered maps delay to a uniform sample of [delay·(1−j), delay·(1+j)],
// capped at max. With j == 0 it returns delay (capped) unchanged.
func jittered(delay, max time.Duration, j float64) time.Duration {
	if j > 0 {
		lo := float64(delay) * (1 - j)
		d := time.Duration(lo + jitterRand()*(float64(delay)*(1+j)-lo))
		if d < 1 {
			d = 1
		}
		delay = d
	}
	if delay > max {
		delay = max
	}
	return delay
}

// Retry runs fn until it succeeds, the policy's attempts are exhausted, or
// ctx is done. The returned error is the last failure (or the context error
// when cancelled mid-backoff), annotated with the attempt count.
func Retry(ctx context.Context, p RetryPolicy, fn func() error) error {
	p = p.withDefaults()
	delay := p.BaseDelay
	var last error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("resilience: cancelled after %d attempts: %w", attempt-1, errors.Join(err, last))
		}
		last = fn()
		if last == nil {
			return nil
		}
		if attempt >= p.Attempts {
			return fmt.Errorf("resilience: giving up after %d attempts: %w", attempt, last)
		}
		timer := backoffTimer(jittered(delay, p.MaxDelay, p.Jitter))
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("resilience: cancelled during backoff: %w", errors.Join(ctx.Err(), last))
		case <-timer.C:
		}
		delay *= 2
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}
