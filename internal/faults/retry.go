package faults

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// maxDelay caps Retry's backoff.
const maxDelay = 2 * time.Second

// Policy parameterizes Retry. The zero value is usable: three attempts,
// 50ms base delay doubling to a 2s cap, full jitter, and every error
// except Permanent-marked ones considered retryable.
type Policy struct {
	// MaxAttempts is the total number of attempts, including the first
	// (default 3). Values below 1 mean the default.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 50ms).
	// It doubles per attempt up to 2s. A negative value disables
	// sleeping entirely (immediate retries).
	BaseDelay time.Duration
	// Retryable classifies errors; nil treats every non-Permanent error
	// as retryable. It is not consulted for Permanent-marked errors.
	Retryable func(error) bool
	// OnRetry, when non-nil, observes each scheduled retry: the attempt
	// number just failed (1-based), its error, and the sleep chosen.
	OnRetry func(attempt int, err error, delay time.Duration)
	// Seed, when non-zero, makes the jitter sequence deterministic —
	// chaos tests pin it so failure schedules reproduce exactly.
	Seed int64
}

func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 3
	}
	return p.MaxAttempts
}

func (p Policy) base() time.Duration {
	if p.BaseDelay == 0 {
		return 50 * time.Millisecond
	}
	return p.BaseDelay
}

// sharedRng jitters for policies without an explicit seed. A fixed seed
// keeps runs reproducible (per the repo's determinism convention) while
// a mutex keeps concurrent retriers safe.
var (
	sharedMu  sync.Mutex
	sharedRng = rand.New(rand.NewSource(0x5eed))
)

func (p Policy) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	if p.Seed != 0 {
		// A per-call rng seeded from Seed and the delay keeps the policy
		// value copyable (no hidden state) yet deterministic.
		return time.Duration(rand.New(rand.NewSource(p.Seed ^ int64(max))).Int63n(int64(max)))
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	return time.Duration(sharedRng.Int63n(int64(max)))
}

// backoff returns the full-jitter sleep before attempt n (1-based count
// of attempts already made): uniform in [0, min(cap, base<<(n-1))].
func (p Policy) backoff(n int) time.Duration {
	if p.BaseDelay < 0 {
		return 0
	}
	d := p.base() << (n - 1)
	if d <= 0 || d > maxDelay { // <<-overflow or past the cap
		d = maxDelay
	}
	return p.jitter(d)
}

// Retry runs fn until it succeeds, the policy is exhausted, the error is
// classified non-retryable (or Permanent), or ctx is done. The last
// error is returned unwrapped so errors.Is/As see the original; context
// errors take precedence once the context is done.
func Retry(ctx context.Context, p Policy, fn func(ctx context.Context) error) error {
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lastErr = fn(ctx)
		if lastErr == nil {
			return nil
		}
		if IsPermanent(lastErr) {
			return unwrapPermanent(lastErr)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if p.Retryable != nil && !p.Retryable(lastErr) {
			return lastErr
		}
		if attempt >= p.attempts() {
			return lastErr
		}
		delay := p.backoff(attempt)
		if p.OnRetry != nil {
			p.OnRetry(attempt, lastErr, delay)
		}
		if err := Sleep(ctx, delay); err != nil {
			return err
		}
	}
}

// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
// latter case. A non-positive d returns immediately.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
