package faults

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// Breaker states. Gauge values follow the common convention: 0 closed,
// 1 half-open, 2 open.
type State int

const (
	Closed State = iota
	HalfOpen
	Open
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// Metric names exported when a Breaker is instrumented.
const (
	MetricBreakerState       = "faults_breaker_state"
	MetricBreakerTransitions = "faults_breaker_transitions_total"
	MetricBreakerRejected    = "faults_breaker_rejected_total"
)

// failureThreshold is the consecutive-failure count that trips a
// Breaker.
const failureThreshold = 5

// Breaker is a consecutive-failure circuit breaker. Closed, it admits
// every call. After failureThreshold consecutive failures it opens and
// rejects calls with ErrOpen for OpenTimeout, then admits one trial
// call: its success closes the breaker, its failure re-opens it.
// Configure before first use; Allow/Record/Do are safe for concurrent
// use.
type Breaker struct {
	// Name labels the breaker in metrics.
	Name string
	// OpenTimeout is how long the breaker stays open before probing
	// (default 5s).
	OpenTimeout time.Duration
	// Now supplies the clock; overridable in tests. Defaults to time.Now.
	Now func() time.Time
	// IsFailure classifies an admitted call's error: only errors for
	// which it returns true count toward tripping the breaker; others
	// are treated as successes (the backend answered, just not with
	// what the caller wanted). Nil counts every non-nil error. Set it
	// to exclude application-level responses a healthy server produces
	// on purpose — steady traffic asking for absent keys (HTTP 404s)
	// must not open the circuit to a perfectly healthy backend.
	IsFailure func(error) bool

	mu       sync.Mutex
	state    State
	failures int  // consecutive failures while closed
	probing  bool // the half-open period's trial call is admitted
	openedAt time.Time

	gauge       *obs.Gauge
	transitions *obs.CounterVec
	rejected    *obs.Counter
}

// Instrument exports the breaker's state and transition counts into reg
// under the breaker's Name. Call before first use.
func (b *Breaker) Instrument(reg *obs.Registry) {
	b.gauge = reg.GaugeVec(MetricBreakerState, "Circuit breaker state (0 closed, 1 half-open, 2 open).", "breaker").With(b.Name)
	b.transitions = reg.CounterVec(MetricBreakerTransitions, "Circuit breaker state transitions.", "breaker", "to")
	b.rejected = reg.CounterVec(MetricBreakerRejected, "Calls rejected while the breaker was open.", "breaker").With(b.Name)
	b.gauge.Set(int64(Closed))
}

func (b *Breaker) timeout() time.Duration {
	if b.OpenTimeout <= 0 {
		return 5 * time.Second
	}
	return b.OpenTimeout
}

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

// transitionLocked moves to state s and publishes it.
func (b *Breaker) transitionLocked(s State) {
	if b.state == s {
		return
	}
	b.state = s
	switch s {
	case Closed:
		b.failures = 0
	case HalfOpen:
		b.probing = false
	case Open:
		b.openedAt = b.now()
	}
	if b.gauge != nil {
		b.gauge.Set(int64(s))
		b.transitions.With(b.Name, s.String()).Inc()
	}
}

// State returns the current state (advancing open→half-open when the
// cool-down has elapsed).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.now().Sub(b.openedAt) >= b.timeout() {
		b.transitionLocked(HalfOpen)
	}
	return b.state
}

// Allow reports whether a call may proceed, returning ErrOpen otherwise.
// Each admitted call must be matched by one Record.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		if b.now().Sub(b.openedAt) < b.timeout() {
			if b.rejected != nil {
				b.rejected.Inc()
			}
			return ErrOpen
		}
		b.transitionLocked(HalfOpen)
		fallthrough
	case HalfOpen:
		if b.probing {
			if b.rejected != nil {
				b.rejected.Inc()
			}
			return ErrOpen
		}
		b.probing = true
	}
	return nil
}

// Record reports the outcome of an admitted call. Errors the IsFailure
// classifier rejects are recorded as successes.
func (b *Breaker) Record(err error) {
	if err != nil && b.IsFailure != nil && !b.IsFailure(err) {
		err = nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if err == nil {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= failureThreshold {
			b.transitionLocked(Open)
		}
	case HalfOpen:
		if err != nil {
			b.transitionLocked(Open)
			return
		}
		b.transitionLocked(Closed)
	case Open:
		// A straggler from before the trip; nothing to learn.
	}
}

// Do runs fn under the breaker: Allow, then Record the outcome. When the
// breaker rejects the call, fn is not run and ErrOpen is returned.
func (b *Breaker) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	if err := b.Allow(); err != nil {
		return err
	}
	err := fn(ctx)
	b.Record(err)
	return err
}
