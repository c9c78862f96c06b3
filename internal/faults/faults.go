// Package faults is the reproduction's resilience kit: context-aware
// retries with exponential backoff and full jitter, a circuit breaker
// with half-open probing, deadline helpers for connection-oriented
// protocols, and the dial hook (Dialer) the chaos tests slide their
// fault-injecting connections under.
//
// The package is stdlib-only and deliberately small: every external edge
// of the system (DNS exchanges, dzdbapi HTTP calls, zone snapshot
// ingest) routes its failure handling through here so that
// backoff behaviour, error classification, and breaker state are
// uniform and observable.
//
// Like internal/obs — and unlike the data plane — this package reads the
// wall clock (backoff sleeps, breaker cool-downs, I/O deadlines). None
// of that time ever feeds a methodology result; it only shapes when I/O
// is attempted.
package faults

import (
	"errors"
	"fmt"
)

// ErrOpen is returned by a Breaker that is rejecting calls.
var ErrOpen = errors.New("faults: circuit breaker open")

// ErrInjected is the error the tests' fault injectors return when a
// scheduled failure fires.
var ErrInjected = errors.New("faults: injected failure")

// permanentError marks an error that must never be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return fmt.Sprintf("permanent: %v", e.err) }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Retry stops immediately and returns it (minus
// the marker). Use it inside retried functions for failures that more
// attempts cannot fix — authentication rejections, malformed requests.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err carries the Permanent marker.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// unwrapPermanent strips the marker so callers see the original error.
func unwrapPermanent(err error) error {
	var pe *permanentError
	if errors.As(err, &pe) {
		return pe.err
	}
	return err
}
