package faults

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRetrySucceedsAfterFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 5, BaseDelay: -1}, func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryExhaustionReturnsLastError(t *testing.T) {
	sentinel := errors.New("still broken")
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 4, BaseDelay: -1}, func(context.Context) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) || calls != 4 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	auth := errors.New("bad credentials")
	calls := 0
	err := Retry(context.Background(), Policy{MaxAttempts: 5, BaseDelay: -1}, func(context.Context) error {
		calls++
		return Permanent(auth)
	})
	if !errors.Is(err, auth) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if IsPermanent(err) {
		t.Error("marker should be stripped from the returned error")
	}
}

func TestRetryHonorsClassifier(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), Policy{
		MaxAttempts: 5, BaseDelay: -1,
		Retryable: func(error) bool { return false },
	}, func(context.Context) error {
		calls++
		return errors.New("structural")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryCanceledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, Policy{}, func(context.Context) error {
		calls++
		return nil
	})
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryCancellationBetweenAttempts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, Policy{MaxAttempts: 10, BaseDelay: time.Hour}, func(context.Context) error {
		calls++
		cancel() // fails, then the backoff sleep must abort immediately
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestBackoffIsCappedAndJittered(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, Seed: 42}
	for n := 1; n < 40; n++ {
		d := p.backoff(n)
		if d < 0 || d > maxDelay {
			t.Fatalf("backoff(%d) = %v outside [0, cap]", n, d)
		}
	}
	if p.backoff(3) != p.backoff(3) {
		t.Error("seeded backoff is not deterministic")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	reg := obs.NewRegistry()
	b := &Breaker{Name: "edge", OpenTimeout: time.Minute, Now: func() time.Time { return now }}
	b.Instrument(reg)

	boom := errors.New("boom")
	fail := func(context.Context) error { return boom }
	ok := func(context.Context) error { return nil }

	for i := 0; i < failureThreshold; i++ {
		if err := b.Do(context.Background(), fail); !errors.Is(err, boom) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if b.State() != Open {
		t.Fatalf("state after trip = %v", b.State())
	}
	if err := b.Do(context.Background(), ok); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}

	now = now.Add(2 * time.Minute) // cool-down elapses
	if b.State() != HalfOpen {
		t.Fatalf("state after cool-down = %v", b.State())
	}
	if err := b.Do(context.Background(), fail); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if b.State() != Open {
		t.Fatal("failed probe should re-open")
	}

	now = now.Add(2 * time.Minute)
	if err := b.Do(context.Background(), ok); err != nil {
		t.Fatal(err)
	}
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v", b.State())
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`faults_breaker_state{breaker="edge"} 0`,
		`faults_breaker_transitions_total{breaker="edge",to="open"} 2`,
		`faults_breaker_transitions_total{breaker="edge",to="closed"} 1`,
		`faults_breaker_rejected_total{breaker="edge"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestBreakerHalfOpenLimitsProbes(t *testing.T) {
	now := time.Unix(0, 0)
	b := &Breaker{Name: "edge", OpenTimeout: time.Second, Now: func() time.Time { return now }}
	for i := 0; i < failureThreshold; i++ {
		b.Record(errors.New("boom"))
	}
	if b.State() != Open {
		t.Fatal("the threshold's failures should trip it")
	}
	now = now.Add(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("first probe rejected: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("second concurrent probe should be rejected")
	}
	b.Record(nil)
	if b.State() != Closed {
		t.Fatal("successful probe should close")
	}
}

func TestBreakerIsFailureClassifier(t *testing.T) {
	benign := errors.New("not found")
	hard := errors.New("connection refused")
	b := &Breaker{Name: "edge", IsFailure: func(err error) bool { return errors.Is(err, hard) }}

	// Benign errors never trip the breaker, no matter how many.
	for i := 0; i < 10; i++ {
		b.Record(benign)
	}
	if b.State() != Closed {
		t.Fatalf("benign errors tripped the breaker: %v", b.State())
	}

	// They also reset the consecutive-failure count, like a success.
	for i := 0; i < failureThreshold-1; i++ {
		b.Record(hard)
	}
	b.Record(benign)
	b.Record(hard)
	if b.State() != Closed {
		t.Fatal("benign error should break the consecutive-failure run")
	}

	// Hard failures still trip it.
	for i := 0; i < failureThreshold-1; i++ {
		b.Record(hard)
	}
	if b.State() != Open {
		t.Fatalf("hard failures should trip: %v", b.State())
	}
}

func TestDeadlineClipsToContext(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(10*time.Millisecond))
	defer cancel()
	d := Deadline(ctx, time.Hour)
	if time.Until(d) > time.Second {
		t.Fatalf("deadline %v not clipped to context", d)
	}
	if !Deadline(context.Background(), 0).IsZero() {
		t.Error("unbounded deadline should be zero")
	}
}

func TestIsTimeout(t *testing.T) {
	if !IsTimeout(context.DeadlineExceeded) {
		t.Error("context deadline not classified as timeout")
	}
	if IsTimeout(errors.New("nope")) || IsTimeout(nil) {
		t.Error("false positive")
	}
}
