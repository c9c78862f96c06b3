package faults

import (
	"context"
	"errors"
	"net"
	"time"
)

// Deadline returns now+timeout clipped to ctx's deadline, so an I/O
// operation respects both its own budget and the caller's. A
// non-positive timeout yields the ctx deadline alone (zero time — no
// deadline — when ctx has none).
func Deadline(ctx context.Context, timeout time.Duration) time.Time {
	var d time.Time
	if timeout > 0 {
		d = time.Now().Add(timeout)
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return d
}

// SetConnDeadline applies Deadline(ctx, timeout) to conn, clearing any
// previous deadline when both the timeout and ctx are unbounded.
func SetConnDeadline(conn net.Conn, ctx context.Context, timeout time.Duration) error {
	return conn.SetDeadline(Deadline(ctx, timeout))
}

// IsTimeout reports whether err is a net.Error timeout or a
// context-deadline error — the class of failures a stalled peer causes.
func IsTimeout(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// Dialer is the dial hook shared by the clients, matching
// (*net.Dialer).DialContext. It exists so fault injection can be slid
// under any client without that client importing test code.
type Dialer func(ctx context.Context, network, addr string) (net.Conn, error)
