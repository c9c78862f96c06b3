package dnsserver

// The fault-injecting connection the chaos test slides under the stub
// resolver, and the tests that hold it to its plan.

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// faultPlan is a seeded fault-injection schedule for faultConn. Rates are
// probabilities in [0,1] evaluated independently per operation; the
// seeded rng makes a given (faultPlan, operation sequence) pair reproduce the
// exact same faults on every run, which is what lets the chaos tests run
// under -count=2 without flaking.
type faultPlan struct {
	// Seed selects the fault schedule (0 behaves as 1).
	Seed int64
	// DropRate silently swallows a Write: the caller sees success but no
	// bytes reach the peer — datagram loss for UDP, a black-holed send
	// for TCP (the peer's read then times out).
	DropRate float64
	// DelayRate stalls an operation for Delay before performing it.
	DelayRate float64
	// Delay is the injected stall (default 10ms).
	Delay time.Duration
	// FailRate hard-fails an operation: the underlying connection is
	// closed and faults.ErrInjected returned — an abrupt peer reset.
	FailRate float64
	// TruncateRate writes only the first half of the buffer and then
	// closes the connection — a mid-frame crash.
	TruncateRate float64
}

func (p faultPlan) delay() time.Duration {
	if p.Delay <= 0 {
		return 10 * time.Millisecond
	}
	return p.Delay
}

// faultConn wraps a net.Conn, injecting faults per a seeded faultPlan. It is safe
// for the usual net.Conn discipline (one reader, one writer).
type faultConn struct {
	net.Conn
	plan faultPlan

	mu  sync.Mutex
	rng *rand.Rand

	// Injected fault counts, for test assertions.
	drops     atomic.Int64
	delays    atomic.Int64
	failures  atomic.Int64
	truncates atomic.Int64
}

// wrapConn wraps c with the plan's fault schedule.
func wrapConn(c net.Conn, plan faultPlan) *faultConn {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	return &faultConn{Conn: c, plan: plan, rng: rand.New(rand.NewSource(seed))}
}

// Drops, Delays, Failures, and Truncates report how many faults of each
// kind have fired.
func (c *faultConn) Drops() int64     { return c.drops.Load() }
func (c *faultConn) Delays() int64    { return c.delays.Load() }
func (c *faultConn) Failures() int64  { return c.failures.Load() }
func (c *faultConn) Truncates() int64 { return c.truncates.Load() }

// roll draws one uniform variate under the schedule lock.
func (c *faultConn) roll() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// Read applies delay and hard-failure faults before reading.
func (c *faultConn) Read(b []byte) (int, error) {
	if c.plan.DelayRate > 0 && c.roll() < c.plan.DelayRate {
		c.delays.Add(1)
		time.Sleep(c.plan.delay())
	}
	if c.plan.FailRate > 0 && c.roll() < c.plan.FailRate {
		c.failures.Add(1)
		c.Conn.Close()
		return 0, faults.ErrInjected
	}
	return c.Conn.Read(b)
}

// Write applies drop, delay, truncate, and hard-failure faults.
func (c *faultConn) Write(b []byte) (int, error) {
	if c.plan.DelayRate > 0 && c.roll() < c.plan.DelayRate {
		c.delays.Add(1)
		time.Sleep(c.plan.delay())
	}
	if c.plan.FailRate > 0 && c.roll() < c.plan.FailRate {
		c.failures.Add(1)
		c.Conn.Close()
		return 0, faults.ErrInjected
	}
	if c.plan.TruncateRate > 0 && c.roll() < c.plan.TruncateRate {
		c.truncates.Add(1)
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		return n, faults.ErrInjected
	}
	if c.plan.DropRate > 0 && c.roll() < c.plan.DropRate {
		c.drops.Add(1)
		return len(b), nil // swallowed: success reported, nothing sent
	}
	return c.Conn.Write(b)
}

// faultyDialer wraps base so every dialed connection carries the plan.
// Each connection derives its own schedule seed from the plan seed and a
// dial counter, so reconnecting does not replay the identical faults
// (which could live-lock a retry loop against a deterministic drop).
func faultyDialer(base faults.Dialer, plan faultPlan) faults.Dialer {
	if base == nil {
		d := &net.Dialer{}
		base = d.DialContext
	}
	var dials atomic.Int64
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := base(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		p := plan
		if p.Seed == 0 {
			p.Seed = 1
		}
		p.Seed += dials.Add(1) * 7919 // distinct schedule per connection
		return wrapConn(conn, p), nil
	}
}

// pipePair returns both ends of an in-memory connection.
func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestConnDropSwallowsWrite(t *testing.T) {
	a, b := pipePair(t)
	fc := wrapConn(a, faultPlan{Seed: 3, DropRate: 1})
	n, err := fc.Write([]byte("hello"))
	if err != nil || n != 5 {
		t.Fatalf("dropped write: n=%d err=%v", n, err)
	}
	if fc.Drops() != 1 {
		t.Fatalf("drops = %d", fc.Drops())
	}
	// Nothing must arrive at the peer.
	b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 8)
	if _, err := b.Read(buf); err == nil {
		t.Fatal("peer received a dropped write")
	}
}

func TestConnFailClosesUnderlying(t *testing.T) {
	a, _ := pipePair(t)
	fc := wrapConn(a, faultPlan{Seed: 3, FailRate: 1})
	if _, err := fc.Write([]byte("x")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if fc.Failures() != 1 {
		t.Fatalf("failures = %d", fc.Failures())
	}
	// The underlying conn is now closed: plain writes fail too.
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("underlying conn still open after injected failure")
	}
}

func TestConnTruncateWritesHalf(t *testing.T) {
	a, b := pipePair(t)
	fc := wrapConn(a, faultPlan{Seed: 3, TruncateRate: 1})
	got := make(chan int, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := io.ReadFull(b, buf)
		got <- n
	}()
	_, err := fc.Write([]byte("12345678"))
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if n := <-got; n != 4 {
		t.Fatalf("peer saw %d bytes, want the truncated 4", n)
	}
}

func TestConnScheduleIsDeterministic(t *testing.T) {
	run := func() (drops int64) {
		a, b := pipePair(t)
		go io.Copy(io.Discard, b)
		fc := wrapConn(a, faultPlan{Seed: 99, DropRate: 0.5})
		for i := 0; i < 64; i++ {
			fc.Write([]byte("payload"))
		}
		return fc.Drops()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("same seed, different schedules: %d vs %d drops", first, second)
	}
	if first == 0 || first == 64 {
		t.Fatalf("drop schedule degenerate: %d/64", first)
	}
}

func TestFaultyDialerVariesSchedulePerConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	dial := faultyDialer(nil, faultPlan{Seed: 7, DropRate: 0.5})
	counts := make(map[int64]int)
	for i := 0; i < 3; i++ {
		conn, err := dial(context.Background(), "tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fc := conn.(*faultConn)
		for j := 0; j < 32; j++ {
			fc.Write([]byte("x"))
		}
		counts[fc.Drops()]++
		conn.Close()
	}
	if len(counts) == 1 && counts[0] == 3 {
		t.Fatal("no faults injected at all")
	}
}
