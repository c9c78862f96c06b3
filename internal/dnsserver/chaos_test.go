// Chaos test: the stub resolver against the authoritative server with a
// seeded fault plan dropping and delaying datagrams between them. UDP
// loss shows up as a read timeout, so every lookup must converge through
// the stub's retry loop.
package dnsserver

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"
)

func TestChaosStubRecoversFromDatagramLoss(t *testing.T) {
	_, stub := startServer(t, nil)

	// 25% of sends are silently dropped and a further 15% of operations
	// stall briefly — comfortably past the 20% fault floor the retry
	// path must absorb.
	base := faultyDialer(nil, faultPlan{
		Seed:      5,
		DropRate:  0.25,
		DelayRate: 0.15,
		Delay:     2 * time.Millisecond,
	})
	var mu sync.Mutex
	var conns []*faultConn
	stub.Dialer = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := base(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		conns = append(conns, c.(*faultConn))
		mu.Unlock()
		return c, nil
	}
	stub.Timeout = 100 * time.Millisecond
	stub.Retries = 15

	const lookups = 30
	for i := 0; i < lookups; i++ {
		addrs, err := stub.LookupA(ctx(t), "victim.edu")
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if len(addrs) != 1 || addrs[0] != "198.51.100.99" {
			t.Fatalf("lookup %d: addrs = %v", i, addrs)
		}
	}

	var drops, delays int64
	mu.Lock()
	for _, c := range conns {
		drops += c.Drops()
		delays += c.Delays()
	}
	attempts := len(conns)
	mu.Unlock()
	if drops == 0 {
		t.Fatal("drop schedule never fired; the retry path went untested")
	}
	t.Logf("%d lookups over %d attempts: %d datagrams dropped, %d ops delayed",
		lookups, attempts, drops, delays)
}
