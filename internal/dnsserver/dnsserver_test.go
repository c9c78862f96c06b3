// Integration tests exercising the authoritative server and the stub
// resolver over real UDP sockets.
package dnsserver

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/dnsname"
	"repro/internal/dnswire"
	"repro/internal/resolve"
)

func startServer(t *testing.T, policy Policy) (*Server, *resolve.Stub) {
	t.Helper()
	srv := New(policy)
	srv.AddZone("dropthishost-test.biz")
	srv.AddZone("victim.edu")
	if err := srv.AddA("victim.edu", netip.MustParseAddr("198.51.100.99")); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddA(dnsname.Join("www", "victim.edu"), netip.MustParseAddr("198.51.100.98")); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(pc) }()
	t.Cleanup(func() { srv.Close() })
	stub := &resolve.Stub{Server: pc.LocalAddr().String(), Timeout: 250 * time.Millisecond, Retries: 1}
	return srv, stub
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestAnswersAQuery(t *testing.T) {
	srv, stub := startServer(t, nil)
	addrs, err := stub.LookupA(ctx(t), "victim.edu")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != "198.51.100.99" {
		t.Fatalf("addrs = %v", addrs)
	}
	if srv.Stats.Answered.Load() != 1 {
		t.Errorf("answered = %d", srv.Stats.Answered.Load())
	}
}

func TestNXDomain(t *testing.T) {
	_, stub := startServer(t, nil)
	_, err := stub.LookupA(ctx(t), "missing.victim.edu")
	var nx *resolve.NXDomainError
	if !asNX(err, &nx) {
		t.Fatalf("err = %v, want NXDomainError", err)
	}
}

func asNX(err error, target **resolve.NXDomainError) bool {
	nx, ok := err.(*resolve.NXDomainError)
	if ok {
		*target = nx
	}
	return ok
}

func TestNoDataReturnsEmptyWithSOA(t *testing.T) {
	_, stub := startServer(t, nil)
	resp, err := stub.Query(ctx(t), "victim.edu", dnswire.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) != 0 {
		t.Fatalf("NODATA response: %+v", resp.Header)
	}
	if len(resp.Authority) == 0 || resp.Authority[0].Type != dnswire.TypeSOA {
		t.Fatalf("authority = %+v", resp.Authority)
	}
}

func TestRefusedOutsideZones(t *testing.T) {
	_, stub := startServer(t, nil)
	resp, err := stub.Query(ctx(t), "unrelated.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}

func TestPolicyDropsSilently(t *testing.T) {
	srv, stub := startServer(t, func(dnswire.Question, netip.AddrPort) bool { return false })
	_, err := stub.LookupA(ctx(t), "victim.edu")
	if err == nil {
		t.Fatal("expected timeout when policy drops everything")
	}
	if srv.Stats.Dropped.Load() == 0 || srv.Stats.Answered.Load() != 0 {
		t.Errorf("stats: dropped=%d answered=%d", srv.Stats.Dropped.Load(), srv.Stats.Answered.Load())
	}
}

func TestPrefixPolicy(t *testing.T) {
	srv, stub := startServer(t, AnswerOnlyPrefix(netip.MustParsePrefix("203.0.113.0/24")))
	if _, err := stub.LookupA(ctx(t), "victim.edu"); err == nil {
		t.Fatal("loopback should be outside the allowed prefix")
	}
	srv.SetPolicy(AnswerOnlyPrefix(netip.MustParsePrefix("127.0.0.0/8")))
	addrs, err := stub.LookupA(ctx(t), "victim.edu")
	if err != nil || len(addrs) != 1 {
		t.Fatalf("after widening policy: %v %v", addrs, err)
	}
}

func TestQueryLogSeesDroppedQueries(t *testing.T) {
	// Build the server by hand so QueryLog is installed before the
	// serve goroutine starts (the field is read without locking).
	srv := New(func(dnswire.Question, netip.AddrPort) bool { return false })
	var mu sync.Mutex
	var seen []dnsname.Name
	srv.QueryLog = func(q dnswire.Question, _ netip.AddrPort) {
		mu.Lock()
		seen = append(seen, q.Name)
		mu.Unlock()
	}
	srv.AddZone("victim.edu")
	if err := srv.AddA(dnsname.Join("www", "victim.edu"), netip.MustParseAddr("198.51.100.98")); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(pc) }()
	t.Cleanup(func() { srv.Close() })
	stub := &resolve.Stub{Server: pc.LocalAddr().String(), Timeout: 250 * time.Millisecond, Retries: 1}

	_, _ = stub.LookupA(ctx(t), "www.victim.edu")
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		logged := append([]dnsname.Name(nil), seen...)
		mu.Unlock()
		if len(logged) > 0 {
			if logged[0] != "www.victim.edu" {
				t.Fatalf("query log = %v", logged)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("query log never received the dropped query")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAddRecordOutsideZone(t *testing.T) {
	srv := New(nil)
	srv.AddZone("example.com")
	if err := srv.AddA("other.net", netip.MustParseAddr("192.0.2.1")); err == nil {
		t.Fatal("record outside zones should be rejected")
	}
}

func TestMalformedDatagramIgnored(t *testing.T) {
	srv, stub := startServer(t, nil)
	conn, err := net.Dial("udp", stub.Server)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The server must survive; a valid query afterwards still works.
	addrs, err := stub.LookupA(ctx(t), "victim.edu")
	if err != nil || len(addrs) != 1 {
		t.Fatalf("after garbage: %v %v", addrs, err)
	}
	if srv.Stats.Errors.Load() == 0 {
		t.Error("malformed datagram not counted")
	}
}

// rawExchange sends query to addr over UDP and returns the answer as it
// came off the wire, and decoded.
func rawExchange(t *testing.T, addr string, query *dnswire.Message) ([]byte, *dnswire.Message) {
	t.Helper()
	wire, err := dnswire.Encode(query)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n], resp
}

// txtServer serves n 200-octet TXT records at name, more than 512
// octets of answer for n >= 3.
func txtServer(t *testing.T, name dnsname.Name, n int) string {
	t.Helper()
	srv := New(nil)
	srv.AddZone(name)
	for i := 0; i < n; i++ {
		if err := srv.AddRecord(dnswire.Record{
			Name: name, Type: dnswire.TypeTXT,
			Text: []string{string(make([]byte, 200))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(pc) }()
	t.Cleanup(func() { srv.Close() })
	return pc.LocalAddr().String()
}

func txtQuery(name dnsname.Name) *dnswire.Message {
	return &dnswire.Message{
		Header:    dnswire.Header{ID: 7},
		Questions: []dnswire.Question{{Name: name, Type: dnswire.TypeTXT, Class: dnswire.ClassIN}},
	}
}

// TestTruncatedUDPAnswer: an answer over the classic 512-octet limit
// goes out within 512 octets, with TC set and the record sections
// empty; the stub hands it back as it came (there is no TCP fallback).
func TestTruncatedUDPAnswer(t *testing.T) {
	addr := txtServer(t, "big.example", 10)
	wire, resp := rawExchange(t, addr, txtQuery("big.example"))
	if len(wire) > 512 {
		t.Fatalf("UDP answer is %d octets, want at most 512", len(wire))
	}
	if !resp.Header.Truncated || len(resp.Answers) != 0 {
		t.Fatalf("truncated=%v answers=%d, want TC set and no answers", resp.Header.Truncated, len(resp.Answers))
	}

	stub := &resolve.Stub{Server: addr, Timeout: 300 * time.Millisecond}
	resp, err := stub.Query(ctx(t), "big.example", dnswire.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Truncated || len(resp.Answers) != 0 {
		t.Fatalf("stub: truncated=%v answers=%d, want the truncated answer", resp.Header.Truncated, len(resp.Answers))
	}
}

func TestEDNS0LargeUDPAnswer(t *testing.T) {
	addr := txtServer(t, "edns.example", 6)

	// Classic 512-octet client: truncated.
	classic := &resolve.Stub{Server: addr, Timeout: 300 * time.Millisecond}
	resp, err := classic.Query(ctx(t), "edns.example", dnswire.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Truncated {
		t.Fatal("classic client should see TC")
	}

	// A query advertising 4096 octets: the full answer fits in one
	// datagram.
	query := txtQuery("edns.example")
	query.AddOPT(4096)
	wire, resp := rawExchange(t, addr, query)
	if resp.Header.Truncated || len(resp.Answers) != 6 {
		t.Fatalf("EDNS0 answer: truncated=%v answers=%d", resp.Header.Truncated, len(resp.Answers))
	}
	if len(wire) <= 512 {
		t.Fatalf("EDNS0 answer is %d octets; the test wants one past the classic limit", len(wire))
	}
	// The server echoes an OPT record.
	hasOPT := false
	for _, r := range resp.Additional {
		if r.Type == dnswire.TypeOPT {
			hasOPT = true
		}
	}
	if !hasOPT {
		t.Error("response missing OPT record")
	}
}

// TestStatsCounters checks the server's activity counters: an answered
// name and an NXDOMAIN each count as a query answered, and a query the
// policy refuses counts as dropped.
func TestStatsCounters(t *testing.T) {
	srv := New(nil)
	srv.AddZone("victim.edu")
	if err := srv.AddA("victim.edu", netip.MustParseAddr("198.51.100.99")); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(pc) }()
	t.Cleanup(func() { srv.Close() })
	stub := &resolve.Stub{Server: pc.LocalAddr().String(), Timeout: 250 * time.Millisecond, Retries: 1}

	if _, err := stub.LookupA(ctx(t), "victim.edu"); err != nil {
		t.Fatal(err)
	}
	if _, err := stub.LookupA(ctx(t), "ghost.victim.edu"); err == nil {
		t.Fatal("expected NXDOMAIN")
	}
	if got := srv.Stats.Queries.Load(); got != 2 {
		t.Errorf("queries = %d, want 2", got)
	}
	if got := srv.Stats.Answered.Load(); got != 2 {
		t.Errorf("answered = %d, want 2 (NOERROR and NXDOMAIN)", got)
	}

	srv.SetPolicy(func(dnswire.Question, netip.AddrPort) bool { return false })
	if _, err := stub.LookupA(ctx(t), "victim.edu"); err == nil {
		t.Fatal("a dropped query was answered")
	}
	if got := srv.Stats.Dropped.Load(); got < 1 {
		t.Errorf("dropped = %d, want at least 1", got)
	}
	if got := srv.Stats.Queries.Load(); got != 2+srv.Stats.Dropped.Load() {
		t.Errorf("queries = %d, want 2 plus %d dropped", got, srv.Stats.Dropped.Load())
	}
	if got := srv.Stats.Errors.Load(); got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}
}
