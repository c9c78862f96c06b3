package resolve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/dnsname"
	"repro/internal/dnswire"
	"repro/internal/faults"
)

// Stub is a minimal stub resolver that queries one authoritative server
// over UDP. It has no TCP fallback: a truncated answer (TC set) is
// returned as it came. The controlled experiment uses it to confirm
// that a hijacked sacrificial nameserver really answers for its
// delegated names.
type Stub struct {
	// Server is the authoritative server's UDP address.
	Server string
	// Timeout bounds each attempt (default 2s).
	Timeout time.Duration
	// Retries is the number of additional attempts (default 2). Retries
	// go out at once: over UDP the first attempt most likely just
	// vanished.
	Retries int
	// Dialer overrides how connections are dialed. It exists so fault
	// injection can be slid under the resolver; nil uses net.Dialer with
	// the attempt timeout.
	Dialer faults.Dialer

	mu  sync.Mutex
	rng *rand.Rand
}

// Errors returned by Query.
var (
	ErrNoResponse = errors.New("resolve: no response from server")
	ErrMismatch   = errors.New("resolve: response does not match query")
)

// NXDomainError reports an authoritative NXDOMAIN.
type NXDomainError struct{ Name dnsname.Name }

func (e *NXDomainError) Error() string {
	return fmt.Sprintf("resolve: %s: NXDOMAIN", e.Name)
}

func (s *Stub) timeout() time.Duration {
	if s.Timeout > 0 {
		return s.Timeout
	}
	return 2 * time.Second
}

func (s *Stub) retries() int {
	if s.Retries > 0 {
		return s.Retries
	}
	return 2
}

func (s *Stub) newID() uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return uint16(s.rng.Intn(1 << 16))
}

// Query sends one question and returns the decoded response message.
func (s *Stub) Query(ctx context.Context, name dnsname.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	query := &dnswire.Message{
		Header: dnswire.Header{ID: s.newID(), RecursionDesired: false},
		Questions: []dnswire.Question{
			{Name: name, Type: qtype, Class: dnswire.ClassIN},
		},
	}
	wire, err := dnswire.Encode(query)
	if err != nil {
		return nil, err
	}
	// Timeouts and lost datagrams retry; anything structural (a
	// mismatched question, a decode failure) will repeat identically and
	// does not. faults.Retry checks ctx before every attempt.
	policy := faults.Policy{
		MaxAttempts: s.retries() + 1,
		BaseDelay:   -1, // retry immediately
		Retryable: func(err error) bool {
			return faults.IsTimeout(err) || errors.Is(err, ErrNoResponse)
		},
	}
	var resp *dnswire.Message
	err = faults.Retry(ctx, policy, func(ctx context.Context) (err error) {
		resp, err = s.exchange(ctx, wire, query.Header.ID, name, qtype)
		return err
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// dial resolves the configured dialer.
func (s *Stub) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	if s.Dialer != nil {
		return s.Dialer(ctx, network, addr)
	}
	d := net.Dialer{Timeout: s.timeout()}
	return d.DialContext(ctx, network, addr)
}

func (s *Stub) exchange(ctx context.Context, wire []byte, id uint16, name dnsname.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	conn, err := s.dial(ctx, "udp", s.Server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := faults.SetConnDeadline(conn, ctx, s.timeout()); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, 4096+64)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		resp, err := dnswire.Decode(buf[:n])
		if err != nil {
			continue // garbage datagram; keep waiting
		}
		if resp.Header.ID != id || !resp.Header.Response {
			continue // not ours
		}
		if len(resp.Questions) != 1 || resp.Questions[0].Name != name || resp.Questions[0].Type != qtype {
			return nil, ErrMismatch
		}
		return resp, nil
	}
}

// LookupA resolves A records for name, returning the addresses as
// strings. An authoritative NXDOMAIN yields NXDomainError.
func (s *Stub) LookupA(ctx context.Context, name dnsname.Name) ([]string, error) {
	resp, err := s.Query(ctx, name, dnswire.TypeA)
	if err != nil {
		return nil, err
	}
	if resp.Header.RCode == dnswire.RCodeNXDomain {
		return nil, &NXDomainError{Name: name}
	}
	if resp.Header.RCode != dnswire.RCodeNoError {
		return nil, fmt.Errorf("resolve: %s: %v", name, resp.Header.RCode)
	}
	var out []string
	for _, r := range resp.Answers {
		if r.Type == dnswire.TypeA && r.Name == name {
			out = append(out, r.Addr.String())
		}
	}
	return out, nil
}
