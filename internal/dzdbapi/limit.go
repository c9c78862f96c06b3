package dzdbapi

import (
	"container/list"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Metric names recorded by the protection layer.
const (
	MetricShed     = "dzdb_http_shed_total"
	MetricInflight = "dzdb_http_inflight"
)

// maxLimiterClients bounds the per-client bucket table; the least
// recently seen client is evicted past this, which resets its budget
// but keeps memory bounded under address churn.
const maxLimiterClients = 4096

// limiter implements per-client token buckets. Each client key (the
// host part of RemoteAddr) owns a bucket refilled at rate tokens/s up
// to burst; a request spends one token or is shed with the time until
// the next token as Retry-After guidance.
type limiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	now     func() time.Time
	clients map[string]*list.Element
	order   *list.List // front = most recently seen
}

type bucket struct {
	key    string
	tokens float64
	last   time.Time
}

func newLimiter(rate float64, burst int, now func() time.Time) *limiter {
	if burst < 1 {
		burst = int(math.Max(1, math.Ceil(2*rate)))
	}
	return &limiter{
		rate:    rate,
		burst:   float64(burst),
		now:     now,
		clients: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// allow spends one token from key's bucket. When denied, the returned
// duration is how long until a token will be available.
func (l *limiter) allow(key string) (bool, time.Duration) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	var b *bucket
	if el, ok := l.clients[key]; ok {
		b = el.Value.(*bucket)
		l.order.MoveToFront(el)
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	} else {
		b = &bucket{key: key, tokens: l.burst, last: now}
		l.clients[key] = l.order.PushFront(b)
		for len(l.clients) > maxLimiterClients {
			back := l.order.Back()
			delete(l.clients, back.Value.(*bucket).key)
			l.order.Remove(back)
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}

// clientKey identifies the requester for rate limiting: the host part
// of the peer address, so all connections from one client share a
// bucket.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSecs renders a Retry-After value, rounding up so clients
// never come back early.
func retryAfterSecs(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// SetRateLimit enables per-client token-bucket rate limiting: rate
// requests per second with the given burst (burst <= 0 picks
// max(1, 2*rate)). rate <= 0 disables limiting. Call before serving.
func (s *Server) SetRateLimit(rate float64, burst int) {
	if rate <= 0 {
		s.limits = nil
		return
	}
	s.limits = newLimiter(rate, burst, s.obs.Now)
}

// SetMaxInflight caps concurrently served requests; past the cap
// requests are shed with 503 + Retry-After rather than queued. n <= 0
// disables the cap. Parked long-polls are tracked separately and do not
// consume the cap. Call before serving.
func (s *Server) SetMaxInflight(n int) {
	if n < 0 {
		n = 0
	}
	s.maxInflight = int64(n)
}

// ServeStats snapshots the protection layer for /statusz and the
// dzdbd overload readiness check.
type ServeStats struct {
	Inflight    int64
	MaxInflight int64
	RateLimited uint64
	Overloaded  uint64
	// ActiveStreams counts parked long-poll requests.
	ActiveStreams int64
}

// ServeStats returns the current protection-layer counters.
func (f *Front) ServeStats() ServeStats {
	return ServeStats{
		Inflight:      f.inflight.Load(),
		MaxInflight:   f.maxInflight,
		RateLimited:   f.shedRateN.Load(),
		Overloaded:    f.shedLoadN.Load(),
		ActiveStreams: f.streams.Load(),
	}
}

// shed writes the v1 error envelope for a protection rejection and
// records it. Both codes carry Retry-After so well-behaved clients
// back off exactly as long as the server asks.
func (f *Front) shed(w http.ResponseWriter, route string, status int, code string, retryAfter time.Duration) {
	w.Header().Set("Retry-After", retryAfterSecs(retryAfter))
	switch code {
	case CodeRateLimited:
		f.shedRateN.Add(1)
		writeError(w, status, code, "client request rate exceeds the server's per-client limit")
	default:
		f.shedLoadN.Add(1)
		writeError(w, status, code, "server is at its concurrency cap; retry shortly")
	}
	f.shedTotal.With(route, code).Inc()
}

// admit applies rate limiting and the inflight cap to a request. The
// returned release func is non-nil when the request was admitted and
// must run when it finishes; ok=false means an error response has
// been written. A long-poll (isPush) skips the inflight cap (it parks
// by design) but still pays the rate limit.
func (f *Front) admit(w http.ResponseWriter, r *http.Request, route string, isPush bool) (func(), bool) {
	if f.limits != nil {
		if ok, wait := f.limits.allow(clientKey(r)); !ok {
			f.shed(w, route, http.StatusTooManyRequests, CodeRateLimited, wait)
			return nil, false
		}
	}
	if isPush {
		f.pushActive.Set(f.streams.Add(1))
		return func() { f.pushActive.Set(f.streams.Add(-1)) }, true
	}
	n := f.inflight.Add(1)
	if f.maxInflight > 0 && n > f.maxInflight {
		f.inflightGauge.Set(f.inflight.Add(-1))
		f.shed(w, route, http.StatusServiceUnavailable, CodeOverloaded, time.Second)
		return nil, false
	}
	f.inflightGauge.Set(n)
	return func() {
		f.inflightGauge.Set(f.inflight.Add(-1))
	}, true
}
