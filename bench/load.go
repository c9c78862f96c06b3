package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/zonedb"
)

// reqKind is one kind of request in a traffic mix.
type reqKind uint8

const (
	kDomain reqKind = iota
	kNameserver
	kRevalidate // a domain request carrying the ETag last seen for it
	kStats
	kTop
	kZones
	kDeltas
	kDeltasFrom // a delta page from a day in the last year
	kSnapshot   // one zone's reconstructed file on one day
	nKinds
)

// mix is the share of each kind, in percent, and how keys are drawn.
type mix struct {
	share [nKinds]int
	zipf  bool // keys Zipf(1.1) over the shuffled population, else uniform
}

var (
	// hotMix is the steady read mix of serve-node and serve-cluster.
	hotMix = mix{share: [nKinds]int{kDomain: 45, kNameserver: 30, kRevalidate: 10,
		kStats: 5, kTop: 3, kZones: 3, kDeltas: 4}, zipf: true}
	// coldMix is the reader mix of serve-churn: uniform keys, plus the
	// two routes whose cost follows the size of the database.
	coldMix = mix{share: [nKinds]int{kDomain: 50, kNameserver: 30, kRevalidate: 3,
		kStats: 5, kTop: 3, kZones: 3, kDeltasFrom: 4, kSnapshot: 2}}
)

// population is what requests are drawn over: every domain and
// nameserver of a view, sorted then shuffled by the seed.
type population struct {
	domains     []string // request paths, "/v1/domains/<name>"
	nameservers []string // "/v1/nameservers/<name>?limit=25"
	zones       []dnsname.Name
	first, last dates.Day // day range for kDeltasFrom and kSnapshot
}

func newPopulation(v *zonedb.View, seed int64) *population {
	p := &population{zones: v.Zones(), last: v.CloseDay()}
	v.Domains(func(d dnsname.Name) bool { p.domains = append(p.domains, "/v1/domains/"+string(d)); return true })
	v.Nameservers(func(n dnsname.Name) bool {
		p.nameservers = append(p.nameservers, "/v1/nameservers/"+string(n)+"?limit=25")
		return true
	})
	sort.Strings(p.domains)
	sort.Strings(p.nameservers)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.domains), func(i, j int) { p.domains[i], p.domains[j] = p.domains[j], p.domains[i] })
	rng.Shuffle(len(p.nameservers), func(i, j int) { p.nameservers[i], p.nameservers[j] = p.nameservers[j], p.nameservers[i] })
	return p
}

// request is one generated request.
type request struct {
	kind reqKind
	path string
	etag string // If-None-Match, for kRevalidate once an ETag was seen
}

// reqGen draws one client's request sequence; the same seed gives the
// same sequence, whatever serves it. Kinds are dealt from a shuffled deck
// of a hundred cards holding each kind's share, so every hundred requests
// carry the mix exactly and a short burst costs what the next one does.
type reqGen struct {
	rng   *rand.Rand
	mix   mix
	pop   *population
	deck  []reqKind // cards left in the current hundred
	zipfD *rand.Zipf
	zipfN *rand.Zipf
	etags map[string]string // domain path -> ETag last seen
}

func newReqGen(seed int64, m mix, pop *population) *reqGen {
	g := &reqGen{rng: rand.New(rand.NewSource(seed)), mix: m, pop: pop, etags: make(map[string]string)}
	if m.zipf {
		g.zipfD = rand.NewZipf(g.rng, 1.1, 1, uint64(len(pop.domains)-1))
		g.zipfN = rand.NewZipf(g.rng, 1.1, 1, uint64(len(pop.nameservers)-1))
	}
	return g
}

func (g *reqGen) pick(z *rand.Zipf, keys []string) string {
	if z != nil {
		return keys[z.Uint64()]
	}
	return keys[g.rng.Intn(len(keys))]
}

// nextKind deals the next card, shuffling a new deck when the last is
// used up.
func (g *reqGen) nextKind() reqKind {
	if len(g.deck) == 0 {
		for kind, n := range g.mix.share {
			for ; n > 0; n-- {
				g.deck = append(g.deck, reqKind(kind))
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	kind := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	return kind
}

func (g *reqGen) next() request {
	kind := g.nextKind()
	switch kind {
	case kDomain:
		return request{kind: kind, path: g.pick(g.zipfD, g.pop.domains)}
	case kNameserver:
		return request{kind: kind, path: g.pick(g.zipfN, g.pop.nameservers)}
	case kRevalidate:
		path := g.pick(g.zipfD, g.pop.domains)
		return request{kind: kind, path: path, etag: g.etags[path]}
	case kStats:
		return request{kind: kind, path: "/v1/stats"}
	case kTop:
		return request{kind: kind, path: "/v1/top/nameservers"}
	case kZones:
		return request{kind: kind, path: "/v1/zones?limit=10"}
	case kDeltas:
		return request{kind: kind, path: "/v1/deltas?limit=30"}
	case kDeltasFrom:
		from := g.pop.last - dates.Day(g.rng.Intn(365))
		return request{kind: kind, path: "/v1/deltas?from=" + from.String() + "&limit=30"}
	default: // kSnapshot
		zone := g.pop.zones[g.rng.Intn(len(g.pop.zones))]
		day := g.pop.last - dates.Day(g.rng.Intn(int(g.pop.last-g.pop.first)/2+1))
		return request{kind: kind, path: "/v1/zones/" + string(zone) + "/snapshot?date=" + day.String()}
	}
}

// response is what a target observed for one request.
type response struct {
	status int
	bytes  int
	etag   string
	cache  string // X-Cache: "hit", "miss", or "" when the cache was not consulted
	body   []byte // kept only when the target was asked to
}

// target serves requests: over HTTP, or by calling a handler directly.
type target interface {
	do(req request, keepBody bool) (response, error)
}

// httpTarget is one closed-loop client connection to a server. Transparent
// compression is off, so the client half of a request stays small next
// to the server half on the shared processors.
type httpTarget struct {
	client *http.Client
	base   string
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{base: base, client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 4},
	}}
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

func (t *httpTarget) do(req request, keepBody bool) (response, error) {
	hr, err := http.NewRequest(http.MethodGet, t.base+req.path, nil)
	if err != nil {
		return response{}, err
	}
	if req.etag != "" {
		hr.Header.Set("If-None-Match", req.etag)
	}
	resp, err := t.client.Do(hr)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	out := response{status: resp.StatusCode, etag: resp.Header.Get("ETag"), cache: resp.Header.Get("X-Cache")}
	if keepBody {
		out.body, err = io.ReadAll(resp.Body)
		out.bytes = len(out.body)
		return out, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	out.bytes = int(n)
	return out, err
}

// directTarget calls a handler in process, with no transport.
type directTarget struct{ h http.Handler }

func (t directTarget) do(req request, keepBody bool) (response, error) {
	hr := httptest.NewRequest(http.MethodGet, req.path, nil)
	if req.etag != "" {
		hr.Header.Set("If-None-Match", req.etag)
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, hr)
	out := response{status: rec.Code, bytes: rec.Body.Len(), etag: rec.Header().Get("ETag"), cache: rec.Header().Get("X-Cache")}
	if keepBody {
		out.body = rec.Body.Bytes()
	}
	return out, nil
}

// sample is one completed request.
type sample struct {
	ns    int64 // latency
	end   int64 // completion time, ns since the window's start
	bytes int32
	kind  reqKind
	cache byte // 'h' hit, 'm' miss, 0 when the cache was not consulted
}

// clientLog is what one client goroutine recorded.
type clientLog struct {
	samples []sample
	failed  int
	err     error // first failure
}

// limit stops a client loop: at a time or after a count.
type limit struct {
	from  time.Time // the window's start; samples are stamped relative to it
	until time.Time // zero = no deadline
	count int       // 0 = no cap
}

func (l limit) done(n int) bool {
	return (l.count > 0 && n >= l.count) ||
		(!l.until.IsZero() && !time.Now().Before(l.until))
}

// okStatus is 200, or 304 to a request that carried a validator; a
// refusal (429, 503) or anything else is a failed operation.
func okStatus(req request, status int) bool {
	return status == http.StatusOK || (status == http.StatusNotModified && req.etag != "")
}

// runClient is one closed loop: the next request leaves when the reply
// to the last one has been read to the end. around, when set, wraps each
// call (the traced slice opens its span there).
func runClient(g *reqGen, t target, l limit, log *clientLog, around func(req request, call func())) {
	for n := 0; !l.done(n); n++ {
		req := g.next()
		var resp response
		var err error
		t0 := time.Now()
		if around != nil {
			around(req, func() { resp, err = t.do(req, false) })
		} else {
			resp, err = t.do(req, false)
		}
		t1 := time.Now()
		ns := t1.Sub(t0).Nanoseconds()
		if err == nil && !okStatus(req, resp.status) {
			err = fmt.Errorf("GET %s: status %d", req.path, resp.status)
		}
		if err != nil {
			log.failed++
			if log.err == nil {
				log.err = err
			}
		}
		if resp.etag != "" && (req.kind == kDomain || req.kind == kRevalidate) {
			g.etags[req.path] = resp.etag
		}
		x := sample{ns: ns, end: t1.Sub(l.from).Nanoseconds(), bytes: int32(resp.bytes), kind: req.kind}
		if resp.cache != "" {
			x.cache = resp.cache[0]
		}
		log.samples = append(log.samples, x)
	}
}

// runClients runs one closed loop per generator, each on its own target,
// and returns when all have stopped.
func runClients(gens []*reqGen, targets []target, l limit) []clientLog {
	logs := make([]clientLog, len(gens))
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(gens[i], targets[i], l, &logs[i], nil)
		}(i)
	}
	wg.Wait()
	return logs
}

// loadStats pools the clients of one window.
type loadStats struct {
	steady   sliceStat // median over the window's slices
	requests int
	failed   int
	err      error
	all      []float64         // latencies in ms, sorted
	byKind   [nKinds][]float64 // latencies in us, sorted
	hitUS    []float64
	missUS   []float64
	bytes    int64
}

func pool(logs []clientLog) *loadStats {
	s := &loadStats{}
	for _, l := range logs {
		s.failed += l.failed
		if s.err == nil {
			s.err = l.err
		}
		for _, x := range l.samples {
			s.requests++
			s.bytes += int64(x.bytes)
			s.all = append(s.all, float64(x.ns)/1e6)
			s.byKind[x.kind] = append(s.byKind[x.kind], float64(x.ns)/1e3)
			switch x.cache {
			case 'h':
				s.hitUS = append(s.hitUS, float64(x.ns)/1e3)
			case 'm':
				s.missUS = append(s.missUS, float64(x.ns)/1e3)
			}
		}
	}
	sort.Float64s(s.all)
	for k := range s.byKind {
		sort.Float64s(s.byKind[k])
	}
	sort.Float64s(s.hitUS)
	sort.Float64s(s.missUS)
	return s
}

// kindP50 is the median latency, in microseconds, over the given kinds.
func (s *loadStats) kindP50(kinds ...reqKind) float64 {
	if len(kinds) == 1 {
		return percentile(s.byKind[kinds[0]], 0.5)
	}
	var merged []float64
	for _, k := range kinds {
		merged = append(merged, s.byKind[k]...)
	}
	return median(merged)
}

// sliceStat is the load one slice of a window carried; applied to a whole
// window's slices it is the median of each figure over them.
type sliceStat struct {
	rate, p50, p99 float64 // 1/s, ms, ms
}

// steady reports a window as the median of its slices' figures, so a
// stretch during which the host was disturbed counts for its share of
// slices and no more.
func steady(sl []sliceStat) sliceStat {
	rate, p50, p99 := make([]float64, len(sl)), make([]float64, len(sl)), make([]float64, len(sl))
	for i, x := range sl {
		rate[i], p50[i], p99[i] = x.rate, x.p50, x.p99
	}
	return sliceStat{rate: median(rate), p50: median(p50), p99: median(p99)}
}

// sliceOf measures the requests that completed in [from, to) of their
// window: the host's shared processors speed up and slow down over
// hundreds of milliseconds and now and then stall for a second or two, so
// a window is measured slice by slice. The rate counts only the share of
// the slice's processor time the host granted; a median of latencies of
// tens of microseconds does not move with stolen time and stays as timed.
func sliceOf(logs []clientLog, from, to time.Duration, granted float64) sliceStat {
	var lat []float64
	for _, l := range logs {
		for _, x := range l.samples {
			if x.end >= from.Nanoseconds() && x.end < to.Nanoseconds() {
				lat = append(lat, float64(x.ns)/1e6)
			}
		}
	}
	p50, p99 := p50p99(lat)
	return sliceStat{rate: float64(len(lat)) / net(to-from, granted).Seconds(), p50: p50, p99: p99}
}
