// Package health is the probe half of the observability layer: a
// registry of named readiness checks, exposed as GET /readyz on each
// daemon's observability mux.
//
// Readiness answers "should traffic be routed here right now?" — it
// fails while the daemon is loading or catching up, lagging past its
// thresholds, or draining for shutdown. Every check is a readiness
// check: no condition here is one a restart would cure, so the
// daemon's /healthz answers 200 whenever the process can answer at all.
//
// Checks come in two flavours. A *Check is push-style: the owning code
// calls OK/Fail as its state changes, and a TTL guards against the
// *absence* of updates — a check not refreshed within its TTL counts as
// failed ("stale"), so a stalled feed loop flips /readyz even though
// nothing ever reported an error. RegisterFunc checks are pull-style,
// evaluated at probe time, for conditions cheap to compute on demand
// (is the published epoch adoptable, is the checkpoint young enough).
//
// BeginShutdown fails readiness ahead of the listener closing, giving
// load balancers a drain window — the probe-smoke CI job asserts this
// ordering on SIGTERM.
package health

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Status is one check's state at probe time.
type Status struct {
	Name   string
	OK     bool
	Detail string // failure reason, "stale (...)", or "" when passing
	Age    time.Duration
}

// Check is a push-style check. The zero state is "pending" (failing)
// until the first OK or Fail.
type Check struct {
	name string
	ttl  time.Duration
	reg  *Registry

	mu      sync.Mutex
	ok      bool
	set     bool
	detail  string
	updated time.Time
}

// OK marks the check passing as of now.
func (c *Check) OK() {
	c.mu.Lock()
	c.ok, c.set, c.detail, c.updated = true, true, "", c.reg.now()
	c.mu.Unlock()
}

// Fail marks the check failing with a reason.
func (c *Check) Fail(reason string) {
	c.mu.Lock()
	c.ok, c.set, c.detail, c.updated = false, true, reason, c.reg.now()
	c.mu.Unlock()
}

// status evaluates the check at probe time, applying TTL staleness.
func (c *Check) status(now time.Time) Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Name: c.name, OK: c.ok, Detail: c.detail}
	switch {
	case !c.set:
		st.OK, st.Detail = false, "pending (never reported)"
	default:
		st.Age = now.Sub(c.updated)
		if c.ttl > 0 && st.Age > c.ttl {
			st.OK = false
			st.Detail = fmt.Sprintf("stale (last update %s ago, ttl %s)", st.Age.Round(time.Millisecond), c.ttl)
		}
	}
	return st
}

// funcCheck is a pull-style check evaluated at probe time.
type funcCheck struct {
	name string
	fn   func() error
}

// Registry holds a daemon's checks. The zero value is not usable; use
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	// Now supplies the clock; overridable in tests. Defaults to time.Now.
	Now func() time.Time

	mu       sync.Mutex
	checks   []*Check
	fns      []funcCheck
	draining atomic.Bool

	ready *obs.Gauge // health_ready
}

// NewRegistry creates an empty check registry.
func NewRegistry() *Registry { return &Registry{Now: time.Now} }

func (r *Registry) now() time.Time {
	if r.Now != nil {
		return r.Now()
	}
	return time.Now()
}

// Instrument exports the readiness verdict into reg as health_ready,
// updated on every readiness evaluation.
func (r *Registry) Instrument(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ready = reg.Gauge("health_ready", "Readiness at last probe (1 ready, 0 not).")
}

// Register adds a push-style check. ttl == 0 disables staleness; with
// ttl > 0 the check fails unless refreshed within ttl. The check starts
// pending (failing) until its first OK/Fail.
func (r *Registry) Register(name string, ttl time.Duration) *Check {
	c := &Check{name: name, ttl: ttl, reg: r}
	r.mu.Lock()
	r.checks = append(r.checks, c)
	r.mu.Unlock()
	return c
}

// RegisterFunc adds a pull-style check evaluated at probe time: a nil
// error is passing, a non-nil error is failing with the error text as
// detail. fn must be cheap and safe for concurrent use.
func (r *Registry) RegisterFunc(name string, fn func() error) {
	r.mu.Lock()
	r.fns = append(r.fns, funcCheck{name: name, fn: fn})
	r.mu.Unlock()
}

// BeginShutdown permanently fails readiness with "shutting down".
// /healthz is unaffected: a draining process is healthy, just no longer
// accepting work. Call on SIGTERM, before closing listeners.
func (r *Registry) BeginShutdown() { r.draining.Store(true) }

// Readiness evaluates every check plus the drain state.
func (r *Registry) Readiness() (bool, []Status) {
	now := r.now()
	r.mu.Lock()
	checks := append([]*Check(nil), r.checks...)
	fns := append([]funcCheck(nil), r.fns...)
	r.mu.Unlock()

	ready := true
	out := make([]Status, 0, len(checks)+len(fns)+1)
	for _, c := range checks {
		st := c.status(now)
		ready = ready && st.OK
		out = append(out, st)
	}
	for _, fc := range fns {
		st := Status{Name: fc.name, OK: true}
		if err := fc.fn(); err != nil {
			st.OK, st.Detail = false, err.Error()
		}
		ready = ready && st.OK
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if r.draining.Load() {
		ready = false
		out = append(out, Status{Name: "shutdown", OK: false, Detail: "shutting down"})
	}
	r.mu.Lock()
	if r.ready != nil {
		if ready {
			r.ready.Set(1)
		} else {
			r.ready.Set(0)
		}
	}
	r.mu.Unlock()
	return ready, out
}

// writeProbe renders a probe result: 200 "ok" or 503 with one line per
// check. ?verbose lists every check even on success.
func writeProbe(w http.ResponseWriter, req *http.Request, ok bool, sts []Status) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	if ok && req.URL.Query().Get("verbose") == "" {
		fmt.Fprintln(w, "ok")
		return
	}
	for _, st := range sts {
		mark := "+"
		if !st.OK {
			mark = "-"
		}
		fmt.Fprintf(w, "[%s] %s", mark, st.Name)
		if st.Detail != "" {
			fmt.Fprintf(w, ": %s", st.Detail)
		}
		fmt.Fprintln(w)
	}
	if ok {
		fmt.Fprintln(w, "ok")
	}
}

// ReadinessHandler serves GET /readyz.
func (r *Registry) ReadinessHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ok, sts := r.Readiness()
		writeProbe(w, req, ok, sts)
	})
}
