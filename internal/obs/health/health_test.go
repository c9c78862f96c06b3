package health

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock makes TTL staleness deterministic: tests advance it instead
// of sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func newTestRegistry() (*Registry, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRegistry()
	r.Now = clk.Now
	return r, clk
}

func TestCheckLifecycle(t *testing.T) {
	r, _ := newTestRegistry()
	c := r.Register("store", 0)

	// A check starts pending: registered but never reported.
	ready, sts := r.Readiness()
	if ready {
		t.Error("pending check should fail readiness")
	}
	if len(sts) != 1 || sts[0].OK || !strings.Contains(sts[0].Detail, "pending") {
		t.Errorf("statuses = %+v", sts)
	}

	c.OK()
	if ready, _ := r.Readiness(); !ready {
		t.Error("OK check should pass readiness")
	}

	c.Fail("archive corrupt")
	ready, sts = r.Readiness()
	if ready || sts[0].Detail != "archive corrupt" {
		t.Errorf("ready=%v statuses=%+v", ready, sts)
	}
}

func TestTTLExpiry(t *testing.T) {
	r, clk := newTestRegistry()
	c := r.Register("feed", 10*time.Second)
	c.OK()

	if ready, _ := r.Readiness(); !ready {
		t.Fatal("fresh check should pass")
	}
	clk.Advance(5 * time.Second)
	if ready, _ := r.Readiness(); !ready {
		t.Fatal("check within TTL should pass")
	}

	// Past the TTL the check is stale — absence of updates is failure.
	clk.Advance(6 * time.Second)
	ready, sts := r.Readiness()
	if ready {
		t.Error("stale check should fail readiness")
	}
	if !strings.Contains(sts[0].Detail, "stale") {
		t.Errorf("detail = %q, want stale", sts[0].Detail)
	}

	// A refresh revives it.
	c.OK()
	if ready, _ := r.Readiness(); !ready {
		t.Error("refreshed check should pass again")
	}
}

func TestFuncCheck(t *testing.T) {
	r, _ := newTestRegistry()
	var err error
	r.RegisterFunc("epoch", func() error { return err })

	if ok, _ := r.Readiness(); !ok {
		t.Error("nil-error func check should pass")
	}
	err = errors.New("no sealed epoch")
	ok, sts := r.Readiness()
	if ok || sts[0].Detail != "no sealed epoch" {
		t.Errorf("ok=%v statuses=%+v", ok, sts)
	}
}

func TestBeginShutdown(t *testing.T) {
	r, _ := newTestRegistry()
	r.Register("store", 0).OK()

	r.BeginShutdown()
	if !r.Draining() {
		t.Error("Draining() should report true after BeginShutdown")
	}
	ready, sts := r.Readiness()
	if ready {
		t.Error("draining registry should fail readiness")
	}
	found := false
	for _, st := range sts {
		if st.Name == "shutdown" && !st.OK {
			found = true
		}
	}
	if !found {
		t.Errorf("no shutdown status in %+v", sts)
	}
}

func TestProbeHandlers(t *testing.T) {
	r, _ := newTestRegistry()
	c := r.Register("store", 0)

	get := func(h http.Handler, path string) (int, string) {
		ts := httptest.NewServer(h)
		defer ts.Close()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get(r.ReadinessHandler(), "/"); code != 503 || !strings.Contains(body, "[-] store") {
		t.Errorf("pending readyz = %d %q", code, body)
	}
	c.OK()
	if code, body := get(r.ReadinessHandler(), "/"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("ready readyz = %d %q", code, body)
	}
	if code, body := get(r.ReadinessHandler(), "/?verbose=1"); code != 200 || !strings.Contains(body, "[+] store") {
		t.Errorf("verbose readyz = %d %q", code, body)
	}
}

// TestConcurrentProbes hammers checks and probes together; run with
// -race. TTL staleness interleaves with refreshes, so only data-race
// freedom is asserted, not outcomes.
func TestConcurrentProbes(t *testing.T) {
	r, clk := newTestRegistry()
	c := r.Register("feed", 10*time.Second)
	r.RegisterFunc("epoch", func() error { return nil })

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch {
				case w == 0:
					c.OK()
				case w == 1:
					c.Fail("flap")
				default:
					clk.Advance(time.Second)
					r.Readiness()
				}
			}
		}(w)
	}
	wg.Wait()
}
