package daemon

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObservabilityMux(t *testing.T) {
	app := New("testd", false)
	app.Reg.Counter("daemon_test_total", "test counter").Inc()
	ts := httptest.NewServer(app.ObservabilityMux())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "daemon_test_total 1") {
		t.Fatalf("metrics = %d\n%s", resp.StatusCode, body)
	}
	// Build info must be registered by New.
	if !strings.Contains(string(body), "build_info") {
		t.Errorf("metrics missing build_info:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof cmdline = %d", resp.StatusCode)
	}
}

// TestDeltaProfiles pins the runbook's profile step on the mux every
// daemon serves: the stdlib's ?seconds=N delta profiles answer there,
// and the mutex one is refused while sampling is off — an empty profile
// would read as "no contention".
func TestDeltaProfiles(t *testing.T) {
	app := New("testd", false)
	t.Cleanup(app.Close)
	ts := httptest.NewServer(app.ObservabilityMux())
	t.Cleanup(ts.Close)
	get := func(path string) (int, http.Header, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, body
	}
	// runtime/pprof writes every profile gzip-framed.
	isProfile := func(body []byte) bool { return len(body) > 2 && body[0] == 0x1f && body[1] == 0x8b }

	code, _, body := get("/debug/pprof/heap?seconds=1")
	if code != 200 || !isProfile(body) {
		t.Fatalf("heap delta = %d, %d bytes, want 200 with a gzip-framed profile", code, len(body))
	}

	prev := runtime.SetMutexProfileFraction(0)
	defer runtime.SetMutexProfileFraction(prev)
	code, hdr, body := get("/debug/pprof/mutex?seconds=1")
	if code != http.StatusPreconditionFailed {
		t.Fatalf("mutex delta with sampling off = %d, want 412", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body is not the v1 error envelope: %v\n%s", err, body)
	}
	if env.Error.Code != "profiling_disabled" || !strings.Contains(env.Error.Message, "-prof-mutex-fraction") {
		t.Errorf("envelope = %+v", env.Error)
	}

	runtime.SetMutexProfileFraction(1)
	if code, _, body := get("/debug/pprof/mutex"); code != 200 || !isProfile(body) {
		t.Errorf("mutex profile with sampling on = %d, %d bytes, want 200 with a profile", code, len(body))
	}
}

// TestContentionRatesRestored: the -prof-* flags set the runtime's
// mutex sampling and /statusz reports it; Close puts back the rate the
// process had before, so a daemon embedded in a test leaks nothing.
func TestContentionRatesRestored(t *testing.T) {
	before := runtime.SetMutexProfileFraction(0)
	defer runtime.SetMutexProfileFraction(before)

	fs := flag.NewFlagSet("testd", flag.ContinueOnError)
	f := RegisterProfFlags(fs)
	if err := fs.Parse([]string{"-prof-mutex-fraction", "1", "-prof-block-rate", "1000"}); err != nil {
		t.Fatal(err)
	}
	app := New("testd", false)
	app.StartProfiler(f)
	if got := runtime.SetMutexProfileFraction(-1); got != 1 {
		t.Errorf("mutex fraction after StartProfiler = %d, want 1", got)
	}
	var sb strings.Builder
	app.renderStatus(&sb)
	for _, want := range []string{"[profiling]", "mutex_fraction", "block_rate_ns"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("statusz missing %q:\n%s", want, sb.String())
		}
	}
	if !regexp.MustCompile(`mutex_fraction\s+1\n`).MatchString(sb.String()) {
		t.Errorf("statusz does not show mutex_fraction 1:\n%s", sb.String())
	}
	app.Close()
	if got := runtime.SetMutexProfileFraction(-1); got != 0 {
		t.Errorf("mutex fraction after Close = %d, want the earlier 0", got)
	}
	app.Close() // a second Close is harmless
}

func TestProbeEndpoints(t *testing.T) {
	app := New("testd", false)
	t.Cleanup(app.Close)
	store := app.Health.Register("store", 0)
	app.StatusSection("custom", func() []KV {
		return []KV{{K: "hello", V: "world"}}
	})
	ts := httptest.NewServer(app.ObservabilityMux())
	t.Cleanup(ts.Close)

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// Not ready until the store check reports; /healthz answers 200
	// throughout.
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("healthz = %d, want 200", code)
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "store") {
		t.Errorf("readyz before store = %d %q", code, body)
	}
	store.OK()
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("readyz after store OK = %d, want 200", code)
	}

	// /statusz renders runtime, health, and custom sections.
	code, body := get("/statusz")
	if code != 200 {
		t.Fatalf("statusz = %d", code)
	}
	for _, want := range []string{"testd", "[runtime]", "goroutines", "[health]", "store", "[custom]", "hello", "world"} {
		if !strings.Contains(body, want) {
			t.Errorf("statusz missing %q:\n%s", want, body)
		}
	}

	// go_* runtime gauges are exported on /metrics via the collector
	// New registers.
	if _, body := get("/metrics"); !strings.Contains(body, "go_goroutines") {
		t.Errorf("metrics missing go_goroutines")
	}

	// BeginShutdown flips readiness but not /healthz.
	app.BeginShutdown(0)
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "shutting down") {
		t.Errorf("readyz while draining = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("healthz while draining = %d, want 200", code)
	}
}

// TestMetricsSampleOnScrape: /metrics reads the runtime as it answers.
// Nothing samples in the background, so a change made between two
// scrapes shows in the second one, and no goroutine runs in the
// runtime collector.
func TestMetricsSampleOnScrape(t *testing.T) {
	app := New("testd", false)
	t.Cleanup(app.Close)
	ts := httptest.NewServer(app.ObservabilityMux())
	t.Cleanup(ts.Close)
	goroutines := func() int {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		m := regexp.MustCompile(`(?m)^go_goroutines (\d+)$`).FindSubmatch(body)
		if m == nil {
			t.Fatalf("no go_goroutines sample in\n%s", body)
		}
		n, _ := strconv.Atoi(string(m[1]))
		return n
	}

	before := goroutines()
	const parked = 50
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	after := goroutines()
	close(release)
	wg.Wait()
	if after < before+parked-10 {
		t.Errorf("go_goroutines %d after parking %d goroutines, was %d", after, parked, before)
	}

	var stacks bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&stacks, 2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stacks.String(), "repro/internal/obs/runtime.") {
		t.Errorf("a goroutine runs in the runtime collector:\n%s", stacks.String())
	}
}

func TestShutdownNil(t *testing.T) {
	Shutdown(nil, time.Second) // must not panic
	srv := HTTPServer("127.0.0.1:0", http.NewServeMux())
	if srv.ReadHeaderTimeout == 0 || srv.IdleTimeout == 0 {
		t.Error("standard timeouts not applied")
	}
	Shutdown(srv, time.Second) // never started; Shutdown is still safe
}

func TestServeObservabilityDisabled(t *testing.T) {
	app := New("testd", false)
	if srv := app.ServeObservability(""); srv != nil {
		t.Error("empty addr should disable the endpoint")
	}
}
