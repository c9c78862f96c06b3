package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCaptureRotationKeepN(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	p, err := Start(Config{Dir: dir, Interval: time.Hour, Keep: 3, CPUSeconds: 1}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	// A stray partial file in the capture dir must not break rotation.
	if err := os.WriteFile(filepath.Join(dir, "heap.partial"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		if _, err := p.CaptureNow(); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
	}
	sets, err := listCaptureSets(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 3 {
		t.Fatalf("got %d capture sets, want 3: %v", len(sets), sets)
	}
	// Oldest pruned first: survivors are cap-000002..cap-000004.
	for i, want := range []string{"cap-000002", "cap-000003", "cap-000004"} {
		if filepath.Base(sets[i]) != want {
			t.Errorf("sets[%d] = %s, want %s", i, filepath.Base(sets[i]), want)
		}
	}
	// Every surviving set carries a whole heap profile: runtime/pprof
	// writes them gzip-framed, so a torn one fails to inflate.
	for _, set := range sets {
		raw, err := os.ReadFile(filepath.Join(set, "heap.pprof"))
		if err != nil {
			t.Fatalf("read %s: %v", set, err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: heap profile is not gzipped: %v", set, err)
		}
		if _, err := io.ReadAll(zr); err != nil {
			t.Fatalf("%s: heap profile does not inflate: %v", set, err)
		}
	}
}

// A corrupt or partial profile file inside an old capture set must not
// stop pruning, and a restart resumes numbering past existing sets
// rather than clobbering them.
func TestCaptureRotationCorruptAndResume(t *testing.T) {
	dir := t.TempDir()
	p, err := Start(Config{Dir: dir, Interval: time.Hour, Keep: 2, CPUSeconds: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CaptureNow(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first set: truncate its heap profile mid-file.
	sets, _ := listCaptureSets(dir)
	if err := os.WriteFile(filepath.Join(sets[0], "heap.pprof"), []byte("\x1f\x8b"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.CaptureNow(); err != nil {
			t.Fatal(err)
		}
	}
	p.Stop()

	sets, _ = listCaptureSets(dir)
	if len(sets) != 2 {
		t.Fatalf("got %d sets after rotation over corrupt set, want 2", len(sets))
	}

	// Restart over the same dir: numbering continues after cap-000003.
	p2, err := Start(Config{Dir: dir, Interval: time.Hour, Keep: 2, CPUSeconds: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := p2.CaptureNow()
	p2.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(set) != "cap-000004" {
		t.Errorf("restart capture = %s, want cap-000004", filepath.Base(set))
	}
}

func TestTopContended(t *testing.T) {
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)

	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := time.Now().Add(300 * time.Millisecond)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				time.Sleep(time.Millisecond)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	sites := TopContended(5)
	if len(sites) == 0 {
		t.Fatal("no contended sites despite forced contention")
	}
	if len(sites) > 5 {
		t.Fatalf("TopContended(5) returned %d sites", len(sites))
	}
	for i := 1; i < len(sites); i++ {
		if sites[i].Delay > sites[i-1].Delay {
			t.Errorf("sites not sorted by delay: %v", sites)
		}
	}
	if sites[0].Count <= 0 {
		t.Errorf("top site has count %d", sites[0].Count)
	}
}

func TestTopContendedOffReturnsNil(t *testing.T) {
	prev := runtime.SetMutexProfileFraction(0)
	defer runtime.SetMutexProfileFraction(prev)
	if sites := TopContended(5); sites != nil {
		t.Fatalf("TopContended with profiling off = %v, want nil", sites)
	}
}
