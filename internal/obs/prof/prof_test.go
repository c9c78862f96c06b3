package prof

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

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
