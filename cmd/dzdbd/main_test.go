package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dzdbapi"
	"repro/internal/zonedb"
	"repro/internal/zonedb/segment"
)

// world builds a small closed database; extra adds that many domains,
// so two worlds answer /v1/stats differently.
func world(extra int) *zonedb.DB {
	db := zonedb.New()
	db.DomainAdded("com", "foo.com", 10)
	db.DelegationAdded("com", "foo.com", "ns1.foo.com", 10)
	db.GlueAdded("com", "ns1.foo.com", 10)
	db.DomainAdded("net", "bar.net", 20)
	db.DelegationAdded("net", "bar.net", "ns1.foo.com", 20)
	for i := 0; i < extra; i++ {
		name := dnsname.Name(string(rune('a'+i)) + "x.org")
		db.DomainAdded("org", name, dates.Day(30+i))
		db.DelegationAdded("org", name, "ns1.foo.com", dates.Day(30+i))
	}
	db.Close(dates.Day(100 + extra))
	return db
}

// save writes db's view as the segment file at path.
func save(t *testing.T, path string, db *zonedb.DB) {
	t.Helper()
	if err := segment.WriteFile(path, db.View()); err != nil {
		t.Fatal(err)
	}
}

// body is what db serves on route.
func body(t *testing.T, db *zonedb.DB, route string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	dzdbapi.New(db).ServeHTTP(rec, httptest.NewRequest("GET", route, nil))
	if rec.Code != 200 {
		t.Fatalf("%s: status %d: %s", route, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// freshLoad is what a dzdbd started with -load path would serve.
func freshLoad(t *testing.T, path string, shardID, shardCount int) *zonedb.DB {
	t.Helper()
	fresh, err := segment.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if shardCount > 1 {
		fresh = fresh.View().FilterShard(shardID, shardCount)
	}
	return fresh
}

// TestReload drives the SIGHUP path: an unchanged file publishes
// nothing, a rewritten one publishes exactly one epoch serving what a
// fresh -load of it serves, and a file that fails to load leaves the
// previous epoch serving (and is not remembered as adopted).
func TestReload(t *testing.T) {
	if body(t, world(0), "/v1/stats") == body(t, world(3), "/v1/stats") {
		t.Fatal("the two worlds serve the same /v1/stats; the test cannot tell them apart")
	}
	for _, tc := range []struct {
		name                string
		shardID, shardCount int
	}{
		{"whole", 0, 1},
		{"shard 1 of 2", 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ds.dzdb")
			save(t, path, world(0))
			db := zonedb.New()
			arc := &archive{path: path, db: db, shardID: tc.shardID, shardCount: tc.shardCount}
			if changed, err := arc.reload(); err != nil || !changed {
				t.Fatalf("boot load = %v, %v; want a new epoch", changed, err)
			}
			booted := db.View().Epoch()
			want := body(t, freshLoad(t, path, tc.shardID, tc.shardCount), "/v1/stats")
			if got := body(t, db, "/v1/stats"); got != want {
				t.Fatalf("boot /v1/stats = %s, fresh load = %s", got, want)
			}

			// Unchanged: no epoch.
			if changed, err := arc.reload(); err != nil || changed {
				t.Fatalf("unchanged reload = %v, %v; want no-op", changed, err)
			}
			if e := db.View().Epoch(); e != booted {
				t.Fatalf("unchanged reload moved the epoch %d → %d", booted, e)
			}

			// Truncated: an error, and the booted epoch keeps serving.
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, good[:len(good)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if changed, err := arc.reload(); err == nil || changed {
				t.Fatalf("truncated reload = %v, %v; want an error", changed, err)
			}
			if e := db.View().Epoch(); e != booted {
				t.Fatalf("failed reload moved the epoch %d → %d", booted, e)
			}
			if got := body(t, db, "/v1/stats"); got != want {
				t.Fatalf("after a failed reload /v1/stats = %s, want the booted %s", got, want)
			}
			// The failed file was never adopted, so putting the served
			// file back is a no-op.
			if err := os.WriteFile(path, good, 0o644); err != nil {
				t.Fatal(err)
			}
			if changed, err := arc.reload(); err != nil || changed {
				t.Fatalf("restored-file reload = %v, %v; want no-op", changed, err)
			}

			// Rewritten: exactly one epoch, serving what a fresh load does.
			save(t, path, world(3))
			if changed, err := arc.reload(); err != nil || !changed {
				t.Fatalf("rewritten reload = %v, %v; want a new epoch", changed, err)
			}
			if e := db.View().Epoch(); e != booted+1 {
				t.Fatalf("rewritten reload: epoch %d → %d, want one step", booted, e)
			}
			for _, route := range []string{"/v1/stats", "/v1/zones", "/v1/top/nameservers"} {
				want := body(t, freshLoad(t, path, tc.shardID, tc.shardCount), route)
				if got := body(t, db, route); got != want {
					t.Errorf("reloaded %s = %s, fresh load = %s", route, got, want)
				}
			}
		})
	}
}

// TestConcurrentReloads: the boot load and SIGHUPs run on their own
// goroutines; however they race, one rewrite publishes one epoch.
func TestConcurrentReloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.dzdb")
	save(t, path, world(0))
	db := zonedb.New()
	arc := &archive{path: path, db: db, shardCount: 1}
	if _, err := arc.reload(); err != nil {
		t.Fatal(err)
	}
	booted := db.View().Epoch()
	save(t, path, world(3))
	var changed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := arc.reload()
			if err != nil {
				t.Error(err)
			}
			if ok {
				changed.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := changed.Load(); n != 1 {
		t.Errorf("%d of 4 racing reloads published, want 1", n)
	}
	if e := db.View().Epoch(); e != booted+1 {
		t.Errorf("epoch %d → %d, want one step", booted, e)
	}
}
